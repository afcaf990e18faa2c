"""Static model checking of routes against compiled policies.

The route's control-flow DAG is explored with the same label algebra the
runtime uses: from-statements introduce their service's created labels,
to/bean statements remove and add per the matched service declarations,
split copies the set into every branch, aggregate unions the branch sets.
Choice conditions are runtime data, so both branches are explored; the
verdict is therefore a conservative over-approximation.

A violation is a reachable to/bean statement whose arrival label set folds
to a drop or error decision. Each distinct (rule, statement) violation
yields one counterexample with a concrete trace (the first discovered
path); ``all_paths`` enumerates every violating path instead. Exploration
memoizes on (statement, label set), keeping the walk linear in distinct
reachable states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .pdp import DecisionRequest, apply_label_transform, decide
from .policy_compiler import (
    CompiledPolicy,
    covering_declarations,
    resolve_transforms,
)
from .routes import (
    Bean,
    Choice,
    From,
    Route,
    Split,
    To,
    node_names,
)
from .terms import format_labels


@dataclass(frozen=True)
class Counterexample:
    rule: str
    violating_service: str
    offending_labels: frozenset
    trace: tuple  # ordered (statement number, node name, arrival labels)
    choices: dict = field(default_factory=dict, hash=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "service": self.violating_service,
            "labels": sorted(map(repr, self.offending_labels)),
            "trace": [
                {"statement": n, "node": node, "labels": sorted(map(repr, labels))}
                for n, node, labels in self.trace
            ],
            "choices": {str(k): v for k, v in self.choices.items()},
        }


@dataclass
class Verdict:
    valid: bool
    counterexamples: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    explored_states: int = 0


class _Verifier:
    def __init__(self, route, policy, default_effect, all_paths):
        self.route = route
        self.policy = policy
        self.default_effect = default_effect
        self.all_paths = all_paths
        self.names = node_names(route)
        self.memo: dict = {}
        self.violations: dict = {}  # (rule, stmt) -> list of Counterexample
        self.states = 0

    def transforms(self, atom: str):
        return resolve_transforms(self.policy, atom, self.route.endpoints.get(atom))

    def check(self, n, stmt, labels, full_trace, full_choices) -> None:
        atom = stmt.service if isinstance(stmt, To) else stmt.name
        url = self.route.endpoints.get(atom)
        req = DecisionRequest(url or atom, labels, service_id=atom if url else None)
        result = decide(self.policy, req, self.default_effect)
        if result.effect not in ("drop", "error"):
            return
        rule_name = result.effect_rule or "default_deny"
        key = (rule_name, n)
        if not self.all_paths and key in self.violations:
            return
        if rule_name in self.policy.rule_index:
            offending = frozenset(
                self.policy.rule_index[rule_name].trigger_labels
            )
        else:
            offending = labels
        ce = Counterexample(
            rule=rule_name,
            violating_service=atom,
            offending_labels=offending,
            trace=tuple(full_trace),
            choices=dict(full_choices),
        )
        self.violations.setdefault(key, []).append(ce)

    def explore(self, n, labels, stop_at, prefix_trace, prefix_choices):
        """Suffix outcomes (exit labels, suffix trace, suffix choices).

        ``prefix_trace``/``prefix_choices`` are used only to record full
        counterexample traces; memoized results are prefix-independent.
        """
        key = (n, labels, stop_at)
        if not self.all_paths and key in self.memo:
            return self.memo[key]
        self.states += 1
        stmt = self.route.statements[n]
        out_labels = labels
        if isinstance(stmt, From):
            _, creates = self.transforms(stmt.service)
            out_labels = frozenset(creates)
            labels = out_labels  # arrival shows the created set
        arrival = (n, self.names[n], labels)
        trace1 = prefix_trace + (arrival,)
        outcomes = []
        if isinstance(stmt, (To, Bean)):
            self.check(n, stmt, labels, trace1, prefix_choices)
            atom = stmt.service if isinstance(stmt, To) else stmt.name
            removes, creates = self.transforms(atom)
            out_labels = apply_label_transform(labels, removes, creates)
        if isinstance(stmt, Choice):
            for taken, target in (
                (True, stmt.then_target),
                (False, stmt.else_target),
            ):
                sc0 = {n: taken}
                if target == stop_at:
                    outcomes.append((labels, (arrival,), sc0))
                else:
                    for el, st, sc in self.explore(
                        target, labels, stop_at, trace1, {**prefix_choices, **sc0}
                    ):
                        outcomes.append((el, (arrival,) + st, {**sc0, **sc}))
        elif isinstance(stmt, Split):
            outcomes = self._explore_split(
                n, labels, stop_at, arrival, trace1, prefix_choices
            )
        else:
            succs = self.route.successors_map.get(n, ())
            if not succs:
                outcomes.append((out_labels, (arrival,), {}))
            else:
                for s in succs:
                    if s == stop_at:
                        outcomes.append((out_labels, (arrival,), {}))
                    else:
                        for el, st, sc in self.explore(
                            s, out_labels, stop_at, trace1, prefix_choices
                        ):
                            outcomes.append((el, (arrival,) + st, sc))
        if not self.all_paths:
            self.memo[key] = outcomes
        return outcomes

    def _explore_split(self, n, labels, stop_at, arrival, trace1, prefix_choices):
        join = self.route.joins[n]
        branch_outcomes = []
        for b in self.route.successors_map[n]:
            if b == join:
                branch_outcomes.append([(labels, (), {})])
            else:
                branch_outcomes.append(
                    self.explore(b, labels, join, trace1, prefix_choices)
                )
        outcomes = []
        for combo in product(*branch_outcomes):
            union = frozenset().union(*(el for el, _, _ in combo))
            rep_trace = combo[0][1]  # the first branch is the reported flow
            combo_choices: dict = {}
            for _, _, sc in combo:
                combo_choices.update(sc)
            downstream = self.explore(
                join,
                union,
                stop_at,
                trace1 + rep_trace,
                {**prefix_choices, **combo_choices},
            )
            for el, st, sc in downstream:
                outcomes.append(
                    (el, (arrival,) + rep_trace + st, {**combo_choices, **sc})
                )
        return outcomes


def verify(
    route: Route,
    policy: CompiledPolicy,
    *,
    all_paths: bool = False,
    default_effect: str = "allow",
) -> Verdict:
    """Explore every label flow through the route; collect counterexamples."""
    warnings = []
    for atom in route.service_atoms():
        if not covering_declarations(policy, atom, route.endpoints.get(atom)):
            warnings.append(
                f"service {atom!r} is not declared in the policy; "
                "assuming it neither adds nor removes labels"
            )
    v = _Verifier(route, policy, default_effect, all_paths)
    v.explore(route.entry, frozenset(), None, (), {})
    counterexamples = [ce for ces in v.violations.values() for ce in ces]
    return Verdict(
        valid=not counterexamples,
        counterexamples=counterexamples,
        warnings=warnings,
        explored_states=v.states,
    )


def render_counterexample(ce: Counterexample, route_name: str) -> str:
    """The human-readable proof of violation, one trace per counterexample."""
    lines = [
        f"Route {route_name} is invalid because",
        f"service {ce.violating_service} may receive label(s) "
        f"{format_labels(ce.offending_labels)}.",
        f"This is forbidden by rule {ce.rule}",
        "",
        "Example flows violating policy follow:",
    ]
    for i, (_, node, labels) in enumerate(ce.trace):
        verb = "creates" if i == 0 else "receives"
        lines.append(f"|-- {node} {verb} message labeled {format_labels(labels)}")
    lines.append("|-- fail!")
    return "\n".join(lines) + "\n"


def render_verdict(verdict: Verdict, route_name: str) -> str:
    if verdict.valid:
        return f"Route {route_name} is valid.\n"
    return "\n".join(
        render_counterexample(ce, route_name) for ce in verdict.counterexamples
    )
