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
path) and the arrival labels that the rule's triggers match.

A state is a statement, its arrival label set and the join that ends the
enclosing split branch. Each state is visited once. Only a split reads
outcomes, so only a state inside a split branch keeps a summary: one
outcome per distinct exit label set, with the first-discovered witness
(suffix trace and choices), after Reps, Horwitz and Sagiv's IFDS summaries
(POPL 1995); computing them only where a split demands them is the
demand-driven form of the same analysis (Horwitz, Reps and Sagiv, FSE
1995). A split folds its branches' summaries left to right by distinct
partial union, not by their product. Each distinct (service, arrival label
set) is decided once per verification. The walk therefore costs one visit
per state, plus, inside split branches, the distinct exit sets per state,
plus, per split, the sum over its branches of distinct partial unions x
that branch's distinct exit sets, plus the length of the traces it
reports: a chain of k choices has 2^k paths but 2k + 2 states
(``tests/test_verifier.py::test_choice_chain_is_linear_in_states``).
Witness traces share their cells and are flattened only for a reported
counterexample, and the walk keeps its own stack, so a route's length is
not bounded by Python's recursion limit.

``all_paths`` enumerates every violating path instead. It memoises
nothing, so it is an opt-in whose cost is exponential in the number of
choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .kernel import label_test, matched_labels
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


class _Seq(tuple):
    """A witness trace or choice list ``(first, then)``, built as ``_Seq((a, b))``.

    Either part is None (empty), a single item (an arrival triple or a
    ``(choice, taken)`` pair) or another ``_Seq``. Witnesses share their
    parts instead of copying them; ``_flatten`` lists the items in order
    only when a counterexample is built. A plain tuple subclass is built
    in C, without a Python-level ``__new__``.
    """

    __slots__ = ()


def _flatten(seq) -> list:
    items = []
    stack = [seq]
    while stack:
        part = stack.pop()
        if type(part) is _Seq:
            first, then = part
            stack.append(then)
            stack.append(first)
        elif part is not None:
            items.append(part)
    return items


class _Verifier:
    def __init__(self, route, policy, default_effect, all_paths):
        self.route = route
        self.policy = policy
        self.default_effect = default_effect
        self.all_paths = all_paths
        self.names = route.names
        self.memo: dict = {}  # (stmt, labels, stop_at) -> summary, () outside splits
        self.steps: dict = {}  # (atom, arrival labels) -> (decision, exit labels)
        self.violations: dict = {}  # (rule, stmt) -> list of Counterexample
        self.states = 0

    def step(self, atom: str, labels: frozenset):
        """The decision for, and the exit labels of, ``labels`` arriving at ``atom``.

        Both depend only on the pair, so each distinct pair is decided once
        per verification.
        """
        key = (atom, labels)
        step = self.steps.get(key)
        if step is None:
            url = self.route.endpoints.get(atom)
            req = DecisionRequest(atom, labels, url)
            result = decide(self.policy, req, self.default_effect)
            removes, creates = resolve_transforms(self.policy, atom, url)
            step = self.steps[key] = (
                result,
                apply_label_transform(labels, removes, creates),
            )
        return step

    def check(self, n, atom, labels, result, trace, choices) -> None:
        if result.effect not in ("drop", "error"):
            return
        rule_name = result.effect_rule or "default_deny"
        key = (rule_name, n)
        if not self.all_paths and key in self.violations:
            return
        rule = self.policy.rule_index.get(rule_name)
        if rule is not None:
            offending = matched_labels(label_test(rule.trigger_labels), labels)
        else:
            offending = labels
        ce = Counterexample(
            rule=rule_name,
            violating_service=atom,
            offending_labels=offending,
            trace=tuple(_flatten(trace)),
            choices=dict(_flatten(choices)),
        )
        self.violations.setdefault(key, []).append(ce)

    def explore(self) -> None:
        """Visit every reachable state, walked with an explicit stack.

        Each ``_visit`` generator yields the states it needs, in the order
        a recursive walk would visit them, and receives their outcomes;
        Python's call stack stays flat however long the route is.
        """
        stack = [self._visit((self.route.entry, frozenset(), None), None, None)]
        memo = None if self.all_paths else self.memo
        outcomes = None
        while stack:
            try:
                call = stack[-1].send(outcomes)
            except StopIteration as done:
                stack.pop()
                outcomes = done.value
                continue
            outcomes = None if memo is None else memo.get(call[0])
            if outcomes is None:
                stack.append(self._visit(*call))

    def _combinations(self, branch_outcomes):
        """One ``(union, first branch's trace, choices)`` per distinct union.

        ``all_paths`` takes every combination of branch outcomes, in
        ``product`` order. Otherwise the branches are folded left to right,
        keeping per distinct partial union the first combination that
        ``product`` would reach it with: a smaller prefix reaching the same
        partial union would extend to a smaller full combination. The
        distinct unions therefore come out in the order ``product`` first
        meets them, with the same witnesses, at a cost of distinct partial
        unions x a branch's distinct exit sets per branch.
        """
        if self.all_paths:
            for combo in product(*branch_outcomes):
                picked = None
                for _, _, sc in combo:
                    picked = _Seq((picked, sc))
                union = frozenset().union(*(el for el, _, _ in combo))
                yield union, combo[0][1], picked
            return
        first, *rest = branch_outcomes
        partial: dict = {}
        for el, st, sc in first:
            partial.setdefault(el, (st, _Seq((None, sc))))
        for outcomes in rest:
            extended: dict = {}
            for union, (st, picked) in partial.items():
                for el, _, sc in outcomes:
                    grown = union | el
                    if grown not in extended:
                        extended[grown] = (st, _Seq((picked, sc)))
            partial = extended
        for union, (st, picked) in partial.items():
            yield union, st, picked

    def _visit(self, key, prefix, prefix_choices):
        """Outcomes (exit labels, suffix trace, suffix choices) from state n.

        Yields ``((stmt, labels, stop_at), prefix, prefix_choices)`` for each
        successor state and receives that state's outcomes. ``prefix`` and
        ``prefix_choices`` only feed counterexamples; outcomes are
        prefix-independent. Only a split reads its branches' outcomes, so a
        state outside every split branch (``stop_at`` None) builds none and
        returns ``()``. Inside a branch, unless ``all_paths`` is set, the
        outcomes are summarised to the first-discovered witness per distinct
        exit label set. Unless ``all_paths`` is set, the result is memoised
        on ``(stmt, labels, stop_at)``, which also marks the state visited.
        """
        n, labels, stop_at = key
        self.states += 1
        inside = stop_at is not None
        stmt = self.route.statements[n]
        out_labels = labels
        if isinstance(stmt, From):
            url = self.route.endpoints.get(stmt.service)
            _, out_labels = resolve_transforms(self.policy, stmt.service, url)
            labels = out_labels  # arrival shows the created set
        arrival = (n, self.names[n], labels)
        trace = _Seq((prefix, arrival))
        outcomes = []
        if isinstance(stmt, (To, Bean)):
            result, out_labels = self.step(stmt.service, labels)
            self.check(n, stmt.service, labels, result, trace, prefix_choices)
        if isinstance(stmt, Choice):
            for taken, target in (
                (True, stmt.then_target),
                (False, stmt.else_target),
            ):
                picked = (n, taken)
                if target == stop_at:
                    outcomes.append((labels, arrival, picked))
                    continue
                downstream = yield (
                    (target, labels, stop_at), trace, _Seq((prefix_choices, picked))
                )
                for el, st, sc in downstream:
                    outcomes.append((el, _Seq((arrival, st)), _Seq((picked, sc))))
        elif isinstance(stmt, Split):
            join = self.route.joins[n]
            branch_outcomes = []
            for b in self.route.successors_map[n]:
                if b == join:
                    branch_outcomes.append([(labels, None, None)])
                else:
                    branch_outcomes.append(
                        (yield ((b, labels, join), trace, prefix_choices))
                    )
            for union, rep_trace, picked in self._combinations(branch_outcomes):
                # the first branch is the reported flow
                downstream = yield (
                    (join, union, stop_at),
                    _Seq((trace, rep_trace)),
                    _Seq((prefix_choices, picked)),
                )
                if downstream:
                    head = _Seq((arrival, rep_trace))
                    for el, st, sc in downstream:
                        outcomes.append((el, _Seq((head, st)), _Seq((picked, sc))))
        else:
            succs = self.route.successors_map.get(n, ())
            if not succs and inside:
                outcomes.append((out_labels, arrival, None))
            for s in succs:
                if s == stop_at:
                    outcomes.append((out_labels, arrival, None))
                    continue
                downstream = yield ((s, out_labels, stop_at), trace, prefix_choices)
                for el, st, sc in downstream:
                    outcomes.append((el, _Seq((arrival, st)), sc))
        if not inside:
            outcomes = ()
        elif not self.all_paths:
            summary: dict = {}
            for outcome in outcomes:
                summary.setdefault(outcome[0], outcome)
            outcomes = list(summary.values())
        if not self.all_paths:
            self.memo[key] = outcomes
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
    for atom in route.services:
        if not covering_declarations(policy, atom, route.endpoints.get(atom)):
            warnings.append(
                f"service {atom!r} is not declared in the policy; "
                "assuming it neither adds nor removes labels"
            )
    v = _Verifier(route, policy, default_effect, all_paths)
    v.explore()
    counterexamples = [ce for ces in v.violations.values() for ce in ces]
    return Verdict(
        valid=not counterexamples,
        counterexamples=counterexamples,
        warnings=warnings,
        explored_states=v.states,
    )


class _LabelTexts(dict):
    """``format_labels`` of each distinct label set, formatted on its first
    lookup; one table serves every counterexample of a verdict."""

    def __missing__(self, labels: frozenset) -> str:
        text = self[labels] = format_labels(labels)
        return text


def render_counterexample(ce: Counterexample, route_name: str) -> str:
    """The human-readable proof of violation, one trace per counterexample."""
    return _render_counterexample(ce, route_name, _LabelTexts())


def _render_counterexample(
    ce: Counterexample, route_name: str, texts: _LabelTexts
) -> str:
    lines = [
        f"Route {route_name} is invalid because",
        f"service {ce.violating_service} may receive label(s) "
        f"{texts[ce.offending_labels]}.",
        f"This is forbidden by rule {ce.rule}",
        "",
        "Example flows violating policy follow:",
    ]
    for i, (_, node, labels) in enumerate(ce.trace):
        verb = "creates" if i == 0 else "receives"
        lines.append(f"|-- {node} {verb} message labeled {texts[labels]}")
    lines.append("|-- fail!")
    return "\n".join(lines) + "\n"


def render_verdict(verdict: Verdict, route_name: str) -> str:
    if verdict.valid:
        return f"Route {route_name} is valid.\n"
    texts = _LabelTexts()
    return "\n".join(
        _render_counterexample(ce, route_name, texts)
        for ce in verdict.counterexamples
    )
