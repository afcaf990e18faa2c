"""Static model checking of routes against compiled policies.

The route's control-flow DAG is explored with the same label algebra the
runtime uses: from-statements introduce their service's created labels,
to/bean statements remove and add per the matched service declarations,
split copies the set into every branch, aggregate unions the branch sets.
Choice conditions are runtime data, so both branches are explored; the
verdict is therefore a conservative over-approximation.

A violation is a reachable to/bean statement whose arrival label set folds
to a drop or error decision. A set that no rule matches takes the default
effect that ``compile_policy`` fixed on the policy; under drop it is a
violation reported as rule ``default_deny``, whose offending labels are all
the arrival labels, kept apart from any rule of that name. Each distinct
(rule, statement) violation yields one counterexample with a concrete trace
(the first discovered path) and the arrival labels that the rule's triggers
match.

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
counterexample. The walk is one loop over its own stack of frames, with
no generator per state (see ``_Verifier.explore``), so a route's length is
not bounded by Python's recursion limit.

``all_paths`` enumerates every violating path instead. It memoises
nothing, so it is an opt-in whose cost is exponential in the number of
choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .kernel import label_test, matched_labels
from .pdp import apply_label_transform, decide
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


# The kinds of frame on ``_Verifier.explore``'s stack, ``(kind, state, a,
# b)``: a VISIT's a and b are the prefix trace and choices, a SPLIT's the
# split's trace and prefix choices, and a FINISH's a is its slots.
_VISIT, _FINISH, _SPLIT = range(3)


class _Verifier:
    def __init__(self, route, policy, all_paths):
        self.route = route
        self.policy = policy
        self.all_paths = all_paths
        self.names = route.names
        self.memo: dict = {}  # (stmt, labels, stop_at) -> summary, () outside splits
        self.steps: dict = {}  # (atom, arrival labels) -> (decision, exit labels)
        self.violations: dict = {}  # (rule or None, stmt) -> list of Counterexample
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
            result = decide(self.policy, atom, labels, url)
            removes, creates = resolve_transforms(self.policy, atom, url)
            step = self.steps[key] = (
                result,
                apply_label_transform(labels, removes, creates),
            )
        return step

    def check(self, n, atom, labels, result, trace, choices) -> None:
        if result.effect == "allow":
            return
        # None keys a default-deny violation apart from any rule's.
        rule_name = result.effect_rule
        key = (rule_name, n)
        if not self.all_paths and key in self.violations:
            return
        if rule_name is None:
            offending = labels
        else:
            rule = self.policy.rule_index[rule_name]
            offending = matched_labels(label_test(rule.trigger_labels), labels)
        ce = Counterexample(
            rule=rule_name or "default_deny",
            violating_service=atom,
            offending_labels=offending,
            trace=tuple(_flatten(trace)),
            choices=dict(_flatten(choices)),
        )
        self.violations.setdefault(key, []).append(ce)

    def explore(self) -> None:
        """Visit every reachable state, in one loop over a stack of frames.

        A VISIT frame ``(_VISIT, (stmt, labels, stop_at), prefix,
        prefix_choices)`` requests a state; ``prefix`` and ``prefix_choices``
        only feed counterexamples, since outcomes (exit labels, suffix trace,
        suffix choices) are prefix-independent. Unless ``all_paths`` is set,
        a memoised state is done at once, and the memo marks a state visited.
        Otherwise the state is visited: arrival, ``step`` and ``check``. It
        then pushes its successors' VISIT frames in reverse, so that they pop
        in the order of a recursive walk.

        Only a split reads outcomes. A state outside every split branch
        (``stop_at`` None) is memoised with ``()`` when it is visited and
        builds none. Every requested state inside a branch leaves its
        outcomes on ``results``. Such a state pushes a FINISH frame below its
        successors; when it pops, it takes their outcomes from ``results`` in
        request order, builds its own, summarises them to the first-discovered
        witness per distinct exit label set unless ``all_paths`` is set, and
        memoises and leaves them. A split pushes a SPLIT frame below its
        branches. When that frame pops, it folds the branch outcomes with
        ``_combinations`` and requests one join state per union; a split
        inside an outer branch first pushes the FINISH frame that collects
        the joins' outcomes. Python's call stack stays flat however long the
        route is.
        """
        route = self.route
        statements = route.statements
        successors = route.successors_map
        memo = None if self.all_paths else self.memo
        results: list = []  # outcomes of requested states inside a branch
        stack = [(_VISIT, (route.entry, frozenset(), None), None, None)]
        while stack:
            kind, key, a, b = stack.pop()
            n, labels, stop_at = key
            if kind == _VISIT:
                if memo is not None:
                    outcomes = memo.get(key)
                    if outcomes is not None:
                        if stop_at is not None:
                            results.append(outcomes)
                        continue
                self.states += 1
                stmt = statements[n]
                out_labels = labels
                if isinstance(stmt, From):
                    url = route.endpoints.get(stmt.service)
                    _, out_labels = resolve_transforms(self.policy, stmt.service, url)
                    labels = out_labels  # arrival shows the created set
                arrival = (n, self.names[n], labels)
                trace = _Seq((a, arrival))
                if isinstance(stmt, (To, Bean)):
                    result, out_labels = self.step(stmt.service, labels)
                    self.check(n, stmt.service, labels, result, trace, b)
                if stop_at is None and memo is not None:
                    memo[key] = ()
                if isinstance(stmt, Split):
                    join = route.joins[n]
                    stack.append((_SPLIT, key, trace, b))
                    for t in reversed(successors[n]):
                        if t != join:
                            stack.append((_VISIT, (t, labels, join), trace, b))
                    continue
                # (target, the choice taken or None) per edge
                if isinstance(stmt, Choice):
                    then, other = successors[n]
                    edges = ((then, (n, True)), (other, (n, False)))
                else:
                    edges = [(s, None) for s in successors.get(n, ())]
                if stop_at is not None:
                    # An edge to the join ends the branch, and every branch has one.
                    slots = [
                        (None, (out_labels, arrival, picked))
                        if target == stop_at
                        else (arrival, picked)
                        for target, picked in edges
                    ]
                    stack.append((_FINISH, key, slots, None))
                for target, picked in reversed(edges):
                    if target != stop_at:
                        choices = b if picked is None else _Seq((b, picked))
                        state = (target, out_labels, stop_at)
                        stack.append((_VISIT, state, trace, choices))
            elif kind == _FINISH:
                # a slot is ``(None, outcome)``, or ``(head, picked)`` for a
                # requested state, which left its outcomes on ``results``
                downstream = [
                    None if head is None else results.pop()
                    for head, _ in reversed(a)
                ]
                downstream.reverse()
                outcomes = []
                for (head, picked), down in zip(a, downstream):
                    if head is None:
                        outcomes.append(picked)  # the outcome itself
                        continue
                    for el, st, sc in down:
                        outcomes.append((
                            el,
                            _Seq((head, st)),
                            sc if picked is None else _Seq((picked, sc)),
                        ))
                if memo is not None:
                    summary: dict = {}
                    for outcome in outcomes:
                        summary.setdefault(outcome[0], outcome)
                    outcomes = memo[key] = list(summary.values())
                results.append(outcomes)
            else:  # _SPLIT
                join = route.joins[n]
                branch_outcomes = [
                    [(labels, None, None)] if t == join else results.pop()
                    for t in reversed(successors[n])
                ]
                branch_outcomes.reverse()
                unions = self._combinations(branch_outcomes)
                if stop_at is not None:
                    arrival = a[1]  # a split's trace ends at its arrival
                    slots = [(_Seq((arrival, rep)), p) for _, rep, p in unions]
                    stack.append((_FINISH, key, slots, None))
                # the first branch is the reported flow
                for union, rep, picked in reversed(unions):
                    state = (join, union, stop_at)
                    stack.append((_VISIT, state, _Seq((a, rep)), _Seq((b, picked))))

    def _combinations(self, branch_outcomes) -> list:
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
            unions = []
            for combo in product(*branch_outcomes):
                picked = None
                for _, _, sc in combo:
                    picked = _Seq((picked, sc))
                union = frozenset().union(*(el for el, _, _ in combo))
                unions.append((union, combo[0][1], picked))
            return unions
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
        return [(union, st, picked) for union, (st, picked) in partial.items()]


def verify(
    route: Route,
    policy: CompiledPolicy,
    *,
    all_paths: bool = False,
) -> Verdict:
    """Explore every label flow through the route; collect counterexamples."""
    warnings = []
    for atom in route.services:
        if not covering_declarations(policy, atom, route.endpoints.get(atom)):
            warnings.append(
                f"service {atom!r} is not declared in the policy; "
                "assuming it neither adds nor removes labels"
            )
    v = _Verifier(route, policy, all_paths)
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
