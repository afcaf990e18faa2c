"""Policy decision point: from (target service, label set) to a decision.

A request names a service atom, or a bare endpoint URL, and the endpoint URL
the route gives that atom. A rule covers the request when its target
declaration matches either the atom or the URL. A rule matches when it
covers the request and every trigger matches one of the request's labels
one way (trigger ``merge(X)`` matches label ``merge(10)``; labels are
ground, so this agrees with unification). Each trigger is tested on its
own: variables shared between one rule's triggers bind independently, so
``receives p(X), q(X)`` matches ``{p(a), q(b)}`` (ROADMAP item 7 asks
whether they should bind jointly). The effects of all matched rules fold
under the restrictiveness order ``policy.EFFECTS``, error > drop > allow;
obligations concatenate in rule declaration order. With no match the
compiled policy's default effect applies (allow, unless a default-deny
deployment compiled it with drop); ``compile_policy`` has checked it, and
the rest of the policy, so a decision checks nothing again.

``covering_declarations`` in ``policy_compiler``, the resolver the label
transforms use too, answers coverage once per decision, together with the
service's rule plan: the rules whose target covers it, in declaration order
(target indexing, after Liu et al., "XEngine", SIGMETRICS 2008). ``decide``
scans only the plan, so a to/bean statement costs one decision linear in
the rules that target its service, and linear in all rules only when all of
them do (the worst case ``bench_decide`` times).

The plan holds each planned rule's triggers as a ``kernel.label_test``: a
frozenset of ground triggers and a tuple of one-way patterns. A decision
costs one subset test per planned rule, O(sum of the ground triggers of
the planned rules) in all, plus, for a planned rule with patterns, one
``kernel.match`` per (pattern, label) pair until each pattern has matched.
A policy whose planned triggers are ground therefore decides in time
independent of the number of labels. A request that no planned rule
matches gets the one shared ``DecisionResult`` of its default effect, so
it allocates no result.

``apply_label_transform`` strips the ``kernel.matched_labels`` of a
service's removes, so only non-ground removes go through ``kernel.match``,
once per (pattern, label) pair; empty or ground removes call it not at all.
The removes that ``resolve_transforms`` gives are a ``kernel.LabelTerms``,
whose label test was built once with the service's coverage.

A decision is a function of the service, its URL and the labels alone.
The obligations it returns carry each rule's action as the rule wrote it;
the runtime, which enforces them, replaces ``message`` in an action with
the running message's id when it invokes the action (the decision point
and enforcement point of OASIS XACML 3.0). ``decide`` refuses an empty
target and freezes labels given as any other iterable.

``BoundObligation`` and ``DecisionResult`` are ``NamedTuple``s: immutable,
and equal and hashed by their fields. ``decide`` builds them with the
C-level ``tuple.__new__``, which runs no Python code per record. The policy
AST records that ``decide`` reads
(``ServiceDecl``, ``FlowRule``, ``Decision``, ``Obligation``, ``PolicyAst``)
are ``NamedTuple``s too, which both policy parsers build the same way.
Terms and route statements stay frozen dataclasses (see ``_new_record``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import NamedTuple

from .kernel import LabelTerms, label_test, match, matched_labels
from .policy import EFFECTS, Decision, FlowRule, PolicyAst, ServiceDecl
from .policy_compiler import CompiledPolicy, compile_policy, covering_declarations
# flowbench/tracing.py patches labelflow.pdp.service_matches.
from .policy_compiler import service_matches  # noqa: F401
from .terms import Atom, Compound, Term

# C-level constructor: builds a record without its Python ``__new__``.
# Only records whose equality may ignore their type are tuples: these, the
# runtime's audit events and the policy AST's records (``policy`` says why
# theirs may). Terms and route statements stay frozen dataclasses, because
# their equality is type-strict (``Atom("a") != Str("a")``, ``To(s) !=
# Bean(s)``), and tuple equality compares the fields alone.
_new_record = tuple.__new__

_SEVERITY = {effect: rank for rank, effect in enumerate(EFFECTS)}


def most_restrictive(effects) -> str:
    """Fold effects under error > drop > allow; empty folds to allow."""
    best = "allow"
    for e in effects:
        if _SEVERITY[e] > _SEVERITY[best]:
            best = e
    return best


def apply_label_transform(labels: frozenset, removes, creates) -> frozenset:
    """The per-service taint step: remove matching labels, then add new ones.

    A remove strips every label it matches one way: a ground remove the
    label equal to it, a pattern like ``classification(X)`` every
    classification label. Shared by the runtime and the verifier. Removes
    that are a ``kernel.LabelTerms`` bring their label test; any others are
    split into one on each call.
    """
    kept = frozenset(labels)
    if removes:
        test = removes.test if type(removes) is LabelTerms else label_test(removes)
        kept -= matched_labels(test, kept)
    return kept.union(creates)


class BoundObligation(NamedTuple):
    action: Term  # the rule's own action; ``rule`` imposed it
    otherwise: str
    rule: str


class DecisionResult(NamedTuple):
    effect: str
    obligations: tuple = ()  # BoundObligation, rule declaration order
    matched_rules: tuple = ()
    effect_rule: str | None = None  # first matched rule with the folded effect


# The result of a decision that no rule matches, one per default effect;
# a DecisionResult is immutable, so every such decision can share it.
_DEFAULT_RESULTS = {effect: DecisionResult(effect) for effect in EFFECTS}


def rule_matches(triggers: tuple, labels: frozenset) -> bool:
    """Does every term of ``triggers``, a planned rule's ``kernel.label_test``,
    match a label in ``labels``? (Only planned rules are asked about, and
    those all cover the request.)"""
    ground, patterns = triggers
    if not ground <= labels:
        return False
    for pattern in patterns:
        for label in labels:
            if match(pattern, label):
                break
        else:
            return False
    return True


def decide(
    policy: CompiledPolicy, service: str, labels: frozenset, url: str | None = None
) -> DecisionResult:
    """The decision on ``labels`` arriving at ``service``, a service atom or a
    bare endpoint URL; ``url`` is the route's endpoint URL for that atom, and
    a rule whose target matches either covers the request. Identical inputs
    give identical results."""
    if not service:
        raise ValueError("decision request needs a target")
    if type(labels) is not frozenset:
        labels = frozenset(labels)
    plan = covering_declarations(policy, service, url)
    rules = [
        rule
        for rule, triggers in zip(plan.rules, plan.triggers)
        if rule_matches(triggers, labels)
    ]
    if not rules:
        return _DEFAULT_RESULTS[policy.default_effect]
    effects = [rule.decision.effect for rule in rules]
    effect = most_restrictive(effects)
    obligations = tuple(
        _new_record(BoundObligation, (ob.action, ob.otherwise, rule.name))
        for rule in rules
        for ob in rule.decision.obligations
    )
    matched = tuple(rule.name for rule in rules)
    result = (effect, obligations, matched, matched[effects.index(effect)])
    return _new_record(DecisionResult, result)


# ---------------------------------------------------------------------------
# Benchmark harness.
# ---------------------------------------------------------------------------

BENCH_URL = "https://probe.example/ingest"
BENCH_CSV_HEADER = "n_rules,n_labels,mean_us,p95_us,mem_bytes"


@dataclass(frozen=True)
class BenchRow:
    n_rules: int
    n_labels: int
    mean_us: float
    p95_us: float
    mem_bytes: int

    def csv(self) -> str:
        return (
            f"{self.n_rules},{self.n_labels},"
            f"{self.mean_us:.3f},{self.p95_us:.3f},{self.mem_bytes}"
        )


def worst_case_policy(n_rules: int) -> CompiledPolicy:
    """Policy where every rule matches the probed service and its labels.

    Each rule targets the probe endpoint and triggers on a label the bench
    request always carries, so a decision must evaluate every single rule.
    """
    services = (ServiceDecl(id="probe", endpoint="http[s]?://probe\\.example/.+"),)
    rules = tuple(
        FlowRule(
            name=f"bench_rule_{i}",
            target="probe",
            trigger_labels=(Atom("bench_label"),),
            decision=Decision("drop"),
        )
        for i in range(n_rules)
    )
    return compile_policy(PolicyAst(services, rules))


def bench_request(n_labels: int) -> frozenset:
    """The labels of the bench request, which targets ``BENCH_URL``."""
    labels = [Atom("bench_label")]
    labels += [Compound("filler", (Atom(f"l{i}"),)) for i in range(n_labels - 1)]
    return frozenset(labels)


def bench_decide(
    policy_sizes, label_counts, trials: int = 20
) -> list[BenchRow]:
    """Worst-case decision timings and peak incremental memory.

    One row per (rules, labels) pair. Timing and memory are measured in
    separate passes since tracemalloc skews wall-clock numbers. tracemalloc
    (and the pickle it loads) is imported here, not by ``import labelflow``.
    """
    import tracemalloc

    rows = []
    for n_rules in policy_sizes:
        policy = worst_case_policy(n_rules)
        for n_labels in label_counts:
            labels = bench_request(n_labels)
            decide(policy, BENCH_URL, labels)  # warm caches
            samples = []
            gc_was_enabled = gc.isenabled()
            gc.disable()  # collector pauses would swamp the short timings
            try:
                for _ in range(trials):
                    # Best of three shields the sample from scheduler spikes.
                    best = float("inf")
                    for _ in range(3):
                        t0 = time.perf_counter()
                        decide(policy, BENCH_URL, labels)
                        best = min(best, time.perf_counter() - t0)
                    samples.append(best * 1e6)
            finally:
                if gc_was_enabled:
                    gc.enable()
            samples.sort()
            p95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
            tracemalloc.start()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            decide(policy, BENCH_URL, labels)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            mean_us = sum(samples) / len(samples)
            rows.append(
                BenchRow(n_rules, n_labels, mean_us, p95, max(0, peak - before))
            )
    return rows


def bench_csv(rows) -> str:
    return "\n".join([BENCH_CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def linear_fit_r2(xs, ys) -> float:
    """Coefficient of determination of the least-squares line through points."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        return 1.0
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot
