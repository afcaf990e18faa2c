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
under the restrictiveness order error > drop > allow; obligations
concatenate in rule declaration order. With no match the default effect
applies (allow, unless a default-deny deployment flips it to drop).

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
``kernel.match`` per (pattern, label) pair until each pattern has matched. A policy whose planned triggers are ground therefore
decides in time independent of the number of labels. A request that no
planned rule matches gets the one shared ``DecisionResult`` of its default
effect, so it allocates no result.

``apply_label_transform`` strips the ``kernel.matched_labels`` of a
service's removes, so only non-ground removes go through ``kernel.match``,
once per (pattern, label) pair; empty or ground removes call it not at all.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from .kernel import label_test, match, matched_labels, rebuild
from .policy import Decision, FlowRule, PolicyAst, ServiceDecl
from .policy_compiler import CompiledPolicy, compile_policy, covering_declarations
# flowbench/tracing.py patches labelflow.pdp.service_matches.
from .policy_compiler import service_matches  # noqa: F401
from .terms import Atom, Compound, Term

_SEVERITY = {"allow": 0, "drop": 1, "error": 2}


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
    classification label. Shared by the runtime and the verifier.
    """
    kept = frozenset(labels)
    if removes:
        kept -= matched_labels(label_test(removes), kept)
    return kept.union(creates)


@dataclass(frozen=True)
class DecisionRequest:
    """``service`` is a service atom or a bare endpoint URL, ``url`` the route's
    endpoint URL for that atom; a rule whose target matches either covers it."""

    service: str
    labels: frozenset
    url: str | None = None
    message_ref: Term | None = None

    def __post_init__(self):
        if not self.service:
            raise ValueError("decision request needs a target")
        if type(self.labels) is not frozenset:
            object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass(frozen=True)
class BoundObligation:
    action: Term  # with the ``message`` variable bound, when a ref was given
    otherwise: str
    rule: str


@dataclass(frozen=True)
class DecisionResult:
    effect: str
    obligations: tuple = ()  # BoundObligation, rule declaration order
    matched_rules: tuple = ()
    effect_rule: str | None = None  # first matched rule with the folded effect


# The result of a decision that no rule matches, one per default effect;
# a DecisionResult is immutable, so every such decision can share it.
_DEFAULT_RESULTS = {effect: DecisionResult(effect) for effect in _SEVERITY}


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


def _bind_message(action: Term, ref: Term | None) -> Term:
    """``action`` with every atom ``message`` replaced by ``ref``."""
    if ref is None:
        return action
    return rebuild(
        action, lambda x: ref if type(x) is Atom and x.name == "message" else None
    )


def decide(
    policy: CompiledPolicy, req: DecisionRequest, default_effect: str = "allow"
) -> DecisionResult:
    """Total decision function; identical inputs give identical results."""
    labels = req.labels
    plan = covering_declarations(policy, req.service, req.url)
    rules = [
        rule
        for rule, triggers in zip(plan.rules, plan.triggers)
        if rule_matches(triggers, labels)
    ]
    if not rules:
        return _DEFAULT_RESULTS.get(default_effect) or DecisionResult(default_effect)
    effects = [rule.decision.effect for rule in rules]
    effect = most_restrictive(effects)
    obligations = tuple(
        BoundObligation(
            _bind_message(ob.action, req.message_ref), ob.otherwise, rule.name
        )
        for rule in rules
        for ob in rule.decision.obligations
    )
    matched = tuple(rule.name for rule in rules)
    return DecisionResult(effect, obligations, matched, matched[effects.index(effect)])


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


def bench_request(n_labels: int) -> DecisionRequest:
    labels = [Atom("bench_label")]
    labels += [Compound("filler", (Atom(f"l{i}"),)) for i in range(n_labels - 1)]
    return DecisionRequest(BENCH_URL, frozenset(labels))


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
            req = bench_request(n_labels)
            decide(policy, req)  # warm caches
            samples = []
            gc_was_enabled = gc.isenabled()
            gc.disable()  # collector pauses would swamp the short timings
            try:
                for _ in range(trials):
                    # Best of three shields the sample from scheduler spikes.
                    best = float("inf")
                    for _ in range(3):
                        t0 = time.perf_counter()
                        decide(policy, req)
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
            decide(policy, req)
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
