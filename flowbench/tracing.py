"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces functions on labelflow's modules with wrappers
and ``Tracer.restore`` puts the originals back. Modules bind imported names
at import time, so a wrapper goes on the attribute the *calling* module
looks up (``labelflow.runtime.decide``, not only ``labelflow.pdp.decide``).

Coarse calls get span wrappers that record (name, start, end, parent span,
op id) in memory; the hot per-call functions get count-only wrappers.
``metrics`` turns spans and counts into the per-layer metrics, where a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import labelflow.cli
import labelflow.engine
import labelflow.kernel
import labelflow.pdp
import labelflow.policy
import labelflow.policy_compiler
import labelflow.routes
import labelflow.runtime
import labelflow.terms
import labelflow.verifier

# name -> unit, in report order.
LAYER_METRICS = {
    "engine.kb_builds": "count",
    "engine.clauses_indexed": "count",
    "engine.kb_build_ms": "ms",
    "engine.queries": "count",
    "engine.solve_ms": "ms",
    "pdp.decide_calls": "count",
    "pdp.decide_ms": "ms",
    "pdp.rules_scanned": "count",
    "pdp.rules_matched": "count",
    "pdp.match_ratio": "ratio",
    "pdp.regex_evals": "count",
    "kernel.unify_calls": "count",
    "kernel.unify_inplace_calls": "count",
    "kernel.rename_calls": "count",
    "runtime.execute_ms": "ms",
    "runtime.self_ms": "ms",
    "runtime.transform_ms": "ms",
    "runtime.statements": "count",
    "runtime.conditions": "count",
    "runtime.handler_ms": "ms",
    "verifier.verify_ms": "ms",
    "verifier.self_ms": "ms",
    "verifier.states": "count",
    "verifier.decide_calls": "count",
    "verifier.counterexamples": "count",
    "verifier.render_ms": "ms",
    "terms.tokens": "count",
    "policy.parse_ms": "ms",
    "policy.rules_parsed": "count",
    "policy.services_declared": "count",
    "routes.parse_ms": "ms",
    "routes.statements_parsed": "count",
    "policy_compiler.compile_ms": "ms",
    "policy_compiler.clauses": "count",
    "cli.check_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# metric -> span name whose total duration it reports.
_DURATIONS = {
    "engine.kb_build_ms": "engine.kb_build",
    "engine.solve_ms": "engine.solve",
    "pdp.decide_ms": "pdp.decide",
    "runtime.execute_ms": "runtime.execute",
    "runtime.transform_ms": "runtime.transform",
    "runtime.handler_ms": "runtime.handler",
    "verifier.verify_ms": "verifier.verify",
    "verifier.render_ms": "verifier.render",
    "policy.parse_ms": "policy.parse",
    "routes.parse_ms": "routes.parse",
    "policy_compiler.compile_ms": "policy_compiler.compile",
    "cli.check_ms": "cli.check",
}
# metric -> span name whose total self time it reports.
_SELF = {
    "runtime.self_ms": "runtime.execute",
    "verifier.self_ms": "verifier.verify",
    "cli.self_ms": "cli.check",
}
# metric -> span name whose number of spans it reports.
_SPAN_COUNTS = {
    "engine.queries": "engine.solve",
    "pdp.decide_calls": "pdp.decide",
    "runtime.conditions": "runtime.eval_condition",
}


def _count(key):
    def after(counts, args, result):
        counts[key] += 1

    return after


def _after_kb_init(counts, args, result):
    counts["engine.kb_builds"] += 1
    counts["engine.clauses_indexed"] += len(args[0].clauses)


def _after_rule_matches(counts, args, result):
    counts["pdp.rules_scanned"] += 1
    if result:
        counts["pdp.rules_matched"] += 1


def _after_service_matches(counts, args, result):
    policy, decl_id, target = args
    # A declared service is matched by id first and by its regex otherwise.
    if decl_id != target and decl_id in policy.endpoint_patterns:
        counts["pdp.regex_evals"] += 1


def _after_parse_policy(counts, args, ast):
    counts["policy.rules_parsed"] += len(ast.rules)
    counts["policy.services_declared"] += len(ast.services)


def _after_parse_route(counts, args, route):
    counts["routes.statements_parsed"] += len(route.statements)


def _after_compile(counts, args, compiled):
    counts["policy_compiler.clauses"] += len(compiled.kb.clauses)


def _after_verify(counts, args, verdict):
    counts["verifier.states"] += verdict.explored_states
    counts["verifier.counterexamples"] += len(verdict.counterexamples)


def _after_execute(counts, args, outcome):
    counts["runtime.statements"] += len(outcome.audit)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = "setup"
        self._open: list = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        spans, open_, counts = self.spans, self._open, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def counter(self, fn, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counts, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, workload) -> None:
        """Wrap every traced call site; ``workload`` owns the handlers."""
        lf = labelflow
        span, counter, patch = self.span, self.counter, self._patch
        patch(workload, "handler", lambda f: span("runtime.handler", f))
        patch(lf.cli, "main", lambda f: span("cli.check", f))
        patch(lf.runtime, "execute", lambda f: span("runtime.execute", f, _after_execute))
        for mod, attr in ((lf.cli, "parse_policy"), (lf.policy, "parse_policy")):
            patch(mod, attr, lambda f: span("policy.parse", f, _after_parse_policy))
        for mod, attr in ((lf.cli, "parse_route"), (lf.routes, "parse_route")):
            patch(mod, attr, lambda f: span("routes.parse", f, _after_parse_route))
        for mod in (lf.cli, lf.policy_compiler):
            patch(mod, "compile_policy",
                  lambda f: span("policy_compiler.compile", f, _after_compile))
        patch(lf.cli, "verify", lambda f: span("verifier.verify", f, _after_verify))
        patch(lf.cli, "render_verdict", lambda f: span("verifier.render", f))
        patch(lf.runtime, "decide", lambda f: span("pdp.decide", f))
        patch(lf.verifier, "decide",
              lambda f: span("pdp.decide", f, _count("verifier.decide_calls")))
        patch(lf.runtime, "eval_condition", lambda f: span("runtime.eval_condition", f))
        patch(lf.runtime, "provable", lambda f: span("engine.solve", f))
        patch(lf.runtime, "resolve_transforms", lambda f: span("runtime.transform", f))
        patch(lf.runtime, "apply_label_transform",
              lambda f: span("runtime.transform", f))
        kb = lf.engine.KnowledgeBase
        patch(kb, "__init__", lambda f: span("engine.kb_build", f, _after_kb_init))
        patch(kb, "extend", lambda f: span("engine.extend", f))
        patch(lf.pdp, "rule_matches", lambda f: counter(f, _after_rule_matches))
        patch(lf.pdp, "service_matches", lambda f: counter(f, _after_service_matches))
        for attr, key in (
            ("unify", "kernel.unify_calls"),
            ("unify_inplace", "kernel.unify_inplace_calls"),
            ("rename", "kernel.rename_calls"),
        ):
            patch(lf.kernel, attr, lambda f, key=key: counter(f, _count(key)))
        patch(lf.terms.Tokenizer, "next", lambda f: counter(f, _count("terms.tokens")))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        total: Counter = Counter()
        n_spans: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            n_spans[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
        out = {}
        for key in LAYER_METRICS:
            if key in _DURATIONS:
                out[key] = total[_DURATIONS[key]] * 1e3
            elif key in _SELF:
                out[key] = self_time[_SELF[key]] * 1e3
            elif key in _SPAN_COUNTS:
                out[key] = n_spans[_SPAN_COUNTS[key]]
            else:
                out[key] = self.counts[key]
        scanned = self.counts["pdp.rules_scanned"]
        out["pdp.match_ratio"] = self.counts["pdp.rules_matched"] / scanned if scanned else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

