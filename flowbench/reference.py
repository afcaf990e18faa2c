"""Independent ground-label reference for the benchmark's outputs.

It reads the generator's models (``gen.py``), never labelflow's parsed
objects, and implements the documented semantics from scratch:

* rules match by target id or by ``re.fullmatch`` of the target's endpoint
  pattern against the URL the route gives the service (or the bare atom);
* a trigger holds when some label matches it one way (``w(X)`` matches any
  ``w(..)``); all triggers of a rule must hold;
* effects fold error > drop > allow, the reported rule is the first matched
  one with the folded effect, and the first failing obligation (in rule
  order) replaces the effect with its ``otherwise``;
* a service's transform removes matching labels, then adds created ones,
  summed over every declared service covering its URL or its id;
* at runtime a choice evaluates its condition on the message props, and a
  split runs its branches in order and unions their labels at the join;
* statically, both branches of every choice are taken, and a violation is a
  reachable (to/bean statement, arrival label set) whose decision folds to
  drop or error. The reachable states come from a worklist over distinct
  label sets, with per-branch exit summaries at splits, not from paths.
"""

from __future__ import annotations

import re
from itertools import product

from gen import OBLIGATION_OK, PolicyModel, RouteModel, Svc

SEVERITY = {"allow": 0, "drop": 1, "error": 2}


def matches(pattern: tuple, label: tuple) -> bool:
    if len(pattern) != len(label) or pattern[0] != label[0]:
        return False
    return len(pattern) == 1 or pattern[1] is None or pattern[1] == label[1]


class PolicyRef:
    def __init__(self, model: PolicyModel):
        self.model = model
        self.declared = list(model.services) + [
            r.target for r in model.rules if isinstance(r.target, Svc)
        ]
        by_id = {s.id: s for s in model.services}
        # Per rule: (target id or None, target endpoint pattern).
        self.targets = [
            (None, r.target.endpoint)
            if isinstance(r.target, Svc)
            else (r.target, by_id[r.target].endpoint)
            for r in model.rules
        ]
        self._transforms: dict = {}
        self._decisions: dict = {}

    def covers(self, i: int, subject: str) -> bool:
        """Does the target of rule ``i`` cover ``subject`` (URL or id)?"""
        tid, pattern = self.targets[i]
        return tid == subject or re.fullmatch(pattern, subject) is not None

    def transforms(self, atom: str, url: str | None) -> tuple:
        key = (atom, url)
        if key not in self._transforms:
            removes, creates = set(), set()
            for svc in self.declared:
                hit = (svc.id is not None and svc.id == atom) or any(
                    re.fullmatch(svc.endpoint, s) for s in {url or atom, atom}
                )
                if hit:
                    removes.update(svc.removes)
                    creates.update(svc.creates)
            self._transforms[key] = (frozenset(removes), frozenset(creates))
        return self._transforms[key]

    def transform(self, labels: frozenset, atom: str, url: str | None) -> frozenset:
        removes, creates = self.transforms(atom, url)
        kept = {l for l in labels if not any(matches(p, l) for p in removes)}
        return frozenset(kept) | creates

    def decide(self, atom: str, url: str | None, labels: frozenset):
        """(effect, effect rule, obligations as (functor, otherwise, rule))."""
        key = (atom, url, labels)
        if key in self._decisions:
            return self._decisions[key]
        subjects = {url or atom, atom}
        effect, rule, obligations = "allow", None, []
        for i, r in enumerate(self.model.rules):
            if not any(self.covers(i, s) for s in subjects):
                continue
            if not all(any(matches(t, l) for l in labels) for t in r.triggers):
                continue
            if SEVERITY[r.effect] > SEVERITY[effect] or rule is None and r.effect == effect:
                effect, rule = r.effect, r.name
            obligations.extend((f, o, r.name) for f, o in r.obligations)
        self._decisions[key] = (effect, rule, tuple(obligations))
        return self._decisions[key]


def _service_atom(stmt: tuple) -> str | None:
    return stmt[1] if stmt[0] in ("from", "to", "bean") else None


# ---------------------------------------------------------------------------
# Dynamic enforcement: one message.
# ---------------------------------------------------------------------------


class _Stop(Exception):
    def __init__(self, status, at, rule):
        self.outcome = (status, at, rule, None)


def condition_holds(cond: tuple, props: dict, policy: PolicyModel) -> bool:
    kind = cond[0]
    if kind == "prop_eq":
        return props.get(cond[1]) == cond[2]
    if kind == "lt":
        return props[cond[1]] < cond[2]
    if kind == "has_prop":
        svc = policy.service(props[cond[1]])
        return svc is not None and cond[2] in svc.properties
    raise ValueError(cond)


def enforce_outcome(route: RouteModel, ref: PolicyRef, props: dict, taken=None):
    """(status, at_statement, rule, final labels as sorted label tuples).

    ``taken``, when given, collects (statement, branch) for every choice.
    """

    def run(n, labels, stop):
        while n is not None and n != stop:
            st = route.stmts[n]
            kind = st[0]
            nxt = route.succ[n][0] if route.succ[n] else None
            if kind in ("to", "bean"):
                url = route.endpoints.get(st[1])
                effect, rule, obligations = ref.decide(st[1], url, labels)
                for functor, otherwise, ob_rule in obligations:
                    if not OBLIGATION_OK[functor]:
                        effect, rule = otherwise, ob_rule
                        break
                if effect == "drop":
                    raise _Stop("dropped", n, rule)
                if effect == "error":
                    raise _Stop("errored", n, rule)
                labels = ref.transform(labels, st[1], url)
                n = nxt
            elif kind == "choice":
                hold = condition_holds(st[1], props, ref.model)
                if taken is not None:
                    taken.add((n, hold))
                n = st[2] if hold else st[3]
            elif kind == "split":
                join = route.joins[n]
                arrived = [run(b, labels, join) for b in route.succ[n]]
                labels = frozenset().union(*arrived)
                n = route.succ[join][0] if route.succ[join] else None
            else:
                n = nxt
        return labels

    entry = route.entry
    src = route.stmts[entry][1]
    _, creates = ref.transforms(src, route.endpoints.get(src))
    try:
        succ = route.succ[entry]
        labels = run(succ[0], frozenset(creates), None) if succ else frozenset(creates)
    except _Stop as stop:
        return stop.outcome
    return ("completed", None, None, tuple(sorted(labels)))


# ---------------------------------------------------------------------------
# Static verification: the set of (rule, statement) violations.
# ---------------------------------------------------------------------------


def check_violations(route: RouteModel, ref: PolicyRef) -> set:
    """Every (effect rule, statement) with a reachable violating arrival."""
    violations: set = set()
    seen_checks: set = set()
    summaries: dict = {}

    def visit(n, labels):
        st = route.stmts[n]
        if st[0] not in ("to", "bean") or (n, labels) in seen_checks:
            return
        seen_checks.add((n, labels))
        effect, rule, _ = ref.decide(st[1], route.endpoints.get(st[1]), labels)
        if effect in ("drop", "error"):
            violations.add((rule or "default_deny", n))

    def exits(start, labels, stop) -> frozenset:
        """Distinct label sets leaving the region [start, stop)."""
        key = (start, labels, stop)
        if key in summaries:
            return summaries[key]
        out = set()
        seen = set()
        work = [(start, labels)]
        while work:
            n, lab = work.pop()
            if (n, lab) in seen:
                continue
            seen.add((n, lab))
            st = route.stmts[n]
            visit(n, lab)
            if st[0] == "choice":
                nexts = [(st[2], lab), (st[3], lab)]
            elif st[0] == "split":
                join = route.joins[n]
                per_branch = [
                    exits(b, lab, join) if b != join else frozenset([lab])
                    for b in route.succ[n]
                ]
                nexts = [
                    (join, frozenset().union(*combo)) for combo in product(*per_branch)
                ]
            else:
                if st[0] in ("to", "bean"):
                    lab = ref.transform(lab, st[1], route.endpoints.get(st[1]))
                elif st[0] == "from":
                    lab = ref.transforms(st[1], route.endpoints.get(st[1]))[1]
                nexts = [(s, lab) for s in route.succ[n]]
                if not route.succ[n]:
                    out.add(lab)
            for s, l in nexts:
                if s == stop:
                    out.add(l)
                else:
                    work.append((s, l))
        summaries[key] = frozenset(out)
        return summaries[key]

    exits(route.entry, frozenset(), None)
    return violations


def node_names(route: RouteModel) -> dict:
    """Statement number -> node name as counterexample traces print it."""
    kind_names = {"split": "split", "aggregate": "aggr", "choice": "choice"}
    names, used = {}, {}
    for n, st in route.stmts.items():
        base = _service_atom(st) or kind_names[st[0]]
        used[base] = used.get(base, 0) + 1
        names[n] = base if used[base] == 1 else f"{base}{used[base]}"
    return names


def expected_check(route: RouteModel, ref: PolicyRef) -> tuple:
    """(exit code, frozenset of (rule, violating node name))."""
    names = node_names(route)
    pairs = frozenset((rule, names[n]) for rule, n in check_violations(route, ref))
    return (1 if pairs else 0, pairs)
