"""Compilation of a policy AST into lookup tables and Horn clauses.

``compile_policy`` is the one gate between a policy AST and decisions. It
checks the document invariants and the default effect, and raises
``ValidationError`` or ``ValueError`` before anything reads the policy, so
an AST built by hand meets the same checks as a parsed one. The
``CompiledPolicy`` it returns owns every table derived from the AST and the
default effect; nothing after it checks the policy again.

The tables are the ones that the decision point, the label transforms and
the verifier read: rules and services by name and each service's endpoint,
as its literal prefix and its text. The pass that checks the services also
computes each endpoint's prefix: one ``regex_prefix`` match when the
pattern lies in that function's subset, compiling nothing; only a pattern
outside the subset is compiled, to be checked. Coverage tests a target
against an endpoint's prefix first, and compiles the endpoint, once per
compiled policy, only on the first target that the prefix admits. The
Horn-clause knowledge base is read only by route choice conditions and by
``labelflow compile``, so it is built from ``policy_clauses`` on the first
read of ``CompiledPolicy.kb``.

Every rule R produces the fact family ``rule(R)``, ``has_target(R,S)``,
``receives_label(R,L)`` per trigger, ``has_decision(R,D)``,
``has_effect(D,E)``, ``has_obligation(D,O)`` per obligation; every service S
produces ``service(S)``, ``has_endpoint(S,Regex)``, ``has_property(S,P)``,
``creates_label(S,L)`` and ``removes_label(S,L)``. Decision node ids are
derived deterministically from rule names (``dec_<rule>``) so compiled
bases diff cleanly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .engine import Clause, KnowledgeBase, default_builtins, format_program
from .kernel import LabelTerms, is_ground, label_test
from .policy import EFFECTS, PolicyAst, ValidationError
from .terms import (
    Atom,
    Compound,
    RegexError,
    Str,
    Term,
    compile_regex,
    format_term,
    regex_prefix,
)


@dataclass(frozen=True)
class CompiledPolicy:
    ast: PolicyAst
    rule_index: dict  # rule name -> FlowRule, declaration order
    service_index: dict  # service id -> ServiceDecl, declaration order
    endpoint_patterns: dict  # service id -> (literal prefix, endpoint text)
    default_effect: str  # the effect of a request that no rule matches
    # (service atom, route URL) -> Coverage: the covering declarations' ids
    # and the rules that target them
    covering: dict = field(default_factory=dict, compare=False, repr=False)
    # endpoint text -> compiled regex, filled by ``endpoint_regex``
    endpoint_regexes: dict = field(default_factory=dict, compare=False, repr=False)

    def endpoint_regex(self, endpoint: str) -> re.Pattern:
        """``endpoint`` compiled at most once per compiled policy, on first use.

        Memoised by endpoint text, so declarations that share an endpoint
        share its compiled pattern.
        """
        pattern = self.endpoint_regexes.get(endpoint)
        if pattern is None:
            pattern = self.endpoint_regexes[endpoint] = compile_regex(endpoint)
        return pattern

    @cached_property
    def kb(self) -> KnowledgeBase:
        """The policy's Horn clauses, built and indexed on the first read.

        Later reads return the same base. Building is deterministic, so two
        threads racing on the first read (``cached_property`` takes no lock
        on Python 3.12+) at worst build two equal bases.
        """
        return KnowledgeBase(policy_clauses(self.ast), default_builtins())


def _fact(functor: str, *args: Term) -> Clause:
    return Clause(Compound(functor, tuple(args)) if args else Atom(functor))


def policy_clauses(ast: PolicyAst) -> list[Clause]:
    """Deterministic translation of a validated AST into facts."""
    clauses: list[Clause] = []
    for s in ast.services:
        sid = Atom(s.id)
        clauses.append(_fact("service", sid))
        clauses.append(_fact("has_endpoint", sid, Str(s.endpoint)))
        for p in s.properties:
            clauses.append(_fact("has_property", sid, p))
        for c in s.capabilities:
            clauses.append(_fact("has_capability", sid, c))
        for l in s.creates_labels:
            clauses.append(_fact("creates_label", sid, l))
        for l in s.removes_labels:
            clauses.append(_fact("removes_label", sid, l))
    for r in ast.rules:
        rid = Atom(r.name)
        dec = Atom(f"dec_{r.name}")
        clauses.append(_fact("rule", rid))
        clauses.append(_fact("has_target", rid, Atom(r.target)))
        for l in r.trigger_labels:
            clauses.append(_fact("receives_label", rid, l))
        clauses.append(_fact("has_decision", rid, dec))
        clauses.append(_fact("has_effect", dec, Atom(r.decision.effect)))
        for ob in r.decision.obligations:
            clauses.append(_fact("has_obligation", dec, ob.action))
    return clauses


def compile_policy(ast: PolicyAst, default_effect: str = "allow") -> CompiledPolicy:
    """The checked lookup tables of ``ast``; clauses wait for the first ``kb`` read.

    A default effect outside ``EFFECTS`` raises ``ValueError``, and an AST
    that breaks a document invariant raises ``ValidationError``.
    """
    if default_effect not in EFFECTS:
        raise ValueError(f"unknown default effect {default_effect!r}")
    regexes: dict = {}
    patterns: dict = {}
    for s in ast.services:
        if not s.id:
            raise ValidationError("service declaration without id")
        if s.id in patterns:
            raise ValidationError(f"duplicate service id {s.id!r}")
        prefix = regex_prefix(s.endpoint)
        if prefix is None:
            # Outside ``regex_prefix``'s subset: compiled to be checked, and
            # kept for coverage; the prefix is empty.
            try:
                regexes[s.endpoint] = compile_regex(s.endpoint)
            except RegexError as exc:
                raise ValidationError(
                    f"service {s.id!r} has an invalid endpoint regex: {exc}"
                ) from exc
            prefix = ""
        patterns[s.id] = (prefix, s.endpoint)
        for label in s.creates_labels:
            if not is_ground(label):
                raise ValidationError(
                    f"service {s.id!r} creates non-ground label {format_term(label)}"
                )
        overlap = set(s.creates_labels) & set(s.removes_labels)
        if overlap:
            names = ", ".join(sorted(format_term(t) for t in overlap))
            raise ValidationError(
                f"service {s.id!r} both creates and removes label(s) {names}"
            )
    rule_index: dict = {}
    for r in ast.rules:
        if r.name in rule_index:
            raise ValidationError(f"duplicate rule name {r.name!r}")
        if r.target not in patterns:
            raise ValidationError(
                f"rule {r.name!r} targets undeclared service {r.target!r}"
            )
        if not r.trigger_labels:
            raise ValidationError(f"rule {r.name!r} has no trigger labels")
        if r.decision.effect not in EFFECTS:
            raise ValidationError(
                f"rule {r.name!r} has unknown effect {r.decision.effect!r}"
            )
        for ob in r.decision.obligations:
            if ob.otherwise not in EFFECTS:
                raise ValidationError(
                    f"rule {r.name!r} obligation has unknown otherwise effect"
                )
        rule_index[r.name] = r
    return CompiledPolicy(
        ast=ast,
        rule_index=rule_index,
        service_index={s.id: s for s in ast.services},
        endpoint_patterns=patterns,
        default_effect=default_effect,
        endpoint_regexes=regexes,
    )


def service_matches(cp: CompiledPolicy, decl_id: str, target: str) -> bool:
    """Does declared service ``decl_id`` cover ``target`` (URL or id)?

    The target must start with the endpoint's literal prefix before the
    endpoint is compiled and matched.
    """
    if decl_id == target:
        return True
    entry = cp.endpoint_patterns.get(decl_id)
    if entry is None:
        return False
    prefix, endpoint = entry
    return (
        target.startswith(prefix)
        and cp.endpoint_regex(endpoint).fullmatch(target) is not None
    )


class Coverage(tuple):
    """Ids of the declarations covering one service, in declaration order.

    ``rules`` is the service's rule plan: the rules whose target is one of
    these ids, in rule declaration order. No other rule covers the service,
    so ``decide`` scans only the plan. ``triggers`` holds each planned
    rule's ``kernel.label_test``. ``transforms`` is the service's
    ``(removes, creates)``: the union of these declarations' label sets.
    The removes are a ``kernel.LabelTerms``, so their label test is built
    once per coverage, not on every transform.
    """

    rules: tuple
    triggers: tuple
    transforms: tuple


def covering_declarations(
    cp: CompiledPolicy, atom: str, url: str | None = None
) -> Coverage:
    """Ids of the declarations covering a service, with its plan and transforms.

    A declaration covers the service when it matches the service's atom or,
    when the route gives one, its endpoint URL. The ids, the plan and the
    transforms (see ``Coverage``) are memoised together per (atom, url) on
    the compiled policy, so the runtime and the verifier share one answer
    and each key pays one pass over the services and one over the rules.
    That pass compiles an endpoint only when its prefix admits the atom or
    the URL and the compiled policy holds no compiled copy yet.
    Two threads racing on a new key at worst build two equal entries.
    """
    key = (atom, url)
    cov = cp.covering.get(key)
    if cov is None:
        regex = cp.endpoint_regex
        # ``service_matches`` of the atom, then of the URL, inlined: each
        # endpoint is tried at most once on each.
        cov = Coverage(
            sid
            for sid, (prefix, endpoint) in cp.endpoint_patterns.items()
            if sid == atom
            or (
                atom.startswith(prefix)
                and regex(endpoint).fullmatch(atom) is not None
            )
            or (
                url is not None
                and (
                    sid == url
                    or (
                        url.startswith(prefix)
                        and regex(endpoint).fullmatch(url) is not None
                    )
                )
            )
        )
        targets = set(cov)
        cov.rules = tuple(r for r in cp.rule_index.values() if r.target in targets)
        cov.triggers = tuple(label_test(r.trigger_labels) for r in cov.rules)
        decls = [cp.service_index[sid] for sid in cov]
        cov.transforms = (
            LabelTerms(l for d in decls for l in d.removes_labels),
            frozenset(l for d in decls for l in d.creates_labels),
        )
        cp.covering[key] = cov
    return cov


def resolve_transforms(
    cp: CompiledPolicy, atom: str, url: str | None = None
) -> tuple[frozenset, frozenset]:
    """Label transformation sets ``(removes, creates)`` for a service.

    ``atom`` may itself be a URL. Several covering declarations contribute
    the union of their sets; an uncovered service gets empty transforms.
    The pair is memoised on the service's ``Coverage``, so a repeat call
    returns the same object.
    """
    return covering_declarations(cp, atom, url).transforms


def emit_clauses(cp: CompiledPolicy) -> str:
    """Textual clause dump of the compiled policy (audit/inspection)."""
    return format_program(cp.kb.clauses)
