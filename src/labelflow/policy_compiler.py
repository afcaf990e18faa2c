"""Compilation of a policy AST into a Horn-clause knowledge base.

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

from .engine import Clause, KnowledgeBase, default_builtins, format_program
from .policy import PolicyAst
from .terms import Atom, Compound, Str, Term


@dataclass(frozen=True)
class CompiledPolicy:
    kb: KnowledgeBase
    ast: PolicyAst
    rule_index: dict  # rule name -> FlowRule, declaration order
    service_index: dict  # service id -> ServiceDecl, declaration order
    endpoint_patterns: dict  # service id -> compiled regex
    # (service atom, route URL) -> ids of the declarations covering it
    covering: dict = field(default_factory=dict, compare=False, repr=False)

    def decision_id(self, rule_name: str) -> str:
        return f"dec_{rule_name}"


def _fact(functor: str, *args: Term) -> Clause:
    return Clause(Compound(functor, tuple(args)) if args else Atom(functor))


def compile_policy(ast: PolicyAst) -> CompiledPolicy:
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
    kb = KnowledgeBase.from_clauses(clauses, default_builtins())
    return CompiledPolicy(
        kb=kb,
        ast=ast,
        rule_index={r.name: r for r in ast.rules},
        service_index={s.id: s for s in ast.services},
        endpoint_patterns={s.id: re.compile(s.endpoint) for s in ast.services},
    )


def service_matches(cp: CompiledPolicy, decl_id: str, target: str) -> bool:
    """Does declared service ``decl_id`` cover ``target`` (URL or id)?"""
    if decl_id == target:
        return True
    pattern = cp.endpoint_patterns.get(decl_id)
    return pattern is not None and pattern.fullmatch(target) is not None


def covering_declarations(
    cp: CompiledPolicy, atom: str, url: str | None = None
) -> tuple:
    """Ids of the declarations covering a service, in declaration order.

    A declaration covers the service when it matches the service's atom or,
    when the route gives one, its endpoint URL. Memoised per (atom, url) on
    the compiled policy, so the runtime and the verifier share one answer.
    """
    key = (atom, url)
    ids = cp.covering.get(key)
    if ids is None:
        ids = cp.covering[key] = tuple(
            sid
            for sid in cp.service_index
            if service_matches(cp, sid, atom)
            or (url is not None and service_matches(cp, sid, url))
        )
    return ids


def resolve_transforms(
    cp: CompiledPolicy, atom: str, url: str | None = None
) -> tuple[frozenset, frozenset]:
    """Label transformation sets for a service, by endpoint match or id.

    ``atom`` may itself be a URL. Several covering declarations contribute
    the union of their sets; an uncovered service gets empty transforms.
    """
    removes: set[Term] = set()
    creates: set[Term] = set()
    for sid in covering_declarations(cp, atom, url):
        decl = cp.service_index[sid]
        removes.update(decl.removes_labels)
        creates.update(decl.creates_labels)
    return frozenset(removes), frozenset(creates)


def emit_clauses(cp: CompiledPolicy) -> str:
    """Textual clause dump of the compiled policy (audit/inspection)."""
    return format_program(cp.kb.clauses)
