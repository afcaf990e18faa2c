"""Compilation of a policy AST into lookup tables and Horn clauses.

``compile_policy`` builds the tables that the decision point, the label
transforms and the verifier read: rules and services by name and each
service's endpoint, as its literal prefix and its text. Compiling the policy
compiles no regex. Coverage tests a target against an endpoint's prefix
first, and compiles the endpoint, once per AST, only on the first target
that the prefix admits. The Horn-clause knowledge base is read
only by route choice conditions and by ``labelflow compile``, so it is built
from ``policy_clauses`` on the first read of ``CompiledPolicy.kb``.

Every rule R produces the fact family ``rule(R)``, ``has_target(R,S)``,
``receives_label(R,L)`` per trigger, ``has_decision(R,D)``,
``has_effect(D,E)``, ``has_obligation(D,O)`` per obligation; every service S
produces ``service(S)``, ``has_endpoint(S,Regex)``, ``has_property(S,P)``,
``creates_label(S,L)`` and ``removes_label(S,L)``. Decision node ids are
derived deterministically from rule names (``dec_<rule>``) so compiled
bases diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .engine import Clause, KnowledgeBase, default_builtins, format_program
from .kernel import label_test
from .policy import PolicyAst
from .terms import Atom, Compound, Str, Term


@dataclass(frozen=True)
class CompiledPolicy:
    ast: PolicyAst
    rule_index: dict  # rule name -> FlowRule, declaration order
    service_index: dict  # service id -> ServiceDecl, declaration order
    endpoint_patterns: dict  # service id -> (literal prefix, endpoint text)
    # (service atom, route URL) -> Coverage: the covering declarations' ids
    # and the rules that target them
    covering: dict = field(default_factory=dict, compare=False, repr=False)

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


def compile_policy(ast: PolicyAst) -> CompiledPolicy:
    """Lookup tables of a validated AST; clauses wait for the first ``kb`` read."""
    return CompiledPolicy(
        ast=ast,
        rule_index={r.name: r for r in ast.rules},
        service_index={s.id: s for s in ast.services},
        endpoint_patterns={
            s.id: (ast.endpoint_prefix(s.endpoint), s.endpoint) for s in ast.services
        },
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
        and cp.ast.endpoint_regex(endpoint).fullmatch(target) is not None
    )


class Coverage(tuple):
    """Ids of the declarations covering one service, in declaration order.

    ``rules`` is the service's rule plan: the rules whose target is one of
    these ids, in rule declaration order. No other rule covers the service,
    so ``decide`` scans only the plan. ``triggers`` holds each planned
    rule's ``kernel.label_test``. ``transforms`` is the service's
    ``(removes, creates)``: the union of these declarations' label sets.
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
    the URL and the AST holds no compiled copy yet.
    Two threads racing on a new key at worst build two equal entries.
    """
    key = (atom, url)
    cov = cp.covering.get(key)
    if cov is None:
        regex = cp.ast.endpoint_regex
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
            frozenset(l for d in decls for l in d.removes_labels),
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
