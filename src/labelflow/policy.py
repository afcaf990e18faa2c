"""Policy DSL: lexer, parser, validator, and canonical printer.

A policy document declares services (their endpoint pattern, properties,
capabilities, and taint propagation as ``creates_label`` / ``removes_label``
lists) and flow rules (``when <service> receives <labels> decide <effect>``
with optional obligations). Files use the ``.lucon`` extension, UTF-8, and
``//`` line comments.

Example::

    service {
      id sensor
      endpoint "sensor://.+"
      creates_label raw
    }

    flow_rule {
      id dontPublishRaw
      when service { endpoint "http[s]?://.+" } receives raw
      decide drop
        require log("Preventing data leak. ", message) otherwise error
    }

Inline service declarations are hoisted to top-level services with a
deterministic generated id, so parse(format(ast)) is the identity on valid
ASTs. The id is derived from the parsed sections, so hoisting builds one
declaration per inline service.

Validating an endpoint costs one ``regex_prefix`` match when the pattern
lies in that recognizer's subset, and compiles nothing; only a pattern
outside the subset is compiled to be validated. Such a pattern is compiled
later, at most once per AST, when coverage first meets a target that its
literal prefix admits.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .kernel import is_ground
from .terms import (
    RegexError,
    Str,
    Term,
    TermSyntaxError,
    Tokenizer,
    compile_regex,
    format_term,
    parse_term_from,
    regex_prefix,
)

EFFECTS = ("allow", "drop", "error")

# Service-block sections that hold a term list, in ServiceDecl field order.
_TERM_LISTS = ("properties", "capabilities", "creates_label", "removes_label")
# Service-block section -> kind of its one value token, or None for a term
# list. A STR token's text is its decoded value.
_SERVICE_SECTIONS = {"id": "ATOM", "endpoint": "STR", **dict.fromkeys(_TERM_LISTS)}
_SECTION_KEYWORDS = frozenset(_SERVICE_SECTIONS).union(
    ["when", "receives", "decide", "require", "otherwise", "service", "flow_rule"]
)


class ValidationError(Exception):
    """Structurally well-formed policy text violating a document invariant."""


@dataclass(frozen=True, slots=True)
class ServiceDecl:
    id: str
    endpoint: str
    properties: tuple = ()
    capabilities: tuple = ()
    creates_labels: tuple = ()
    removes_labels: tuple = ()


@dataclass(frozen=True, slots=True)
class Obligation:
    action: Term
    otherwise: str = "error"  # fail-safe default


@dataclass(frozen=True, slots=True)
class Decision:
    effect: str
    obligations: tuple = ()


@dataclass(frozen=True, slots=True)
class FlowRule:
    name: str
    target: str  # id of a declared service
    trigger_labels: tuple = ()
    decision: Decision = Decision("allow")
    # trigger_labels split into ground ones and one-way patterns; compiled by
    # the decision point on the rule's first scan, not at parse time
    trigger_tests: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(frozen=True, slots=True)
class PolicyAst:
    services: tuple = ()
    rules: tuple = ()
    # endpoint text -> literal prefix, filled by ``endpoint_prefix``
    endpoint_prefixes: dict = field(default_factory=dict, compare=False, repr=False)
    # endpoint text -> compiled regex, filled by ``endpoint_regex``
    endpoint_regexes: dict = field(default_factory=dict, compare=False, repr=False)

    def service(self, sid: str) -> ServiceDecl:
        for s in self.services:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def endpoint_prefix(self, endpoint: str) -> str:
        """The literal prefix of every URL ``endpoint`` matches; validates it.

        A pattern inside ``regex_prefix``'s subset costs one recognizer
        match and is not compiled. Any other pattern is compiled, so an
        invalid one raises ``RegexError``, and its prefix is empty.
        """
        prefix = self.endpoint_prefixes.get(endpoint)
        if prefix is None:
            prefix = regex_prefix(endpoint)
            if prefix is None:
                # Compiled here, not through ``endpoint_regex``, so that ``re``
                # meets the recursion limit at the depth it always has.
                self.endpoint_regexes[endpoint] = compile_regex(endpoint)
                prefix = ""
            self.endpoint_prefixes[endpoint] = prefix
        return prefix

    def endpoint_regex(self, endpoint: str) -> re.Pattern:
        """``endpoint`` compiled at most once per AST, on first use.

        Memoised on the AST by endpoint text, not by service id, so an AST
        derived with ``dataclasses.replace`` never reads a stale pattern.
        """
        pattern = self.endpoint_regexes.get(endpoint)
        if pattern is None:
            pattern = self.endpoint_regexes[endpoint] = compile_regex(endpoint)
        return pattern


def generated_service_id(
    endpoint: str, properties=(), capabilities=(), creates_labels=(), removes_labels=()
) -> str:
    """Stable id for an inline service declaration, derived from its content."""
    basis = "|".join(
        [
            endpoint,
            ",".join(map(format_term, properties)),
            ",".join(map(format_term, capabilities)),
            ",".join(map(format_term, creates_labels)),
            ",".join(map(format_term, removes_labels)),
        ]
    )
    digest = hashlib.sha1(basis.encode()).hexdigest()
    return f"service{int(digest[:10], 16) % 10**8:08d}"


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


class _PolicyParser:
    def __init__(self, text: str):
        self.tok = Tokenizer(text, comment="//")
        # An insertion-ordered set, so identical inline declarations
        # collapse to one hoisted service in constant time.
        self.services: dict[ServiceDecl, None] = {}
        self.rules: list[FlowRule] = []
        self._anon_rules = 0

    def parse(self) -> PolicyAst:
        tok = self.tok
        while tok.peek().kind != "EOF":
            if tok.at_keyword("service"):
                self.services.setdefault(self._parse_service())
            elif tok.at_keyword("flow_rule"):
                self.rules.append(self._parse_rule())
            else:
                t = tok.peek()
                raise TermSyntaxError(
                    f"expected 'service' or 'flow_rule', found {t.text or t.kind!r}",
                    *tok.position(tok.index),
                )
        ast = PolicyAst(tuple(self.services), tuple(self.rules))
        validate_policy(ast)
        return ast

    def _parse_service(self) -> ServiceDecl:
        tok = self.tok
        tok.next("ATOM", "service")
        tok.next("PUNCT", "{")
        sections: dict[str, object] = {}
        while True:
            at = tok.index
            t = tok.next()
            word = t.text
            kind = t.kind
            if kind == "ATOM" and word in _SERVICE_SECTIONS:
                value_kind = _SERVICE_SECTIONS[word]
                if value_kind is None:
                    sections[word] = self._parse_term_list()
                else:
                    sections[word] = tok.next(value_kind).text
            elif kind == "PUNCT" and word == "}":
                break
            else:
                raise TermSyntaxError(
                    f"unexpected token in service block: {word or kind!r}",
                    *tok.position(at),
                )
        endpoint = sections.get("endpoint")
        if endpoint is None:
            raise TermSyntaxError(
                "service block missing endpoint", *tok.position(tok.index)
            )
        lists = [sections.get(section, ()) for section in _TERM_LISTS]
        sid = sections.get("id")
        if sid is None:
            sid = generated_service_id(endpoint, *lists)
        return ServiceDecl(sid, endpoint, *lists)

    def _parse_term_list(self) -> tuple:
        terms = [self._parse_term()]
        while self.tok.accept("PUNCT", ","):
            terms.append(self._parse_term())
        return tuple(terms)

    def _parse_term(self) -> Term:
        # Bare section keywords terminate lists, so a list element may not
        # be a keyword atom unless it takes arguments.
        tok = self.tok
        t = tok.peek()
        if t.kind == "ATOM" and t.text in _SECTION_KEYWORDS:
            after = tok.tokens[tok.index + 1]  # an ATOM is never the last token
            if after.kind != "PUNCT" or after.text != "(":
                raise TermSyntaxError(
                    f"keyword {t.text!r} cannot start a term", *tok.position(tok.index)
                )
        return parse_term_from(tok)

    def _effect(self) -> str:
        at = self.tok.index
        t = self.tok.next("ATOM")
        if t.text not in EFFECTS:
            raise TermSyntaxError(f"unknown effect {t.text!r}", *self.tok.position(at))
        return t.text

    def _parse_rule(self) -> FlowRule:
        tok = self.tok
        tok.next("ATOM", "flow_rule")
        tok.next("PUNCT", "{")
        name = None
        if tok.accept("ATOM", "id"):
            name = tok.next("ATOM").text
        tok.next("ATOM", "when")
        if tok.at_keyword("service"):
            target_decl = self._parse_service()
            self.services.setdefault(target_decl)
            target = target_decl.id
        else:
            target = tok.next("ATOM").text
        tok.next("ATOM", "receives")
        triggers = self._parse_term_list()
        tok.next("ATOM", "decide")
        effect = self._effect()
        obligations = []
        while tok.accept("ATOM", "require"):
            action = self._parse_term()
            otherwise = self._effect() if tok.accept("ATOM", "otherwise") else "error"
            obligations.append(Obligation(action, otherwise))
        tok.next("PUNCT", "}")
        if name is None:
            self._anon_rules += 1
            name = f"rule{self._anon_rules}"
        return FlowRule(name, target, triggers, Decision(effect, tuple(obligations)))


def parse_policy(text: str) -> PolicyAst:
    """Parse and validate a policy document."""
    return _PolicyParser(text).parse()


def validate_policy(ast: PolicyAst) -> None:
    seen_services: set[str] = set()
    for s in ast.services:
        if not s.id:
            raise ValidationError("service declaration without id")
        if s.id in seen_services:
            raise ValidationError(f"duplicate service id {s.id!r}")
        seen_services.add(s.id)
        try:
            ast.endpoint_prefix(s.endpoint)
        except RegexError as exc:
            raise ValidationError(
                f"service {s.id!r} has an invalid endpoint regex: {exc}"
            ) from exc
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
    seen_rules: set[str] = set()
    for r in ast.rules:
        if r.name in seen_rules:
            raise ValidationError(f"duplicate rule name {r.name!r}")
        seen_rules.add(r.name)
        if r.target not in seen_services:
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


# ---------------------------------------------------------------------------
# Canonical printing.
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    return format_term(Str(s))


def format_policy(ast: PolicyAst) -> str:
    """Canonical text; parse_policy(format_policy(ast)) == ast."""
    lines = ["// labelflow policy"]
    for s in ast.services:
        lines.append("")
        lines.append("service {")
        lines.append(f"  id {s.id}")
        lines.append(f"  endpoint {_quote(s.endpoint)}")
        for kw, terms in (
            ("properties", s.properties),
            ("capabilities", s.capabilities),
            ("creates_label", s.creates_labels),
            ("removes_label", s.removes_labels),
        ):
            if terms:
                lines.append(f"  {kw} " + ", ".join(format_term(t) for t in terms))
        lines.append("}")
    for r in ast.rules:
        lines.append("")
        lines.append("flow_rule {")
        lines.append(f"  id {r.name}")
        lines.append(
            f"  when {r.target} receives "
            + ", ".join(format_term(t) for t in r.trigger_labels)
        )
        lines.append(f"  decide {r.decision.effect}")
        for ob in r.decision.obligations:
            lines.append(
                f"    require {format_term(ob.action)} otherwise {ob.otherwise}"
            )
        lines.append("}")
    return "\n".join(lines) + "\n"
