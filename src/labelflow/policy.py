"""Policy DSL: lexer, parser and canonical printer.

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
declaration per inline service. A block whose generated 8-digit id is held
by a different declaration, one with that ``id`` anywhere in the document
or an earlier inline one, gets a 20-digit id from the same digest instead.

Parsing tries a block recognizer first: one compiled pattern, matched once
per top-level ``service`` or ``flow_rule`` block, that captures the
block's fields; only term lists are split in Python. Its subset holds the
``id``, ``endpoint``, ``properties``, ``capabilities``, ``creates_label``
and ``removes_label`` sections in any order (a repeated section's last
occurrence wins), inline ``when service { ... }`` targets, ``require T
[otherwise E]`` obligations, and terms that are a leaf or a one-level
compound of leaves. A leaf is an atom or variable that starts with an
ASCII letter or ``_``, an integer of ASCII digits, or a string without
escapes. A document inside the subset costs one match per block, one
Python step per distinct term list, and no ``Tokenizer``. If any block
lies outside the subset, the token parser parses the whole text instead,
at one ``Tokenizer.next`` per token, after the recognizer's matches up to
that block. So every syntax error comes from the token parser, with its
message, line and column. Both paths share hoisting and rule numbering, so
they build equal ASTs. Parsing checks no document invariant:
``policy_compiler.compile_policy`` validates the AST, once, before any
decision reads it.
"""

from __future__ import annotations

import hashlib
import re
from itertools import count
from typing import NamedTuple

from .terms import (
    Atom,
    Compound,
    Int,
    Str,
    Term,
    TermSyntaxError,
    Tokenizer,
    Var,
    format_term,
    parse_term_from,
)

# The flow-rule effects in restrictiveness order, least restrictive first:
# a decision takes the last of them that a matched rule names.
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
    """A policy AST violating a document invariant; ``compile_policy`` checks
    them."""


class ServiceDecl(NamedTuple):
    id: str
    endpoint: str
    properties: tuple = ()
    capabilities: tuple = ()
    creates_labels: tuple = ()
    removes_labels: tuple = ()


class Obligation(NamedTuple):
    action: Term
    otherwise: str = "error"  # fail-safe default


class Decision(NamedTuple):
    effect: str
    obligations: tuple = ()


class FlowRule(NamedTuple):
    name: str
    target: str  # id of a declared service
    trigger_labels: tuple = ()
    decision: Decision = Decision("allow")


class PolicyAst(NamedTuple):
    services: tuple = ()
    rules: tuple = ()


# C-level constructor: builds a record without NamedTuple's Python
# ``__new__``, so parsing runs no Python code per service, rule, decision
# or obligation. Equality of these records ignores their type, as tuple
# equality does, but no two of them can hold equal fields: ServiceDecl has
# six and FlowRule four, and of the two-field records Decision starts with
# a str, Obligation with a term and PolicyAst with a tuple.
_new_record = tuple.__new__


def generated_service_id(
    endpoint: str,
    properties=(),
    capabilities=(),
    creates_labels=(),
    removes_labels=(),
    *,
    digits: int = 8,
) -> str:
    """Stable id for an inline service declaration, derived from its content.

    The id is ``service`` and ``digits`` decimal digits of one SHA-1 of the
    declaration; hoisting asks for 20 digits when the 8-digit id is taken.
    """
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
    return f"service{int(digest[: digits + 2], 16) % 10**digits:0{digits}d}"


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


class _Document:
    """What both parsers share: hoisting service declarations, numbering
    anonymous rules, and building the AST."""

    def __init__(self):
        # An insertion-ordered set, so identical declarations collapse to
        # one service in constant time; an id-less block's declaration maps
        # to its term lists, any other to None.
        self.services: dict[ServiceDecl, tuple | list | None] = {}
        self.rules: list[tuple] = []  # ``rule``'s arguments
        self._anon_rules = 0

    def declare(self, sid: str | None, endpoint: str, lists) -> str | ServiceDecl:
        """Hoist one service block, top-level or inline, with its term lists
        in ``_TERM_LISTS`` order. Return what a rule names it by: its id, or
        for a block without one, its declaration, whose id ``ast`` settles.
        """
        if sid is None:
            sid = generated_service_id(endpoint, *lists)
            decl = _new_record(ServiceDecl, (sid, endpoint, *lists))
            self.services.setdefault(decl, lists)
            return decl
        self.services[_new_record(ServiceDecl, (sid, endpoint, *lists))] = None
        return sid

    def rule(self, name: str | None, target, triggers: tuple, decision) -> None:
        if name is None:
            self._anon_rules += 1
        self.rules.append((name, target, triggers, decision))

    def ast(self) -> PolicyAst:
        """The AST, with the generated service ids settled (see the module
        docstring) and each anonymous rule named ``rule<n>``: the n-th, in
        document order, of the names that no rule's ``id`` holds."""
        held = {d.id: d for d, lists in self.services.items() if lists is None}
        longer = {}  # declaration -> the same with the longer id
        for decl, lists in self.services.items():
            # Keys are distinct, so another holder is a different declaration.
            if lists is not None and held.setdefault(decl.id, decl) is not decl:
                sid = generated_service_id(decl.endpoint, *lists, digits=20)
                longer[decl] = _new_record(ServiceDecl, (sid, decl.endpoint, *lists))
        services, rules = self.services, self.rules
        if longer:
            services = dict.fromkeys(longer.get(d, d) for d in services)
            rules = [(n, longer.get(t, t), *rest) for n, t, *rest in rules]
        fresh = None
        if self._anon_rules:
            held_names = {rule[0] for rule in rules}
            fresh = (n for i in count(1) if (n := f"rule{i}") not in held_names)
        rules = tuple(
            _new_record(
                FlowRule,
                (name or next(fresh), t if type(t) is str else t.id, triggers, decision),
            )
            for name, t, triggers, decision in rules
        )
        return _new_record(PolicyAst, (tuple(services), rules))


class _PolicyParser(_Document):
    """The token parser: it reads the whole language and raises every
    syntax error with its message, line and column. It consumes each token
    with one ``Tokenizer.next``."""

    def __init__(self, text: str):
        super().__init__()
        self.tok = Tokenizer(text, comment="//")

    def parse(self) -> PolicyAst:
        tok = self.tok
        while tok.peek().kind != "EOF":
            if tok.at_keyword("service"):
                self._parse_service()
            elif tok.at_keyword("flow_rule"):
                self._parse_rule()
            else:
                t = tok.peek()
                raise TermSyntaxError(
                    f"expected 'service' or 'flow_rule', found {t.text or t.kind!r}",
                    *tok.position(tok.index),
                )
        return self.ast()

    def _parse_service(self) -> str | ServiceDecl:
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
        return self.declare(sections.get("id"), endpoint, lists)

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

    def _parse_rule(self) -> None:
        tok = self.tok
        tok.next("ATOM", "flow_rule")
        tok.next("PUNCT", "{")
        name = None
        if tok.accept("ATOM", "id"):
            name = tok.next("ATOM").text
        tok.next("ATOM", "when")
        if tok.at_keyword("service"):
            target = self._parse_service()
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
            obligations.append(_new_record(Obligation, (action, otherwise)))
        tok.next("PUNCT", "}")
        decision = _new_record(Decision, (effect, tuple(obligations)))
        self.rule(name, target, triggers, decision)


# The block recognizer's subset of the language, as pieces of one pattern.
# Each name, integer and keyword must end where the tokenizer's lexeme ends
# (``(?!\w)``), so no match splits a lexeme. A name starts with an ASCII
# letter or ``_``, whose case decides ATOM or VAR as the tokenizer's first
# character does; an integer has ASCII digits; a string has no escapes.
# ``_S`` skips what the tokenizer skips: whitespace and ``//`` comments. A
# comment runs to the end of its line, also when a match backtracks.
_S = r"\s*(?:(?=/)(?://[^\n]*(?![^\n])\s*)+|)"
_ATOM = r"[a-z]\w*(?!\w)"
_STR = r'"[^"\\]*"'
_LEAF = rf"(?:{_ATOM}|[A-Z_]\w*(?!\w)|-?[0-9]+(?!\w)|{_STR})"
_ARGS = rf"{_S}\({_S}{_LEAF}(?:{_S},{_S}{_LEAF})*{_S}\)"
_KEYWORD = rf"(?:{'|'.join(sorted(_SECTION_KEYWORDS))})(?!\w)"
# A list element or an obligation: a one-level compound of leaves, or a
# leaf that is not a bare section keyword.
_TERM = rf"(?:{_ATOM}{_ARGS}|(?!{_KEYWORD}){_LEAF})"
_LIST = rf"{_TERM}(?:{_S},{_S}{_TERM})*"
_EFFECT = rf"(?:{'|'.join(EFFECTS)})(?!\w)"
# A service block's sections, up to the end of the last one; groups: the
# last id, the last endpoint, and the last term-list section, if any.
_BODY = (
    rf"(?:{_S}(?:id(?!\w){_S}({_ATOM})|endpoint(?!\w){_S}({_STR})"
    rf"|((?:{'|'.join(_TERM_LISTS)})(?!\w){_S}{_LIST})))*"
)
# One match per top-level block: an optional rule head, then a service
# block (top-level, or a rule's inline target) or a rule's named target,
# then the rest of a rule if there was a head. Groups: 1 the head and 2 its
# id; 3 a service body and 4-6 its groups; 7 a named target; 8 the
# triggers, 9 the effect and 10 all the obligations.
_BLOCK = re.compile(
    rf"{_S}(flow_rule(?!\w){_S}\{{{_S}(?:id(?!\w){_S}({_ATOM}){_S})?when(?!\w){_S})?"
    rf"(?:service(?!\w){_S}\{{({_BODY}){_S}\}}|(?(1)(?!service(?!\w))({_ATOM})|(?!)))"
    rf"(?(1){_S}receives(?!\w){_S}({_LIST}){_S}decide(?!\w){_S}({_EFFECT})"
    rf"((?:{_S}require(?!\w){_S}{_TERM}(?:{_S}otherwise(?!\w){_S}{_EFFECT})?)*)"
    rf"{_S}\}})"
)
_SKIP = re.compile(_S)
# Split a span that ``_BLOCK`` has matched: a body into its sections (a
# list keyword and its list, or none), the obligations into (action,
# effect), and a term list or a compound's arguments into its terms
# (functor and arguments, or an atom, variable, integer or string). Each
# span ends where its last part ends, so the matches of ``findall`` follow
# each other with no gap and never start inside a comment.
_SECTIONS = re.compile(
    rf"{_S}(?:id{_S}{_ATOM}|endpoint{_S}{_STR}|(\w+){_S}({_LIST}))"
)
_OBLIGATIONS = re.compile(rf"{_S}require{_S}({_TERM})(?:{_S}otherwise{_S}(\w+))?")
_ITEMS = re.compile(
    rf"{_S},?{_S}(?:(\w+){_S}\(((?:{_S},?{_S}{_LEAF})+){_S}\)"
    rf'|([a-z]\w*)|([A-Z_]\w*)|(-?[0-9]+)|"([^"]*)")'
)
_NO_LISTS = ((),) * len(_TERM_LISTS)


class _OutsideSubset(Exception):
    """A matched block holds a term that the recognizer does not build."""


class _BlockRecognizer(_Document):
    """Parses a document inside the subset above with one ``_BLOCK`` match
    per top-level block; only term lists are split in Python. It builds
    nothing until every block has matched."""

    def __init__(self):
        super().__init__()
        self.atoms: dict[str, Atom] = {}  # one Atom per distinct name
        # term list text -> its terms; terms are immutable, so equal lists
        # share them, for this document only
        self.term_lists: dict[str, tuple] = {}

    def parse(self, text: str) -> PolicyAst | None:
        """The AST, or None if any block lies outside the subset."""
        try:
            return self._parse(text)
        except _OutsideSubset:
            return None

    def _parse(self, text: str) -> PolicyAst | None:
        match = _BLOCK.match
        blocks = []
        pos = 0
        while (m := match(text, pos)) is not None:
            if not (m[5] or m[7]):
                # Neither a body's endpoint nor a named target: the token
                # parser reports the service body that lacks an endpoint.
                return None
            blocks.append(m)
            pos = m.end()
        if _SKIP.fullmatch(text, pos) is None:
            return None
        for m in blocks:
            (
                head,
                name,
                body,
                sid,
                endpoint,
                last_list,
                target,
                triggers,
                effect,
                obligations,
            ) = m.groups()
            if body is not None:
                target = self._service(body, sid, endpoint, last_list)
            if head is None:
                continue
            actions = ()
            if obligations:
                actions = tuple(
                    _new_record(
                        Obligation, (self._terms(action)[0], otherwise or "error")
                    )
                    for action, otherwise in _OBLIGATIONS.findall(obligations)
                )
            decision = _new_record(Decision, (effect, actions))
            self.rule(name, target, self._terms(triggers), decision)
        return self.ast()

    def _service(self, body: str, sid, endpoint: str, last_list) -> str | ServiceDecl:
        if last_list is None:
            lists = _NO_LISTS
        else:
            sections = dict.fromkeys(_TERM_LISTS, ())
            for section, items in _SECTIONS.findall(body):
                if section:
                    sections[section] = self._terms(items)
            lists = list(sections.values())
        return self.declare(sid, endpoint[1:-1], lists)

    def _terms(self, span: str) -> tuple:
        terms = self.term_lists.get(span)
        if terms is None:
            terms = self.term_lists[span] = tuple(
                self._term(*item) for item in _ITEMS.findall(span)
            )
        return terms

    def _term(self, functor, args, atom, var, integer, string) -> Term:
        if functor:
            return Compound(
                functor, tuple(self._term(*item) for item in _ITEMS.findall(args))
            )
        if atom:
            return self.atoms.get(atom) or self.atoms.setdefault(atom, Atom(atom))
        if var:
            return Var(var)
        if integer:
            try:
                return Int(int(integer))
            except ValueError:  # too long: the token parser words the error
                raise _OutsideSubset from None
        return Str(string)


def parse_policy(text: str) -> PolicyAst:
    """Parse a policy document; ``compile_policy`` validates what this returns.

    The block recognizer parses a document inside its subset; any other
    document goes to the token parser, whole.
    """
    ast = _BlockRecognizer().parse(text)
    if ast is None:
        ast = _PolicyParser(text).parse()
    return ast


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
        for kw, terms in zip(
            _TERM_LISTS,
            (s.properties, s.capabilities, s.creates_labels, s.removes_labels),
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
