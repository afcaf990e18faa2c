"""First-order terms and their concrete syntax.

Terms are the universal value representation of the engine: taint labels,
service properties, route expressions, and clause heads/bodies are all terms.
The syntax mirrors conventional Prolog notation: lowercase atoms, uppercase
(or underscore) variables, integers, double-quoted strings, and compound
terms like ``merge(10)``.

Lexical syntax, shared by the term, clause, policy and route parsers:

* a name is a letter or ``_`` followed by letters, digits and ``_``
  (Unicode included); it is a variable when its first character is ``_``
  or uppercase, and an atom otherwise;
* an integer is an optional ``-`` and decimal digits; a non-decimal digit
  such as ``²`` is a syntax error;
* a string is double-quoted, may span lines, and knows the escapes
  ``\\n \\t \\r \\" \\\\``;
* a line comment starts with the tokenizer's introducer: ``%`` for clause
  text, ``//`` for policy and route files;
* whitespace is any Unicode whitespace; positions are 1-based lines,
  counted at ``\\n`` only, and columns in characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Union


class TermSyntaxError(Exception):
    """Malformed concrete syntax; carries the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


_find_whitespace = re.compile(r"\s").search


def _check_name(name: str, what: str) -> None:
    if not name or _find_whitespace(name):
        raise ValueError(f"{what} must be non-empty and contain no whitespace: {name!r}")


@dataclass(frozen=True, slots=True)
class Atom:
    name: str

    def __post_init__(self):
        _check_name(self.name, "atom name")

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Int:
    value: int

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Str:
    value: str

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class Compound:
    functor: str
    args: tuple

    def __post_init__(self):
        _check_name(self.functor, "functor")
        if not self.args:
            raise ValueError("0-ary predicates are atoms, not compounds")
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self):
        return format_term(self)


Term = Union[Atom, Var, Int, Str, Compound]


def functor_arity(t: Term) -> tuple[str, int]:
    """Predicate indicator of a callable term (atom or compound)."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    raise TypeError(f"not a callable term: {t!r}")


# ---------------------------------------------------------------------------
# Tokenizer, shared by the term/clause/policy/route parsers.
# ---------------------------------------------------------------------------

_PUNCT = (":-", ":=", "->", "\\+", "(", ")", "{", "}", ",", ".", ":", "=")

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\", "\r": "\\r"}
_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # ATOM | VAR | INT | STR | PUNCT | EOF
    text: str
    line: int
    column: int
    value: object = None  # decoded payload for INT / STR


@cache
def _token_pattern(comment: str) -> re.Pattern:
    # Skip whitespace and comments, then match exactly one alternative. A
    # string without its closing quote stops at the end of text or at a
    # backslash that starts a bad escape; BAD takes any other character.
    return re.compile(
        rf"(?:\s+|{re.escape(comment)}[^\n]*)*"
        r'(?:(?P<STR>"(?P<body>[^"\\]*(?:\\[nt"\\r][^"\\]*)*)(?P<close>"?))'
        r"|(?P<INT>-?\d+)"
        r"|(?P<NAME>\w+)"
        rf"|(?P<PUNCT>{'|'.join(map(re.escape, _PUNCT))})"
        r"|(?P<EOF>\Z)"
        r"|(?P<BAD>.))",
        re.DOTALL,
    )


def _syntax_error(message: str, text: str, pos: int) -> TermSyntaxError:
    return TermSyntaxError(
        message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    )


def _scan(text: str, comment: str) -> list[Token]:
    tokens = []
    line, line_start, counted = 1, 0, 0  # newlines before `counted` are in `line`
    for m in _token_pattern(comment).finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        raw, value = m[kind], None
        if kind == "NAME":
            first = raw[0]
            if not (first.isalpha() or first == "_"):
                raise _syntax_error(f"unexpected character {first!r}", text, start)
            kind = "VAR" if first == "_" or first.isupper() else "ATOM"
        elif kind == "INT":
            value = int(raw)
        elif kind == "STR":
            if not m["close"]:
                if m.end() == len(text):
                    raise TermSyntaxError("unterminated string", line, column)
                raise _syntax_error("bad escape sequence", text, m.end() + 1)
            raw = value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], m["body"])
        elif kind == "BAD":
            raise _syntax_error(f"unexpected character {raw!r}", text, start)
        tokens.append(Token(kind, raw, line, column, value))
        if kind == "EOF":
            break  # an empty match at the end would follow a non-empty one
    return tokens


class Tokenizer:
    """Scanner over one compiled pattern, with 1-based line/column positions.

    ``comment`` selects the line-comment introducer: ``%`` for clause files,
    ``//`` for policy and route files.
    """

    def __init__(self, text: str, comment: str = "%"):
        self.text = text
        self.comment = comment
        self.tokens = _scan(text, comment)
        self.index = 0

    # -- token-stream interface -------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.lower()
            raise TermSyntaxError(
                f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.column
            )
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ATOM" and tok.text == word


# ---------------------------------------------------------------------------
# Term parsing and printing.
# ---------------------------------------------------------------------------


def parse_term_from(tok: Tokenizer) -> Term:
    """Parse one term starting at the tokenizer's current position."""
    t = tok.next()
    if t.kind == "INT":
        return Int(t.value)
    if t.kind == "STR":
        return Str(t.value)
    if t.kind == "VAR":
        return Var(t.text)
    if t.kind == "ATOM":
        if tok.peek().kind == "PUNCT" and tok.peek().text == "(":
            tok.next()
            args = [parse_term_from(tok)]
            while tok.accept("PUNCT", ","):
                args.append(parse_term_from(tok))
            tok.expect("PUNCT", ")")
            return Compound(t.text, tuple(args))
        return Atom(t.text)
    raise TermSyntaxError(f"expected a term, found {t.text or t.kind!r}", t.line, t.column)


def parse_term(text: str, comment: str = "%") -> Term:
    """Parse a complete term from ``text``; trailing input is an error."""
    tok = Tokenizer(text, comment=comment)
    term = parse_term_from(tok)
    end = tok.peek()
    if end.kind != "EOF":
        raise TermSyntaxError(
            f"trailing input after term: {end.text!r}", end.line, end.column
        )
    return term


def format_term(t: Term) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Str):
        return '"' + "".join(_UNESCAPES.get(c, c) for c in t.value) + '"'
    if isinstance(t, Compound):
        return f"{t.functor}({', '.join(format_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def format_labels(labels) -> str:
    """Render a label set as ``[a, b(1)]`` with a stable (sorted) order."""
    return "[" + ", ".join(sorted(format_term(l) for l in labels)) + "]"
