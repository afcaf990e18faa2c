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

Scanning a text costs one ``findall`` of a compiled pattern, which yields
the raw lexemes, plus one Python classification per *distinct* lexeme:
every occurrence of a lexeme is the same immutable ``Token``. Parsing then
costs one ``Tokenizer.next`` call per consumed token, and builds one
``Atom`` per distinct atom name of the text. Tokens carry no position.
Line and column are recovered by token index, with one rescan of the text
per raised error.

Endpoint regexes are validated without compiling them where possible:
``regex_prefix`` recognizes a subset of the regex language that ``re``
always compiles, with one linear-time match per pattern, and returns the
literal prefix that every match starts with. Only a pattern outside the
subset goes through ``compile_regex`` to be validated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from typing import NamedTuple, Union


class TermSyntaxError(Exception):
    """Malformed concrete syntax; carries the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class RegexError(ValueError):
    """A user-supplied regular expression that ``re`` cannot compile."""


def compile_regex(pattern: str) -> re.Pattern:
    """``re.compile(pattern)``, with every way ``re`` rejects it as RegexError."""
    try:
        return re.compile(pattern)
    # re rejects a too-large repeat count and too-deep nesting without re.error
    except (re.error, OverflowError, RecursionError) as exc:
        raise RegexError(str(exc)) from exc


# A subset of the regex language that ``re`` always compiles: plain
# characters, ``\`` before a non-alphanumeric, ``\d \D \s \S \w \W``, ``.``,
# classes of letters, digits, ``._/:@%=`` and the ranges ``0-9 a-z A-Z``,
# and one-level groups of alternatives of those; each item takes one
# ``*``, ``+`` or ``?``, optionally lazy. Every alternative of the recognizer
# starts with a character of its own and a plain run is maximal, so it
# reads a pattern one way: recognizing a pattern is one linear-time match.
# That says nothing of matching a URL against a pattern of the subset,
# which goes through ``re`` and can backtrack: ``(a+)+b`` takes time
# exponential in the length of a run of ``a``s (ROADMAP item 16).
_PLAIN = r"[^.^$*+?{}\[\]\\|()]"
_QUANTIFIER = r"(?:[*+?]\??)?"
_ITEM = (
    rf"(?:{_PLAIN}+(?!{_PLAIN})"
    r"|\\(?:[^0-9A-Za-z]|[dDsSwW])"
    r"|\."
    r"|\[\^?(?:0-9|a-z|A-Z|[0-9A-Za-z._/:@%=])+\])" + _QUANTIFIER
)
_GROUP = rf"\((?:{_ITEM})*(?:\|(?:{_ITEM})*)*\){_QUANTIFIER}"
# Group 1 is the leading plain run, group 2 a quantifier on its last character.
_SIMPLE_REGEX = re.compile(
    rf"({_PLAIN}*)(?!{_PLAIN})(?:(?<={_PLAIN})([*+?])\??)?(?:{_ITEM}|{_GROUP})*"
)


def regex_prefix(pattern: str) -> str | None:
    """The literal text every ``fullmatch`` of ``pattern`` starts with, or
    None if ``pattern`` lies outside the subset above.

    A pattern inside the subset is a valid regex without being compiled;
    recognizing one costs a single linear-time match. The prefix is the
    leading run of plain characters, less its last one when a quantifier
    follows the run.
    """
    m = _SIMPLE_REGEX.fullmatch(pattern)
    if m is None:
        return None
    return m[1][:-1] if m[2] else m[1]


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


@dataclass(frozen=True, slots=True, eq=False)
class Compound:
    """``functor(args...)``. Its hash is computed once, at construction, from
    the functor and the arguments' hashes, which a compound argument has
    cached already; so neither hashing nor ``==`` recurses, and both cost
    what the term holds whatever its nesting depth."""

    functor: str
    args: tuple
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        _check_name(self.functor, "functor")
        if not self.args:
            raise ValueError("0-ary predicates are atoms, not compounds")
        args = tuple(self.args)
        _set_args(self, args)
        _set_hash(self, hash((self.functor, args)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Structural equality over an explicit stack. Type-strict, as for
        the other term classes: a compound equals only a compound, and its
        leaves compare with their own ``==`` (``Atom("a") != Str("a")``)."""
        if type(other) is not Compound:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if type(x) is Compound:
                if (
                    type(y) is not Compound
                    or x._hash != y._hash
                    or x.functor != y.functor
                    or len(x.args) != len(y.args)
                ):
                    return False
                stack.extend(zip(x.args, y.args))
            elif x != y:
                return False
        return True

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled compound hashes
        # with the hash seed of the process that loads it.
        return Compound, (self.functor, self.args)

    def __repr__(self):
        return format_term(self)


# The slot setters, which skip the frozen class's ``__setattr__``.
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__
_set_hash = Compound._hash.__set__


def _new_compound(functor: str, args: tuple) -> Compound:
    """A compound built without ``Compound(...)``'s checks, for copies whose
    functor and argument tuple come from a valid compound."""
    t = object.__new__(Compound)
    _set_functor(t, functor)
    _set_args(t, args)
    _set_hash(t, hash((functor, args)))
    return t


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
    value: object = None  # decoded payload for INT / STR


_new_token = tuple.__new__  # C-level constructor, skips NamedTuple's __new__

# A string body: no bare quote or backslash, only the escapes above. A
# string lexeme without its closing quote stops at the end of the text or
# at a backslash that starts a bad escape.
_STRING_BODY = r'[^"\\]*(?:\\[nt"\\r][^"\\]*)*'
_CLOSED_STRING = re.compile(rf'"({_STRING_BODY})"')


@cache
def _token_pattern(comment: str) -> re.Pattern:
    # Skip whitespace and comments, then capture exactly one lexeme: a
    # string, an integer, a name, a punctuation mark, the empty lexeme at
    # the end of the text (EOF) or any other single character. The skip
    # repeats no alternation: a whitespace run is one ``\s*`` step, and
    # only a comment starts another iteration.
    return re.compile(
        rf"\s*(?:{re.escape(comment)}[^\n]*\s*)*"
        rf'("{_STRING_BODY}"?|-?\d+|\w+'
        rf"|{'|'.join(map(re.escape, _PUNCT))}|\Z|.)",
        re.DOTALL,
    )


def _offset(text: str, comment: str, i: int) -> int:
    """Offset of the ``i``-th lexeme of ``text``, by scanning it again."""
    return next(islice(_token_pattern(comment).finditer(text), i, None)).start(1)


def _line_column(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _syntax_error(message: str, text: str, pos: int) -> TermSyntaxError:
    return TermSyntaxError(message, *_line_column(text, pos))


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m[1]]


class _Lexicon(dict):
    """The token of each distinct lexeme of one text, classified on its
    first lookup; every later occurrence gets the same token."""

    __slots__ = ("text", "comment", "raws")

    def __init__(self, text: str, comment: str, raws: list[str]):
        self.text = text
        self.comment = comment
        self.raws = raws

    def __missing__(self, raw: str) -> Token:
        first = raw[:1]
        if first.isalpha() or first == "_":
            kind = "VAR" if first == "_" or first.isupper() else "ATOM"
            token = _new_token(Token, (kind, raw, None))
        elif raw in _PUNCT:
            token = _new_token(Token, ("PUNCT", raw, None))
        elif first.isdecimal() or (first == "-" and len(raw) > 1):
            try:
                value = int(raw)
            except ValueError:  # more digits than ``int`` converts
                digits = len(raw.lstrip("-"))
                raise _syntax_error(
                    f"integer literal too long ({digits} digits)",
                    self.text,
                    self._first_offset(raw),
                ) from None
            token = _new_token(Token, ("INT", raw, value))
        elif first == '"':
            closed = _CLOSED_STRING.fullmatch(raw)
            if closed is None:
                # The scan stops at this first occurrence of the lexeme.
                pos = self._first_offset(raw)
                if pos + len(raw) == len(self.text):
                    raise _syntax_error("unterminated string", self.text, pos)
                pos += len(raw) + 1  # the character after the backslash
                raise _syntax_error("bad escape sequence", self.text, pos)
            value = _ESCAPE.sub(_unescape, closed[1])
            token = _new_token(Token, ("STR", value, value))
        elif not raw:
            token = _new_token(Token, ("EOF", "", None))
        else:
            # A name that starts with a non-letter such as ``²``, or a
            # character that starts no token.
            pos = self._first_offset(raw)
            raise _syntax_error(f"unexpected character {first!r}", self.text, pos)
        self[raw] = token
        return token

    def _first_offset(self, raw: str) -> int:
        return _offset(self.text, self.comment, self.raws.index(raw))


def _scan(text: str, comment: str) -> list[Token]:
    """The tokens of ``text``, ending with EOF; positions are not kept."""
    raws = _token_pattern(comment).findall(text)
    if len(raws) > 1 and not raws[-2]:
        # EOF consumed trailing whitespace; an empty match at the end follows.
        raws.pop()
    return list(map(_Lexicon(text, comment, raws).__getitem__, raws))


class Tokenizer:
    """Scanner over one compiled pattern; tokens carry no source position.

    The text is split into lexemes by one ``findall``, and each distinct
    lexeme is classified once: every occurrence of it is the same ``Token``
    object. So a token is found by its index in ``tokens``, not by identity.
    ``position(i)`` recovers the 1-based line and column of token ``i`` when
    an error is raised, by scanning the text again up to it.

    A parser consumes each token with exactly one ``next`` call, which also
    checks its kind and text when asked to. ``atoms`` holds one ``Atom`` per
    distinct atom name that ``parse_term_from`` has read from this text.

    ``comment`` selects the line-comment introducer: ``%`` for clause files,
    ``//`` for policy and route files.
    """

    def __init__(self, text: str, comment: str = "%"):
        self.text = text
        self.comment = comment
        self.tokens = _scan(text, comment)
        self.index = 0
        self.atoms: dict[str, Atom] = {}  # immutable, so shared by occurrences

    def position(self, i: int) -> tuple[int, int]:
        """(line, column) of ``tokens[i]``."""
        return _line_column(self.text, _offset(self.text, self.comment, i))

    # -- token-stream interface -------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self, kind: str | None = None, text: str | None = None) -> Token:
        """Consume the current token, which must have ``kind`` and ``text`` if given."""
        tok = self.tokens[self.index]
        if kind is not None and (tok.kind != kind or text not in (None, tok.text)):
            want = text if text is not None else kind.lower()
            raise TermSyntaxError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                *self.position(self.index),
            )
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.index]
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.index]
        return tok.kind == "ATOM" and tok.text == word


# ---------------------------------------------------------------------------
# Term parsing and printing.
# ---------------------------------------------------------------------------


def parse_term_from(tok: Tokenizer) -> Term:
    """Parse one term starting at the tokenizer's current position.

    The compounds still open are kept on an explicit stack of (functor,
    arguments so far), so nesting depth is not bounded by Python's
    recursion limit."""
    stack = []  # open compounds, the innermost last
    while True:
        at = tok.index
        t = tok.next()
        kind = t.kind
        if kind == "INT":
            term = Int(t.value)
        elif kind == "STR":
            term = Str(t.value)
        elif kind == "VAR":
            term = Var(t.text)
        elif kind == "ATOM":
            after = tok.tokens[tok.index]
            if after.text == "(" and after.kind == "PUNCT":
                tok.next()
                stack.append((t.text, []))
                continue
            term = tok.atoms.get(t.text)
            if term is None:
                term = tok.atoms[t.text] = Atom(t.text)
        else:
            raise TermSyntaxError(
                f"expected a term, found {t.text or t.kind!r}", *tok.position(at)
            )
        # ``term`` is complete: it is an argument of the innermost open
        # compound, which takes a next argument or closes.
        while stack:
            functor, args = stack[-1]
            args.append(term)
            if tok.accept("PUNCT", ","):
                break
            tok.next("PUNCT", ")")
            stack.pop()
            term = Compound(functor, tuple(args))
        else:
            return term


def parse_term(text: str) -> Term:
    """Parse a complete term from ``text``; trailing input is an error."""
    tok = Tokenizer(text)
    term = parse_term_from(tok)
    end = tok.peek()
    if end.kind != "EOF":
        raise TermSyntaxError(
            f"trailing input after term: {end.text!r}", *tok.position(tok.index)
        )
    return term


class _Text(str):
    """Punctuation on ``format_term``'s stack, told apart from any term."""


_CLOSE = _Text(")")
_SEPARATOR = _Text(", ")


def format_term(t: Term) -> str:
    """The concrete syntax of ``t``.

    A compound is written over an explicit stack, so nesting depth is not
    bounded by Python's recursion limit.
    """
    if not isinstance(t, Compound):
        return _format_leaf(t)
    parts = []
    stack = [t]  # terms still to write, and the punctuation between them
    while stack:
        x = stack.pop()
        if type(x) is _Text:
            parts.append(x)
        elif isinstance(x, Compound):
            parts.append(x.functor + "(")
            stack.append(_CLOSE)
            args = x.args
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(_SEPARATOR)
            stack.append(args[0])
        else:
            parts.append(_format_leaf(x))
    return "".join(parts)


def _format_leaf(t: Term) -> str:
    if isinstance(t, (Atom, Var)):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Str):
        return '"' + "".join(_UNESCAPES.get(c, c) for c in t.value) + '"'
    raise TypeError(f"not a term: {t!r}")


def format_labels(labels) -> str:
    """Render a label set as ``[a, b(1)]`` with a stable (sorted) order."""
    return "[" + ", ".join(sorted(format_term(l) for l in labels)) + "]"
