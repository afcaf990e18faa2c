import itertools
import os
import pickle
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from labelflow import terms as terms_module
from labelflow.engine import parse_program
from labelflow.kernel import subterms
from labelflow.policy import _PolicyParser, parse_policy
from labelflow.routes import parse_route
from labelflow.terms import (
    Atom,
    Compound,
    Int,
    Str,
    TermSyntaxError,
    Token,
    Tokenizer,
    Var,
    format_labels,
    format_term,
    functor_arity,
    parse_term,
    parse_term_from,
    regex_prefix,
)

from .conftest import read_fixture
from .helpers import _same_term, reference_tokens, substitute


def test_parse_atom():
    assert parse_term("raw") == Atom("raw")


def test_parse_variable():
    assert parse_term("X") == Var("X")
    assert parse_term("_tmp") == Var("_tmp")


def test_parse_integers():
    assert parse_term("42") == Int(42)
    assert parse_term("-7") == Int(-7)


def test_parse_string_with_escapes():
    assert parse_term(r'"a\nb\"c\\d"') == Str('a\nb"c\\d')


def test_parse_compound_nested():
    assert parse_term("f(g(X, 1), \"s\")") == Compound(
        "f", (Compound("g", (Var("X"), Int(1))), Str("s"))
    )



def test_parse_deep_term_without_recursion():
    depth = 50000
    text = "f(" * depth + "g(a, X)" + ", 1)" * depth
    tok = Tokenizer(text)
    t = parse_term_from(tok)
    assert tok.peek().kind == "EOF" and tok.index == len(tok.tokens) - 1
    assert format_term(t) == text
    for _ in range(depth):
        assert t.functor == "f" and t.args[1] == Int(1)
        t = t.args[0]
    assert t == Compound("g", (Atom("a"), Var("X")))
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("f(" * depth + "a b" + ")" * depth)
    assert exc.value.message == "expected ')', found 'b'"
    assert exc.value.column == 2 * depth + 3


def test_parse_rejects_trailing_input():
    with pytest.raises(TermSyntaxError):
        parse_term("f(a) b")


def test_parse_reports_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("f(a,,b)")
    assert exc.value.line == 1
    assert exc.value.column > 1


def test_unterminated_string():
    with pytest.raises(TermSyntaxError):
        parse_term('"oops')


def test_bad_escape():
    with pytest.raises(TermSyntaxError):
        parse_term(r'"\q"')


@pytest.mark.parametrize("sign", ["", "-"])
def test_over_long_integer_is_syntax_error_at_the_literal(sign):
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(f"f(a,\n  {sign}{'7' * digits})")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert exc.value.message == f"integer literal too long ({digits} digits)"
    assert parse_term(sign + "7" * (digits - 1)) == Int(int(sign + "7" * (digits - 1)))


@pytest.mark.parametrize("text", ["²", "-²"])
def test_non_decimal_digit_is_syntax_error(text):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert exc.value.message.startswith("unexpected character")


# One malformed input per raise site of the term scanner and parser; the
# clause parser shares the tokenizer. Each row pins (message, line, column).
TERM_SYNTAX_ERRORS = [
    (parse_term, "f(a,\n  ²)", ("unexpected character '²'", 2, 3)),
    (parse_term, 'f(a,\n  "open\nmore', ("unterminated string", 2, 3)),
    (parse_term, 'f("x\ny\\q")', ("bad escape sequence", 2, 3)),
    (parse_term, "f(a,\n   #b)", ("unexpected character '#'", 2, 4)),
    (parse_term, "f(a\n  b)", ("expected ')', found 'b'", 2, 3)),
    (parse_term, 'f(a ""', ("expected ')', found 'STR'", 1, 5)),
    (parse_term, "f(a,\n  b", ("expected ')', found 'EOF'", 2, 4)),
    (parse_term, "f(a,\n   )", ("expected a term, found ')'", 2, 4)),
    (parse_term, "% only a comment\n  ", ("expected a term, found 'EOF'", 2, 3)),
    (parse_term, '"x\ny" z', ("trailing input after term: 'z'", 2, 4)),
    (parse_program, "p(a) :- q(b)\nr.", ("expected '.', found 'r'", 2, 1)),
    (parse_program, "p(a).\n% c\n  q(X) :- \\+ .", ("expected a term, found '.'", 3, 14)),
    # The offending lexeme also occurs before and after the reported one.
    (parse_term, "f(b, g(a\n  b), b)", ("expected ')', found 'b'", 2, 3)),
    (parse_term, 'f("s"\n "s", "s")', ("expected ')', found 's'", 2, 2)),
    (parse_term, "f(a,\n ,b,c)", ("expected a term, found ','", 2, 2)),
    (parse_term, "f(a)\n a a", ("trailing input after term: 'a'", 2, 2)),
    (parse_program, "p(r) :- q(b)\nr. r.", ("expected '.', found 'r'", 2, 1)),
    (parse_program, "p(a).\n  q(X) :- \\+ .\nr.", ("expected a term, found '.'", 2, 14)),
]


@pytest.mark.parametrize(
    "parse, text, expected",
    TERM_SYNTAX_ERRORS,
    ids=[f"{parse.__name__}-{i}" for i, (parse, _, _) in enumerate(TERM_SYNTAX_ERRORS)],
)
def test_syntax_error_positions(parse, text, expected):
    with pytest.raises(TermSyntaxError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == expected


def test_comments_are_skipped():
    assert parse_term("% note\nfoo") == Atom("foo")


def test_zero_arity_compound_rejected():
    with pytest.raises(ValueError):
        Compound("f", ())


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("has space")
    with pytest.raises(ValueError):
        Atom("")


def test_name_check_agrees_with_isspace_on_every_code_point():
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    spaces = [c for c in chars if c.isspace()]
    for c in spaces:
        with pytest.raises(ValueError):
            Atom(f"a{c}b")
        with pytest.raises(ValueError):
            Compound(f"f{c}", (Int(1),))
    Atom("".join(c for c in chars if not c.isspace()))


def test_functor_arity():
    assert functor_arity(Atom("a")) == ("a", 0)
    assert functor_arity(Compound("f", (Int(1), Int(2)))) == ("f", 2)
    with pytest.raises(TypeError):
        functor_arity(Int(3))


def test_format_labels_sorted():
    labels = {Compound("merge", (Int(10),)), Atom("raw"), Atom("internal")}
    assert format_labels(labels) == "[internal, merge(10), raw]"
    assert format_labels(()) == "[]"


# -- round-trip property ----------------------------------------------------

atoms = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).map(Atom)
variables = st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,6}", fullmatch=True).map(Var)
ints = st.integers(min_value=-(10**6), max_value=10**6).map(Int)
strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=10
).map(Str)

terms = st.recursive(
    atoms | variables | ints | strings,
    lambda children: st.builds(
        Compound,
        st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
        st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=12,
)


@given(terms)
def test_format_parse_round_trip(term):
    assert parse_term(format_term(term)) == term


def test_format_term_rejects_a_value_that_is_not_a_term():
    with pytest.raises(TypeError, match="not a term: 3"):
        format_term(3)


# -- structural equality and the cached hash -------------------------------

# Few leaves and functors, so that independently drawn terms are often
# equal; ``Atom("a")`` and ``Str("a")`` differ only in type.
_small_terms = st.recursive(
    st.sampled_from([Atom("a"), Str("a"), Var("X"), Int(1)]),
    lambda children: st.builds(
        Compound,
        st.sampled_from(["f", "g"]),
        st.lists(children, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=6,
)


@given(_small_terms, _small_terms, st.booleans())
def test_equality_is_structural_and_agrees_with_the_hash(a, b, copy):
    if copy:
        b = substitute(a, {})  # equal to ``a``, with none of its compounds
    same = _same_term(a, b)
    assert (a == b) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)


def test_compound_equality_is_type_strict():
    t = Compound("f", (Atom("a"),))
    assert t != Compound("f", (Str("a"),))
    for other in (Atom("f"), Str("f(a)"), Var("f"), Int(1), "f(a)", ("f", (Atom("a"),))):
        assert t != other and other != t


def _chain(leaf, depth):
    for _ in range(depth):
        leaf = Compound("f", (leaf,))
    return leaf


def test_deep_compound_hashes_and_compares_without_recursion():
    a, b, c = (_chain(leaf, 10_000) for leaf in (Atom("a"), Atom("a"), Atom("b")))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        assert a == b and not a != b
        assert a != c and not a == c
    finally:
        sys.setrecursionlimit(limit)


def test_an_unpickled_compound_hashes_as_the_loading_process_does():
    # Another process hashes strings with another seed, so the cached hash
    # is computed again on loading, not carried in the pickle.
    src = os.path.dirname(os.path.dirname(terms_module.__file__))
    code = (
        "import pickle, sys; from labelflow.terms import Atom, Compound; "
        "print(pickle.load(sys.stdin.buffer) in {Compound('f', (Atom('a'),))})"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(Compound("f", (Atom("a"),))),
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1"),
        capture_output=True,
        check=True,
    ).stdout
    assert loaded == b"True\n"


# -- the tokenizer against the character-at-a-time oracle --------------------


def _scan_result(scan, text, comment):
    try:
        return [tuple(t) for t in scan(text, comment)]
    except TermSyntaxError as exc:
        return (exc.message, exc.line, exc.column)


def test_tokens_carry_no_position():
    assert Token._fields == ("kind", "text", "value")


def _tokens(text, comment):
    tok = Tokenizer(text, comment)
    return [
        (t.kind, t.text, *tok.position(i), t.value) for i, t in enumerate(tok.tokens)
    ]


def test_each_distinct_lexeme_is_classified_once(monkeypatch):
    classified = []
    classify = terms_module._Lexicon.__missing__

    def counting(table, raw):
        classified.append(raw)
        return classify(table, raw)

    monkeypatch.setattr(terms_module._Lexicon, "__missing__", counting)
    tok = Tokenizer('f(a, b) :- g(a, X), "s", -1.\n' * 50)
    distinct = ["f", "(", "a", ",", "b", ")", ":-", "g", "X", '"s"', "-1", ".", ""]
    assert sorted(classified) == sorted(distinct)
    assert len(tok.tokens) == 50 * 18 + 1
    assert len({id(t) for t in tok.tokens}) == len(distinct)


def parse_policy_tokens(text):
    # The token parser alone: ``parse_policy`` reads these fixtures with the
    # block recognizer, which calls no ``Tokenizer.next``.
    return _PolicyParser(text).parse()


@pytest.mark.parametrize(
    "fixture, parse, comment, consumed",
    [
        ("dont_publish_raw.lucon", parse_policy_tokens, "//", 33),
        ("measurement_chain.lucon", parse_policy_tokens, "//", 32),
        ("sensor.route", parse_route, "//", 53),
        ("measurement_chain.route", parse_route, "//", 31),
        ("dont_publish_raw.clauses", parse_program, "%", 76),
        ("measurement_chain.clauses", parse_program, "%", 67),
    ],
)
def test_parsing_calls_next_once_per_consumed_token(
    monkeypatch, fixture, parse, comment, consumed
):
    text = read_fixture(fixture)
    tokens = Tokenizer(text, comment).tokens
    calls = []
    original = Tokenizer.next

    def counting(*args, **kwargs):  # counts as the benchmark's tracer does
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(Tokenizer, "next", counting)
    parse(text)
    assert len(calls) == consumed == len(tokens) - 1  # every token but EOF


def _clause_terms(clauses):
    for clause in clauses:
        yield clause.head
        for literal in clause.body:
            yield literal.term


def _policy_terms(ast):
    for s in ast.services:
        yield from s.properties + s.capabilities + s.creates_labels + s.removes_labels
    for r in ast.rules:
        yield from r.trigger_labels
        for ob in r.decision.obligations:
            yield ob.action


@pytest.mark.parametrize(
    "parse, terms_of, text",
    [
        (
            parse_program,
            _clause_terms,
            "p(a, b, f(a)) :- q(a, b), \\+ r(b, c).\np(c, c, g) :- s.\n" * 20,
        ),
        (
            parse_policy,
            _policy_terms,
            read_fixture("measurement_chain.lucon")
            + 'flow_rule { when merge receives raw, merge(raw) decide drop '
            'require log(raw, message) otherwise drop }\n' * 20,
        ),
    ],
    ids=["clauses", "policy"],
)
def test_one_atom_per_distinct_atom_name(monkeypatch, parse, terms_of, text):
    built = []
    check = Atom.__post_init__

    def counting(atom):
        built.append(atom.name)
        check(atom)

    monkeypatch.setattr(Atom, "__post_init__", counting)
    parsed = parse(text)
    atoms = [
        x for t in terms_of(parsed) for x in subterms(t) if isinstance(x, Atom)
    ]
    names = {a.name for a in atoms}
    assert sorted(built) == sorted(names)
    assert len({id(a) for a in atoms}) == len(names)


@pytest.mark.parametrize(
    "text, comment, expected",
    [
        ('a\nb\n  "open', "%", ("unterminated string", 3, 3)),
        ('"x\ny" "\\q"', "%", ("bad escape sequence", 2, 6)),
        ('f("\\', "%", ("bad escape sequence", 1, 5)),
        (
            "a.\n// last",
            "//",
            [
                ("ATOM", "a", 1, 1, None),
                ("PUNCT", ".", 1, 2, None),
                ("EOF", "", 2, 8, None),
            ],
        ),
        ("a \n\t ", "%", [("ATOM", "a", 1, 1, None), ("EOF", "", 2, 3, None)]),
        ("Ⅷ", "%", ("unexpected character 'Ⅷ'", 1, 1)),
        ("ǅ", "%", [("ATOM", "ǅ", 1, 1, None), ("EOF", "", 1, 2, None)]),
    ],
    ids=[
        "open-string-line-3",
        "bad-escape-after-multiline-string",
        "backslash-at-end",
        "final-comment-without-newline",
        "eof-after-trailing-whitespace",
        "upper-case-but-not-alphabetic",
        "title-case-is-an-atom",
    ],
)
def test_token_positions(text, comment, expected):
    assert _scan_result(_tokens, text, comment) == expected
    assert _scan_result(reference_tokens, text, comment) == expected


SCANNER_ALPHABET = (
    list("aZ_09-\"\\ntr(){},.:=+>%/# \n\t")
    + ["\r", "\xa0", "\x85", "\x1c", "\u2028", "٣", "²", "Ⅷ", "é", "ǅ"]
    + [":-", ":=", "->", "\\+", "//", '"s"', '"\\', "foo", "X1", "-5"]
)


@settings(derandomize=True, max_examples=500)
@given(
    st.lists(st.sampled_from(SCANNER_ALPHABET), max_size=30).map("".join),
    st.sampled_from(["%", "//"]),
)
def test_tokenizer_agrees_with_character_scanner(text, comment):
    try:
        expected = _scan_result(reference_tokens, text, comment)
    except ValueError:
        assume(False)  # the oracle's int() rejects a non-decimal digit
    assert _scan_result(_tokens, text, comment) == expected


# A small alphabet, so that lexemes repeat; at most one piece is malformed.
REPEATING_PIECES = [
    "a", "ab", "X", "_", "1", "-2", '"s"', '"\\n"', "(", ")", ",", ".", ":-",
    " ", "\n",
]
MALFORMED_PIECES = ["#", "Ⅷ", '"open', '"\\q"']


@st.composite
def repetitive_texts(draw):
    comment = draw(st.sampled_from(["%", "//"]))
    alphabet = REPEATING_PIECES + [comment + " c\n"]
    n = draw(st.integers(0, 60))
    pieces = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    if pieces and draw(st.booleans()):
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at] = draw(st.sampled_from(MALFORMED_PIECES))
    return "".join(pieces), comment


@settings(derandomize=True, max_examples=300)
@given(repetitive_texts())
def test_tokenizer_agrees_with_character_scanner_on_repeated_lexemes(case):
    text, comment = case
    assert _scan_result(_tokens, text, comment) == _scan_result(
        reference_tokens, text, comment
    )


# -- the endpoint regex recognizer, with ``re`` as the oracle -----------------

# Heavy in metacharacters, so that most strings lie outside the subset.
REGEX_ALPHABET = "a.^$*+?{}[]\\|()-0dA/ "


def _short_strings(alphabet, max_len):
    for n in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


@pytest.mark.parametrize(
    "alphabet, max_len",
    [
        (REGEX_ALPHABET, 4),
        # long enough for character ranges, reversed or open-ended ones too
        ("[]^-0aAz\\", 5),
    ],
)
def test_every_recognized_pattern_compiles(alphabet, max_len):
    accepted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pattern in _short_strings(alphabet, max_len):
            if regex_prefix(pattern) is not None:
                re.compile(pattern)
                accepted += 1
    assert accepted > 5_000


def test_every_short_match_starts_with_the_prefix():
    subjects = list(_short_strings("a0dA/- .", 3))
    checked = 0
    for pattern in _short_strings(REGEX_ALPHABET, 3):
        prefix = regex_prefix(pattern)
        if not prefix:
            continue
        regex = re.compile(pattern)
        for subject in subjects:
            if regex.fullmatch(subject) is not None:
                assert subject.startswith(prefix), (pattern, subject)
                checked += 1
    assert checked > 1_000


# Items of the subset other than plain runs, each with characters it matches.
_ITEM_MATCHES = {
    "\\.": ".",
    "\\/": "/",
    "\\d": "09",
    "\\W": " /-",
    ".": "a./é",
    "[a-z]": "az",
    "[^0-9.]": "a/é",
    "[._/:@%=A-Z]": "._/:@%=AZ",
}
# quantifier -> (fewest, most) repetitions drawn for it
_REPEATS = {"": (1, 1), "?": (0, 1), "??": (0, 1), "*": (0, 2), "*?": (0, 2),
            "+": (1, 2), "+?": (1, 2)}


def _draw_item(draw) -> tuple[str, str]:
    """A quantified item of the subset and a text that it fully matches."""
    quantifier = draw(st.sampled_from(sorted(_REPEATS)))
    repeats = draw(st.integers(*_REPEATS[quantifier]))
    if draw(st.booleans()):
        run = draw(st.text("ab/:-é 0", min_size=1, max_size=4))
        # a quantifier repeats the run's last character only
        return run + quantifier, run[:-1] + run[-1] * repeats
    item = draw(st.sampled_from(sorted(_ITEM_MATCHES)))
    chars = st.sampled_from(_ITEM_MATCHES[item])
    return item + quantifier, "".join(draw(chars) for _ in range(repeats))


def _draw_sequence(draw, max_items: int) -> tuple[str, str]:
    parts = [_draw_item(draw) for _ in range(draw(st.integers(0, max_items)))]
    return "".join(p for p, _ in parts), "".join(t for _, t in parts)


@st.composite
def subset_cases(draw):
    """A pattern inside ``regex_prefix``'s subset and a text it fully matches."""
    pattern, text = [], []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            part, matched = _draw_item(draw)
        else:
            count = draw(st.integers(1, 3))
            alternatives = [_draw_sequence(draw, 3) for _ in range(count)]
            quantifier = draw(st.sampled_from(sorted(_REPEATS)))
            repeats = draw(st.integers(*_REPEATS[quantifier]))
            part = "(" + "|".join(a for a, _ in alternatives) + ")" + quantifier
            picks = [draw(st.sampled_from(alternatives)) for _ in range(repeats)]
            matched = "".join(t for _, t in picks)
        pattern.append(part)
        text.append(matched)
    return "".join(pattern), "".join(text)


@settings(derandomize=True, max_examples=300)
@given(subset_cases())
def test_matches_of_a_subset_pattern_start_with_its_prefix(case):
    pattern, text = case
    assert re.fullmatch(pattern, text) is not None
    prefix = regex_prefix(pattern)
    assert prefix is not None
    assert text.startswith(prefix)


@pytest.mark.parametrize(
    "pattern, prefix",
    [
        ("bean://merge", "bean://merge"),
        ("sensor://.+", "sensor://"),
        ("http[s]?://.+", "http"),
        ("https?://.+", "http"),
        ("ab*?c", "a"),
        ("https://a\\.example/(in|v[0-9])/.*", "https://a"),
        ("(a|b)c", ""),
        ("", ""),
    ],
)
def test_regex_prefix_examples(pattern, prefix):
    assert regex_prefix(pattern) == prefix


@pytest.mark.parametrize(
    "pattern",
    [
        "^a", "a$", "a{2}", "(?:a)", "((a))", "a|b", "\\1", "\\b", "a**", "[a-f]",
        "[]", "a\\",
    ],
)
def test_regex_prefix_rejects_outside_the_subset(pattern):
    assert regex_prefix(pattern) is None


@pytest.mark.parametrize(
    "pattern",
    [
        "a" * 9_999 + "{",
        "a?" * 4_999 + "{",
        "(" + "ab" * 4_999 + "{",
        "(a|" * 2_500,
        "[a" * 5_000,
        "\\d*" * 3_333 + "(",
        "x" + ".+" * 4_999 + ")",
    ],
    ids=["run", "optional_runs", "open_group", "alternatives", "open_classes",
         "escapes", "dots"],
)
def test_regex_prefix_is_linear_on_adversarial_input(pattern):
    # A recognizer that backtracks over ways to split a run takes
    # exponential time on these; a linear one takes a few milliseconds.
    start = time.perf_counter()
    assert regex_prefix(pattern) is None
    assert time.perf_counter() - start < 1.0
