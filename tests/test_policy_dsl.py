import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelflow import policy as policy_module
from labelflow.policy import (
    _SECTION_KEYWORDS,
    Decision,
    FlowRule,
    Obligation,
    PolicyAst,
    ServiceDecl,
    ValidationError,
    _BlockRecognizer,
    _PolicyParser,
    format_policy,
    generated_service_id,
    parse_policy,
)
from labelflow.policy_compiler import compile_policy
from labelflow.terms import (
    Atom,
    Compound,
    Int,
    Str,
    TermSyntaxError,
    Tokenizer,
    _token_pattern,
)

from .conftest import read_fixture

EXAMPLE = """
service {
  id sensor
  endpoint "sensor://.+"
  properties trusted, location(lab)
  capabilities read
  creates_label raw
}

flow_rule {
  id dontPublishRaw
  when service { endpoint "http[s]?://.+" } receives raw
  decide drop
    require log("Preventing data leak. ", message) otherwise error
}
"""


def _service(ast, sid: str):
    (decl,) = [s for s in ast.services if s.id == sid]
    return decl


def test_parse_service_declaration():
    ast = parse_policy(EXAMPLE)
    sensor = _service(ast, "sensor")
    assert sensor.endpoint == "sensor://.+"
    assert sensor.properties == (Atom("trusted"), Compound("location", (Atom("lab"),)))
    assert sensor.capabilities == (Atom("read"),)
    assert sensor.creates_labels == (Atom("raw"),)
    assert sensor.removes_labels == ()


def test_parse_rule_with_obligation():
    ast = parse_policy(EXAMPLE)
    (rule,) = ast.rules
    assert rule.name == "dontPublishRaw"
    assert rule.trigger_labels == (Atom("raw"),)
    assert rule.decision.effect == "drop"
    (ob,) = rule.decision.obligations
    assert ob.action == Compound(
        "log", (Str("Preventing data leak. "), Atom("message"))
    )
    assert ob.otherwise == "error"


def test_inline_service_is_hoisted():
    ast = parse_policy(EXAMPLE)
    (rule,) = ast.rules
    target = _service(ast, rule.target)
    assert target.endpoint == "http[s]?://.+"
    assert rule.target.startswith("service")


def test_identical_inline_services_collapse():
    text = EXAMPLE + EXAMPLE.replace("dontPublishRaw", "secondRule")
    ast = parse_policy(text)
    assert len(ast.services) == 2  # sensor + one hoisted inline service
    assert ast.rules[0].target == ast.rules[1].target


def test_generated_id_is_content_stable():
    assert generated_service_id("http://x") == generated_service_id("http://x")
    assert generated_service_id("http://x") != generated_service_id("http://y")


# Hoisted ids are pinned: ``flowbench/gen.py`` mirrors the formula, and a
# policy that names a hoisted id by hand depends on it staying the same.
HOISTED = """
service { id s endpoint "svc://s" }
flow_rule { id plain when service { endpoint "http[s]?://.+" } receives raw decide drop }
flow_rule {
  id rich
  when service {
    endpoint "bean://m"
    properties trusted, zone(eu, "a b")
    capabilities read(X), write
    creates_label merge(10), pair(a, f(1))
    removes_label raw, classification(secret)
  }
  receives raw decide allow
}
"""


def test_hoisted_ids_are_pinned():
    from flowbench.gen import _inline_id

    ast = parse_policy(HOISTED)
    plain, rich = ast.rules
    assert plain.target == "service97000661" == _inline_id("http[s]?://.+")
    assert rich.target == "service31024044"
    decl = _service(ast, rich.target)
    assert generated_service_id(
        decl.endpoint,
        decl.properties,
        decl.capabilities,
        decl.creates_labels,
        decl.removes_labels,
    ) == "service31024044"


def test_each_service_block_builds_one_declaration(monkeypatch):
    built = []
    new_record = policy_module._new_record

    def counting(cls, fields):
        if cls is ServiceDecl:
            built.append(None)
        return new_record(cls, fields)

    monkeypatch.setattr(policy_module, "_new_record", counting)
    ast = parse_policy(HOISTED)
    assert len(ast.services) == 3  # s and two hoisted inline targets
    assert len(built) == 3


# These two endpoints hash to the same 8-digit id, service41364700.
CLASHING = """
service { id s endpoint "svc://s" }
flow_rule { id a when service { endpoint "https://h14393/.+" } receives raw decide drop }
flow_rule { id b when service { endpoint "https://h22416/.+" } receives raw decide drop }
flow_rule { id c when service { endpoint "https://h22416/.+" } receives pii decide drop }
"""


_PARSERS = pytest.mark.parametrize(
    "parse",
    [parse_policy, lambda text: _PolicyParser(text).parse()],
    ids=["parse_policy", "token_parser"],
)


@_PARSERS
def test_clashing_inline_ids_take_the_longer_id(parse):
    first, second = "https://h14393/.+", "https://h22416/.+"
    assert generated_service_id(first) == generated_service_id(second)
    ast = parse(CLASHING)
    a, b, c = ast.rules
    assert a.target == "service41364700" == generated_service_id(first)
    assert b.target == generated_service_id(second, digits=20)
    assert re.fullmatch(r"service\d{20}", b.target)
    assert c.target == b.target  # an identical block still collapses
    assert [s.id for s in ast.services] == ["s", a.target, b.target]
    assert _service(ast, b.target).endpoint == second


@_PARSERS
@pytest.mark.parametrize("declared_first", [True, False])
def test_an_inline_id_held_by_a_declared_service_takes_the_longer_id(
    parse, declared_first
):
    endpoint = "http[s]?://.+"
    declared = 'service { id service97000661 endpoint "svc://other" }'
    inline = f'flow_rule {{ when service {{ endpoint "{endpoint}" }} receives raw decide drop }}'
    named = "flow_rule { when service97000661 receives pii decide drop }"
    blocks = [declared, inline] if declared_first else [inline, declared]
    ast = parse("\n".join(blocks + [named]))
    hoisted, by_name = ast.rules
    assert hoisted.target == generated_service_id(endpoint, digits=20)
    assert _service(ast, hoisted.target).endpoint == endpoint
    assert by_name.target == "service97000661"
    assert _service(ast, by_name.target).endpoint == "svc://other"
    # An identical declaration still collapses into the hoisted service.
    same = 'service { id service97000661 endpoint "http[s]?://.+" }'
    ast = parse("\n".join([inline, same] if declared_first else [same, inline]))
    assert [s.id for s in ast.services] == ["service97000661"]
    assert ast.rules[0].target == "service97000661"


def test_validation_service_without_id():
    ast = PolicyAst((ServiceDecl("", "x"),))
    with pytest.raises(ValidationError) as exc:
        compile_policy(ast)
    assert str(exc.value) == "service declaration without id"


def test_validation_unknown_effect():
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (Atom("a"),), Decision("maybe")),),
    )
    with pytest.raises(ValidationError) as exc:
        compile_policy(ast)
    assert str(exc.value) == "rule 'r' has unknown effect 'maybe'"


def test_validation_unknown_otherwise_effect():
    obligation = Obligation(Compound("audit", (Atom("message"),)), "maybe")
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (Atom("a"),), Decision("drop", (obligation,))),),
    )
    with pytest.raises(ValidationError) as exc:
        compile_policy(ast)
    assert str(exc.value) == "rule 'r' obligation has unknown otherwise effect"


def test_anonymous_rules_are_numbered():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { when s receives a decide allow }
    flow_rule { when s receives b decide drop }
    """
    ast = parse_policy(text)
    assert [r.name for r in ast.rules] == ["rule1", "rule2"]


@_PARSERS
@pytest.mark.parametrize("anonymous_first", [True, False])
def test_anonymous_rules_skip_the_names_that_ids_hold(parse, anonymous_first):
    anonymous = "flow_rule { when s receives a decide drop }"
    named = "flow_rule { id rule1 when s receives a decide error }"
    blocks = [anonymous, named] if anonymous_first else [named, anonymous]
    ast = parse("\n".join(['service { id s endpoint "svc://s" }'] + blocks))
    names = ["rule2", "rule1"] if anonymous_first else ["rule1", "rule2"]
    assert [r.name for r in ast.rules] == names
    assert list(compile_policy(ast).rule_index) == names


@_PARSERS
def test_parsing_checks_no_document_invariant(parse):
    # Every invariant is compile_policy's: the parsers build the AST as
    # written, and the compile step rejects it.
    text = """
    service { id s endpoint "([" creates_label a removes_label a }
    service { id s endpoint "svc://s" }
    flow_rule { id r when ghost receives a decide drop }
    flow_rule { id r when s receives a decide drop }
    """
    ast = parse(text)
    assert [s.id for s in ast.services] == ["s", "s"]
    assert [(r.name, r.target) for r in ast.rules] == [("r", "ghost"), ("r", "s")]
    with pytest.raises(ValidationError, match="invalid endpoint regex"):
        compile_policy(ast)


def test_obligation_default_otherwise_is_error():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { when s receives a decide allow require audit(message) }
    """
    (rule,) = parse_policy(text).rules
    assert rule.decision.obligations[0].otherwise == "error"


def test_unknown_effect_rejected():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { when s receives a decide maybe }
    """
    with pytest.raises(TermSyntaxError):
        parse_policy(text)


def test_keyword_cannot_start_list_element():
    text = """
    service { id s endpoint "svc://s" creates_label decide }
    """
    with pytest.raises(TermSyntaxError):
        parse_policy(text)


@pytest.mark.parametrize("keyword", sorted(_SECTION_KEYWORDS))
def test_keyword_functor_round_trips(keyword):
    decl = ServiceDecl("s", "x", creates_labels=(Compound(keyword, (Int(1),)),))
    ast = PolicyAst((decl,))
    compile_policy(ast)
    text = format_policy(ast)
    assert f"  creates_label {keyword}(1)\n" in text
    assert parse_policy(text) == ast


def test_service_without_endpoint_rejected():
    with pytest.raises(TermSyntaxError):
        parse_policy("service { id s }")


_SVC = 'service {\n  id s\n  endpoint "s://.+"\n}\n'

# One malformed document per raise site of the policy parser, plus the
# tokenizer's own errors in policy context. Each row pins (message, line,
# column).
POLICY_SYNTAX_ERRORS = [
    (
        "// c\n" + _SVC + "  bogus",
        ("expected 'service' or 'flow_rule', found 'bogus'", 6, 3),
    ),
    (
        'service {\n  id s\n  endpoint "s://.+"\n  color red\n}',
        ("unexpected token in service block: 'color'", 4, 3),
    ),
    ("service {\n  id s\n}\n\n  flow_rule", ("service block missing endpoint", 5, 3)),
    ("service {\n  id s\n}", ("service block missing endpoint", 3, 2)),
    (
        _SVC + "flow_rule {\n  when service {\n    id t\n  } receives raw\n}",
        ("service block missing endpoint", 8, 5),
    ),
    (
        _SVC + "flow_rule {\n  when s receives raw,\n    decide drop\n}",
        ("keyword 'decide' cannot start a term", 7, 5),
    ),
    (
        _SVC + "flow_rule {\n  when s receives raw\n  decide panic\n}",
        ("unknown effect 'panic'", 7, 10),
    ),
    (
        _SVC
        + "flow_rule {\n  when s receives raw\n  decide drop\n"
        + "    require log(x) otherwise shrug\n}",
        ("unknown effect 'shrug'", 8, 30),
    ),
    (
        _SVC + "flow_rule {\n  id r\n  receives raw\n}",
        ("expected 'when', found 'receives'", 7, 3),
    ),
    (
        '// "quoted\n' + _SVC + 'flow_rule {\n  when s receives "a\nb" decide\n}',
        ("expected 'atom', found '}'", 9, 1),
    ),
    ("service {\n  id s\n  endpoint /x/\n}", ("unexpected character '/'", 3, 12)),
    # The offending lexeme also occurs before and after the reported one.
    (
        _SVC
        + "flow_rule { when s receives bogus decide drop }\n  bogus\n"
        + "flow_rule { when s receives bogus decide drop }",
        ("expected 'service' or 'flow_rule', found 'bogus'", 6, 3),
    ),
    (
        'service {\n  id s\n  s\n  endpoint "s"\n}\n'
        + "flow_rule { when s receives a decide drop }",
        ("unexpected token in service block: 's'", 3, 3),
    ),
    (
        'service { id a endpoint "x" }\nservice { id t }\n  service { id u }\nservice',
        ("service block missing endpoint", 3, 3),
    ),
    (
        _SVC
        + "flow_rule {\n  when s receives raw\n  decide drop\n}\n"
        + "flow_rule {\n  when s receives raw,\n    decide drop\n}\n"
        + "flow_rule { when s receives a decide drop }",
        ("keyword 'decide' cannot start a term", 11, 5),
    ),
    (
        _SVC
        + "flow_rule {\n  when s receives panic\n  decide panic\n}\n"
        + "flow_rule { when s receives panic decide drop }",
        ("unknown effect 'panic'", 7, 10),
    ),
    (
        _SVC
        + "flow_rule {\n  when s receives raw\n  decide drop\n"
        + "    require log(shrug) otherwise shrug\n}\n"
        + "flow_rule { when s receives shrug decide drop }",
        ("unknown effect 'shrug'", 8, 34),
    ),
    (
        _SVC
        + "flow_rule { when s receives a decide drop }\n"
        + "flow_rule {\n  id r\n  receives raw\n}\n"
        + "flow_rule { when s receives b decide drop }",
        ("expected 'when', found 'receives'", 8, 3),
    ),
]


@pytest.mark.parametrize("text, expected", POLICY_SYNTAX_ERRORS)
def test_syntax_error_positions(text, expected):
    with pytest.raises(TermSyntaxError) as exc:
        parse_policy(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == expected


def test_validation_duplicate_service():
    text = 'service { id s endpoint "a" }\nservice { id s endpoint "b" }'
    with pytest.raises(ValidationError):
        compile_policy(parse_policy(text))


def test_validation_duplicate_rule():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { id r when s receives a decide allow }
    flow_rule { id r when s receives b decide drop }
    """
    with pytest.raises(ValidationError):
        compile_policy(parse_policy(text))


def test_validation_bad_endpoint_regex():
    with pytest.raises(ValidationError):
        compile_policy(parse_policy('service { id s endpoint "([" }'))


@pytest.mark.parametrize("endpoint", ["([", "svc://(", "x{4294967295}"])
def test_invalid_endpoint_regex_keeps_re_s_message(endpoint):
    with pytest.raises((re.error, OverflowError)) as expected:
        re.compile(endpoint)
    with pytest.raises(ValidationError) as exc:
        compile_policy(parse_policy(f'service {{ id s endpoint "{endpoint}" }}'))
    assert str(exc.value) == (
        f"service 's' has an invalid endpoint regex: {expected.value}"
    )


def test_too_deeply_nested_endpoint_regex_is_a_validation_error():
    endpoint = "(" * 600 + "a" + ")" * 600
    with pytest.raises(ValidationError) as exc:
        compile_policy(parse_policy(f'service {{ id s endpoint "{endpoint}" }}'))
    assert str(exc.value).startswith(
        "service 's' has an invalid endpoint regex: maximum recursion depth exceeded"
    )


def test_validation_creates_removes_overlap():
    text = 'service { id s endpoint "x" creates_label a removes_label a }'
    with pytest.raises(ValidationError):
        compile_policy(parse_policy(text))


@pytest.mark.parametrize("label", ["pair(b, X)", "_", "f(g(h(1, Y)))"])
def test_validation_created_label_must_be_ground(label):
    text = f'service {{ id s endpoint "x" creates_label a, {label} removes_label r(X) }}'
    with pytest.raises(ValidationError, match=r"service 's' creates non-ground label"):
        compile_policy(parse_policy(text))


def test_validation_undeclared_target():
    text = "flow_rule { when ghost receives a decide drop }"
    with pytest.raises(ValidationError):
        compile_policy(parse_policy(text))


def test_validation_empty_triggers():
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (), Decision("drop")),),
    )
    with pytest.raises(ValidationError):
        compile_policy(ast)


def _assert_record_types(ast):
    """Every record of ``ast`` has exactly its type: a bare tuple with the
    same fields would compare equal to it."""
    assert type(ast) is PolicyAst
    assert all(type(s) is ServiceDecl for s in ast.services)
    assert all(type(r) is FlowRule for r in ast.rules)
    assert all(type(r.decision) is Decision for r in ast.rules)
    assert all(
        type(ob) is Obligation for r in ast.rules for ob in r.decision.obligations
    )


def test_comments_and_fixture_parse():
    text = read_fixture("dont_publish_raw.lucon")
    ast = parse_policy(text)
    assert {r.name for r in ast.rules} == {"dontPublishRaw"}
    for parsed in (_BlockRecognizer().parse(text), _token_parse(text)):
        _assert_record_types(parsed)


def test_format_parse_identity_on_fixture():
    ast = parse_policy(read_fixture("dont_publish_raw.lucon"))
    assert parse_policy(format_policy(ast)) == ast


# -- round-trip property over generated ASTs --------------------------------

names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in _SECTION_KEYWORDS
)


def _is_valid_regex(pattern: str) -> bool:
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True

# A keyword may name a compound: only a bare keyword ends a term list.
functors = st.one_of(names, st.sampled_from(sorted(_SECTION_KEYWORDS)))

label_terms = st.one_of(
    names.map(Atom),
    st.builds(lambda f, n: Compound(f, (Int(n),)), functors, st.integers(0, 99)),
)

service_decls = st.builds(
    ServiceDecl,
    id=names,
    endpoint=st.from_regex(r"[a-z]{1,4}://[a-z.+]{1,8}", fullmatch=True).filter(
        _is_valid_regex
    ),
    properties=st.lists(label_terms, max_size=2).map(tuple),
    capabilities=st.lists(label_terms, max_size=2).map(tuple),
    creates_labels=st.lists(label_terms, max_size=2, unique=True).map(tuple),
)


@st.composite
def policy_asts(draw):
    services = draw(
        st.lists(service_decls, min_size=1, max_size=3, unique_by=lambda s: s.id)
    )
    rules = []
    n_rules = draw(st.integers(0, 3))
    for i in range(n_rules):
        target = draw(st.sampled_from(services)).id
        triggers = tuple(draw(st.lists(label_terms, min_size=1, max_size=2)))
        effect = draw(st.sampled_from(("allow", "drop", "error")))
        obligations = tuple(
            Obligation(Compound("act", (Atom("message"),)), ow)
            for ow in draw(st.lists(st.sampled_from(("allow", "drop", "error")), max_size=2))
        )
        rules.append(FlowRule(f"rule{i + 1}", target, triggers, Decision(effect, obligations)))
    ast = PolicyAst(tuple(services), tuple(rules))
    compile_policy(ast)
    return ast


@given(policy_asts())
def test_format_parse_round_trip(ast):
    assert parse_policy(format_policy(ast)) == ast


# -- the block recognizer against the token parser ---------------------------


def _outcome(parse, text):
    """The AST, or the error as (type, message, line, column). Equal ASTs
    compile to the same tables or raise the same ``ValidationError``."""
    try:
        return parse(text)
    except TermSyntaxError as exc:
        return (TermSyntaxError, exc.message, exc.line, exc.column)


def _token_parse(text):
    return _PolicyParser(text).parse()


def _assert_same_outcome(text):
    assert _outcome(parse_policy, text) == _outcome(_token_parse, text)


_LEXEMES = _token_pattern("//")

# An integer literal one digit past what ``int`` converts from text.
_LONG_INT = "9" * (sys.get_int_max_str_digits() + 1)

# What a lexeme may be swapped for: every keyword, digit-led and non-ASCII
# names, a non-decimal digit, escaped and plain strings, an over-long
# integer, and other leaves and punctuation.
_SWAPS = sorted(_SECTION_KEYWORDS) + [
    "1abc",
    "0x",
    "ñame",
    "Ñame",
    "ǅ",
    "²",
    "a²",
    '"a\\nb"',
    '"say \\"hi\\""',
    '"plain"',
    "X",
    "_",
    "-7",
    _LONG_INT,
    "f(g(1))",
    "(",
    ")",
    ",",
    "}",
]
# Separators put between some lexemes; "" may merge two lexemes into one,
# and a comment with no newline comments out the rest of its line.
_SEPARATORS = [
    "\t ",
    "//\n\n",
    '\n// f(a, "\n ',
    "  // creates_label a, id b require c\n",
    "",
    "// cut",
]


@st.composite
def mutated_documents(draw):
    text = format_policy(draw(policy_asts()))
    lexemes = [m[1] for m in _LEXEMES.finditer(text) if m[1]]
    edits = draw(st.lists(st.sampled_from(("delete", "duplicate", "swap")), max_size=2))
    for edit in edits:
        i = draw(st.integers(0, len(lexemes) - 1))
        if edit == "delete":
            del lexemes[i]
        elif edit == "duplicate":
            lexemes.insert(i, lexemes[i])
        else:
            lexemes[i] = draw(st.sampled_from(_SWAPS))
    seps = [draw(st.sampled_from((" ", "\n", "\n\t")))] * (len(lexemes) + 1)
    gaps = st.integers(0, len(lexemes))
    # The gap before a closing brace ends a block's last section or term,
    # so it gets draws of its own.
    braces = [i for i, lexeme in enumerate(lexemes) if lexeme == "}"]
    if braces:
        gaps = st.one_of(gaps, st.sampled_from(braces))
    for i in draw(st.lists(gaps, max_size=8)):
        seps[i] = draw(st.sampled_from(_SEPARATORS))
    text = seps[0] + "".join(map(str.__add__, lexemes, seps[1:]))
    kept_lexemes = not edits and "" not in seps and "// cut" not in seps
    return text, kept_lexemes


@settings(derandomize=True, max_examples=500)
@given(mutated_documents())
def test_recognizer_and_token_parser_agree_on_mutated_documents(document):
    text, kept_lexemes = document
    _assert_same_outcome(text)
    for ast in (_BlockRecognizer().parse(text), _outcome(_token_parse, text)):
        # None: outside the recognizer's subset; else an AST or an error
        if ast is not None and ast[0] is not TermSyntaxError:
            _assert_record_types(ast)
    if kept_lexemes:
        # A formatted document with only whitespace and comments changed
        # lies inside the subset.
        assert _BlockRecognizer().parse(text) == _token_parse(text)


_ONE_SERVICE = 'service { id s endpoint "svc://s" }\n'

# Documents on the lexical edges of the subset, each with whether the
# recognizer parses it (True) or hands it to the token parser (False).
LEXICAL_TRAPS = [
    # a digit-led name is two lexemes, an integer and a name
    (_ONE_SERVICE + "flow_rule { when s receives 1abc decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives f(1abc) decide drop }", False),
    ('service { id s endpoint "x" creates_label 1id x }', False),
    # the first character decides ATOM or VAR, also past ASCII
    (_ONE_SERVICE + "flow_rule { when s receives ñame decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives Ñame decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives ² decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives a², f(b²) decide drop }", True),
    (_ONE_SERVICE + "flow_rule { when s receives a١ decide drop }", True),
    (_ONE_SERVICE + "flow_rule { when s receives f(١٢) decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives X, _y, f(Z, _) decide drop }", True),
    # a name runs to its last word character
    (_ONE_SERVICE + "flow_rule { whens receives a decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receivesa decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives a decidedrop }", False),
    ('service { id s endpoint "x" creates_label xid y }', False),
    ('service{id s endpoint"x"creates_label a,b}', True),
    # comments between any two lexemes
    (
        "// head\nservice//a\n{//b\nid//c\ns//d\nendpoint//e\n\"svc://s\"//f\n}//g\n"
        "flow_rule//h\n{//i\nwhen//j\ns//k\nreceives//l\nf//m\n(//n\n1//o\n,//p\n"
        "\"a//b\"//q\n)//r\ndecide//s\ndrop//t\nrequire//u\nlog//v\n(//w\nmessage//x\n)"
        "//y\notherwise//z\nallow//\n}// tail",
        True,
    ),
    (_ONE_SERVICE + "flow_rule { when s receives a decide drop } / x", False),
    # ``service`` is a target only as an inline block
    (_ONE_SERVICE + "flow_rule { when service receives a decide drop }", False),
    ('service { id receives endpoint "x" }\nflow_rule { when receives receives a decide drop }', True),
    # a bare section keyword is no list element; a keyword functor is
    (_ONE_SERVICE + "flow_rule { when s receives a, id decide drop }", False),
    (_ONE_SERVICE + "flow_rule { when s receives id(1), f(when) decide drop }", True),
    (_ONE_SERVICE + "flow_rule { when s receives a decide drop require otherwise }", False),
    (_ONE_SERVICE + "flow_rule { id when when s receives a decide drop }", True),
    (_ONE_SERVICE + "flow_rule { id when s receives a decide drop }", False),
    # a block with no endpoint, top-level or inline
    ('service { id s }\nservice { id t endpoint "x" }', False),
    (_ONE_SERVICE + "flow_rule { when service { id t } receives a decide drop }", False),
    # outside the subset: escapes, nested compounds
    ('service { id s endpoint "a\\.b" }', False),
    (_ONE_SERVICE + "flow_rule { when s receives f(g(1)) decide drop }", False),
    # a comment after a block's last section holds no section
    ('service { id s endpoint "x" creates_label a // removes_label b, id t\n}', True),
    (
        _ONE_SERVICE + "flow_rule { when s receives a decide drop "
        "// require f(x) otherwise error\n}",
        True,
    ),
    # repeated sections: the last one wins
    ('service { id s endpoint "x" id t endpoint "y" creates_label a creates_label b }', True),
    # empty documents and strings
    ("", True),
    ("  // nothing\n", True),
    ('service { id s endpoint "" properties "" }', True),
]


@pytest.mark.parametrize("text, recognized", LEXICAL_TRAPS)
def test_lexical_traps(text, recognized):
    _assert_same_outcome(text)
    assert (_BlockRecognizer().parse(text) is not None) == recognized


@pytest.mark.parametrize(
    "before, literal, after",
    [
        (_ONE_SERVICE + "flow_rule { when s receives ", _LONG_INT, " decide drop }"),
        (
            _ONE_SERVICE + "flow_rule { when s receives f(a, ",
            "-" + _LONG_INT,
            ") decide drop }",
        ),
        ('service { id s endpoint "x"\n  creates_label n(', _LONG_INT, ") }"),
    ],
    ids=["trigger", "negative argument", "created label"],
)
def test_an_over_long_integer_is_a_syntax_error_at_the_literal(before, literal, after):
    text = before + literal + after
    _assert_same_outcome(text)
    assert _BlockRecognizer().parse(text) is None
    with pytest.raises(TermSyntaxError) as info:
        parse_policy(text)
    assert info.value.message == f"integer literal too long ({len(_LONG_INT)} digits)"
    lines = before.split("\n")
    assert (info.value.line, info.value.column) == (len(lines), len(lines[-1]) + 1)


def test_an_integer_at_the_digit_limit_is_recognized():
    text = _ONE_SERVICE + f"flow_rule {{ when s receives f({_LONG_INT[1:]}) decide drop }}"
    assert _BlockRecognizer().parse(text) == _token_parse(text)


def _benchmark_policies():
    from flowbench.gen import check_deep_inputs, check_large_inputs, enforce_inputs

    texts = [read_fixture("dont_publish_raw.lucon"), read_fixture("measurement_chain.lucon")]
    for seed in (1, 2):
        texts.append(enforce_inputs(seed).policy.text())
        for inputs in (check_deep_inputs(seed), check_large_inputs(seed)):
            texts.extend(policy.text() for _, policy in inputs.cases)
    return list(dict.fromkeys(texts))


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


def test_benchmark_policies_never_reach_the_token_parser(monkeypatch):
    texts = _benchmark_policies()
    expected = [_token_parse(text) for text in texts]
    fallbacks, calls = [], []
    parse, next_token = _PolicyParser.parse, Tokenizer.next
    monkeypatch.setattr(
        _PolicyParser, "parse", lambda self: fallbacks.append(None) or parse(self)
    )
    monkeypatch.setattr(
        Tokenizer, "next", lambda *args: calls.append(None) or next_token(*args)
    )
    block = _CountingPattern(policy_module._BLOCK)
    monkeypatch.setattr(policy_module, "_BLOCK", block)
    for text, ast in zip(texts, expected):
        block.calls = 0
        assert parse_policy(text) == ast
        # one match per top-level block, and one that finds the end
        blocks = re.findall(r"^(?:service|flow_rule) \{", text, re.MULTILINE)
        assert block.calls == len(blocks) + 1
    assert len(texts) == 2 + 2 * (1 + 2 + 9)
    assert fallbacks == [] and calls == []
