import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from labelflow.policy import (
    _SECTION_KEYWORDS,
    Decision,
    FlowRule,
    Obligation,
    PolicyAst,
    ServiceDecl,
    ValidationError,
    format_policy,
    generated_service_id,
    parse_policy,
    validate_policy,
)
from labelflow.terms import Atom, Compound, Int, Str, TermSyntaxError

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


def test_parse_service_declaration():
    ast = parse_policy(EXAMPLE)
    sensor = ast.service("sensor")
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
    target = ast.service(rule.target)
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
    decl = ast.service(rich.target)
    assert generated_service_id(
        decl.endpoint,
        decl.properties,
        decl.capabilities,
        decl.creates_labels,
        decl.removes_labels,
    ) == "service31024044"


def test_each_service_block_builds_one_declaration(monkeypatch):
    built = []
    init = ServiceDecl.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ServiceDecl, "__init__", counting)
    ast = parse_policy(HOISTED)
    assert len(ast.services) == 3  # s and two hoisted inline targets
    assert len(built) == 3


def test_validation_service_without_id():
    ast = PolicyAst((ServiceDecl("", "x"),))
    with pytest.raises(ValidationError) as exc:
        validate_policy(ast)
    assert str(exc.value) == "service declaration without id"


def test_validation_unknown_effect():
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (Atom("a"),), Decision("maybe")),),
    )
    with pytest.raises(ValidationError) as exc:
        validate_policy(ast)
    assert str(exc.value) == "rule 'r' has unknown effect 'maybe'"


def test_validation_unknown_otherwise_effect():
    obligation = Obligation(Compound("audit", (Atom("message"),)), "maybe")
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (Atom("a"),), Decision("drop", (obligation,))),),
    )
    with pytest.raises(ValidationError) as exc:
        validate_policy(ast)
    assert str(exc.value) == "rule 'r' obligation has unknown otherwise effect"


def test_anonymous_rules_are_numbered():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { when s receives a decide allow }
    flow_rule { when s receives b decide drop }
    """
    ast = parse_policy(text)
    assert [r.name for r in ast.rules] == ["rule1", "rule2"]


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
    validate_policy(ast)
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
        parse_policy(text)


def test_validation_duplicate_rule():
    text = """
    service { id s endpoint "svc://s" }
    flow_rule { id r when s receives a decide allow }
    flow_rule { id r when s receives b decide drop }
    """
    with pytest.raises(ValidationError):
        parse_policy(text)


def test_validation_bad_endpoint_regex():
    with pytest.raises(ValidationError):
        parse_policy('service { id s endpoint "([" }')


@pytest.mark.parametrize("endpoint", ["([", "svc://(", "x{4294967295}"])
def test_invalid_endpoint_regex_keeps_re_s_message(endpoint):
    with pytest.raises((re.error, OverflowError)) as expected:
        re.compile(endpoint)
    with pytest.raises(ValidationError) as exc:
        parse_policy(f'service {{ id s endpoint "{endpoint}" }}')
    assert str(exc.value) == (
        f"service 's' has an invalid endpoint regex: {expected.value}"
    )


def test_too_deeply_nested_endpoint_regex_is_a_validation_error():
    endpoint = "(" * 600 + "a" + ")" * 600
    with pytest.raises(ValidationError) as exc:
        parse_policy(f'service {{ id s endpoint "{endpoint}" }}')
    assert str(exc.value).startswith(
        "service 's' has an invalid endpoint regex: maximum recursion depth exceeded"
    )


def test_validation_creates_removes_overlap():
    with pytest.raises(ValidationError):
        parse_policy('service { id s endpoint "x" creates_label a removes_label a }')


@pytest.mark.parametrize("label", ["pair(b, X)", "_", "f(g(h(1, Y)))"])
def test_validation_created_label_must_be_ground(label):
    text = f'service {{ id s endpoint "x" creates_label a, {label} removes_label r(X) }}'
    with pytest.raises(ValidationError, match=r"service 's' creates non-ground label"):
        parse_policy(text)


def test_validation_undeclared_target():
    with pytest.raises(ValidationError):
        parse_policy("flow_rule { when ghost receives a decide drop }")


def test_validation_empty_triggers():
    ast = PolicyAst(
        (ServiceDecl("s", "x"),),
        (FlowRule("r", "s", (), Decision("drop")),),
    )
    with pytest.raises(ValidationError):
        validate_policy(ast)


def test_comments_and_fixture_parse():
    ast = parse_policy(read_fixture("dont_publish_raw.lucon"))
    assert {r.name for r in ast.rules} == {"dontPublishRaw"}


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
    validate_policy(ast)
    return ast


@given(policy_asts())
def test_format_parse_round_trip(ast):
    assert parse_policy(format_policy(ast)) == ast
