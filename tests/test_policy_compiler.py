import random
import re

import pytest

from labelflow import cli, policy_compiler
from labelflow.engine import parse_program, parse_query, provable, solve
from labelflow.policy import (
    Decision,
    FlowRule,
    PolicyAst,
    ServiceDecl,
    ValidationError,
    format_policy,
    parse_policy,
)
from labelflow.policy_compiler import (
    compile_policy,
    covering_declarations,
    emit_clauses,
    resolve_transforms,
    service_matches,
)
from labelflow.routes import parse_route
from labelflow.terms import Atom, Compound, Int, Str, Var, format_term, regex_prefix

from .conftest import FIXTURES, read_fixture
from .helpers import SERVICE_POOL, random_policy

POLICY = """
service {
  id sensor
  endpoint "sensor://.+"
  properties trusted
  capabilities read
  creates_label raw
}

service {
  id merge
  endpoint "bean://merge"
  removes_label raw
  creates_label merge(10)
}

flow_rule {
  id dontPublishRaw
  when service { endpoint "http[s]?://.+" } receives raw
  decide drop
    require log("leak", message) otherwise error
}
"""


@pytest.fixture
def compiled():
    return compile_policy(parse_policy(POLICY))


def test_service_fact_family(compiled):
    kb = compiled.kb
    assert provable(kb, parse_query("service(sensor)"))
    assert provable(kb, Compound("has_endpoint", (Atom("sensor"), Str("sensor://.+"))))
    assert provable(kb, parse_query("has_property(sensor, trusted)"))
    assert provable(kb, parse_query("has_capability(sensor, read)"))
    assert provable(kb, parse_query("creates_label(sensor, raw)"))
    assert provable(kb, parse_query("removes_label(merge, raw)"))
    assert provable(kb, parse_query("creates_label(merge, merge(10))"))


def test_rule_fact_family(compiled):
    kb = compiled.kb
    assert provable(kb, parse_query("rule(dontPublishRaw)"))
    (sol,) = solve(kb, Compound("has_target", (Atom("dontPublishRaw"), Var("S"))))
    target = sol["S"]
    assert provable(kb, Compound("service", (target,)))
    assert provable(kb, parse_query("receives_label(dontPublishRaw, raw)"))
    dec = Atom("dec_dontPublishRaw")
    assert provable(kb, Compound("has_decision", (Atom("dontPublishRaw"), dec)))
    assert provable(kb, Compound("has_effect", (dec, Atom("drop"))))
    assert provable(
        kb,
        Compound(
            "has_obligation",
            (dec, Compound("log", (Str("leak"), Atom("message")))),
        ),
    )


def test_rules_are_queryable_by_label(compiled):
    # The motivating query shape: which rules fire on a label?
    sols = list(
        solve(compiled.kb, parse_query("receives_label(R, raw), has_target(R, S)"))
    )
    assert [s["R"] for s in sols] == [Atom("dontPublishRaw")]


def test_compilation_is_deterministic(compiled):
    again = compile_policy(parse_policy(POLICY))
    assert emit_clauses(again) == emit_clauses(compiled)


def test_emit_clauses_parses_back(compiled):
    assert parse_program(emit_clauses(compiled)) == list(compiled.kb.clauses)


def test_indexes_preserve_declaration_order(compiled):
    assert list(compiled.rule_index) == ["dontPublishRaw"]
    assert list(compiled.service_index)[:2] == ["sensor", "merge"]


def covering(cp, target):
    return [sid for sid in cp.service_index if service_matches(cp, sid, target)]


def test_service_matches_anchored(compiled):
    assert covering(compiled, "sensor://temp1") == ["sensor"]
    # A substring match is not enough: matching is anchored at both ends.
    assert covering(compiled, "xsensor://temp1x") == []
    assert covering(compiled, "https://mq.example/out")[0].startswith("service")


def test_service_matches_by_id_and_pattern(compiled):
    assert service_matches(compiled, "merge", "merge")
    assert service_matches(compiled, "merge", "bean://merge")
    assert not service_matches(compiled, "merge", "bean://other")
    assert not service_matches(compiled, "nobody", "bean://merge")


def test_resolve_transforms(compiled):
    removes, creates = resolve_transforms(compiled, "bean://merge")
    assert removes == frozenset({Atom("raw")})
    assert creates == frozenset({Compound("merge", (Int(10),))})
    assert resolve_transforms(compiled, "nowhere://") == (frozenset(), frozenset())


def test_resolve_transforms_unions_all_matches():
    text = """
    service { id a endpoint "svc://.+" creates_label one }
    service { id b endpoint "svc://x" creates_label two }
    """
    cp = compile_policy(parse_policy(text))
    _, creates = resolve_transforms(cp, "svc://x")
    assert creates == frozenset({Atom("one"), Atom("two")})


def test_resolve_transforms_returns_the_pair_its_coverage_holds(compiled):
    pair = resolve_transforms(compiled, "merge", "bean://merge")
    assert resolve_transforms(compiled, "merge", "bean://merge") is pair
    assert covering_declarations(compiled, "merge", "bean://merge").transforms is pair


def test_fixture_compiles(tmp_path):
    cp = compile_policy(parse_policy(read_fixture("dont_publish_raw.lucon")))
    text = emit_clauses(cp)
    assert "rule(dontPublishRaw)." in text
    assert "creates_label(sensor, raw)." in text


URL_ALPHABET = ["sensor://temp1", "bean://merge", "https://mq.example/out"]


def test_service_matches_against_re_oracle(compiled):
    rng = random.Random(0)
    urls = URL_ALPHABET + list(compiled.service_index) + [
        "".join(rng.choice("abc:/.+") for _ in range(rng.randint(1, 12)))
        for _ in range(300)
    ]
    for url in urls:
        expected = [
            s.id
            for s in compiled.ast.services
            if s.id == url or re.fullmatch(s.endpoint, url) is not None
        ]
        assert covering(compiled, url) == expected


def _coverage_by_definition(cp, atom, url):
    return tuple(
        sid
        for sid in cp.service_index
        if service_matches(cp, sid, atom)
        or (url is not None and service_matches(cp, sid, url))
    )


def _assert_coverage_by_definition(cp, requests):
    for atom, url in requests:
        got = covering_declarations(cp, atom, url)
        assert tuple(got) == _coverage_by_definition(cp, atom, url), (atom, url)


SHARED_URL_POLICY = """
service { id merge endpoint "bean://merge" }
service { id anyBean endpoint "bean://.+" }
service { id sensor endpoint "sensor://.+" }
flow_rule { id r1 when service { endpoint "bean://m.*" } receives raw decide drop }
flow_rule { id r2 when service { endpoint "merge" } receives raw decide drop }
"""


def test_coverage_agrees_with_service_matches():
    cp = compile_policy(parse_policy(SHARED_URL_POLICY))
    atoms = list(cp.service_index) + ["bean://merge", "pub", "sensor://t"]
    urls = [None, "bean://merge", "bean://x", "merge", "sensor://t", "https://p/"]
    _assert_coverage_by_definition(cp, [(a, u) for a in atoms for u in urls])
    # several declarations, inline ones too, match one URL
    assert len(covering_declarations(cp, "pub", "bean://merge")) == 3
    # an id equal to the atom covers it; an inline endpoint covers that id
    inline = cp.ast.rules[1].target
    assert list(covering_declarations(cp, "merge")) == ["merge", inline]


@pytest.mark.parametrize(
    "policy, route",
    [
        ("dont_publish_raw.lucon", "sensor.route"),
        ("measurement_chain.lucon", "measurement_chain.route"),
        ("dont_publish_raw.lucon", "measurement_chain.route"),
    ],
)
def test_fixture_coverage_agrees_with_service_matches(policy, route):
    cp = compile_policy(parse_policy(read_fixture(policy)))
    endpoints = parse_route(read_fixture(route)).endpoints
    atoms = list(endpoints) + ["log", "merge", "sensor", "mqueue"]
    _assert_coverage_by_definition(
        cp, [(a, u) for a in atoms for u in (None, endpoints.get(a))]
    )


@pytest.mark.parametrize("seed", range(40))
def test_random_coverage_agrees_with_service_matches(seed):
    rng = random.Random(seed)
    cp = random_policy(rng)
    targets = list(SERVICE_POOL) + [f"svc://s{i}" for i in range(1, 6)]
    _assert_coverage_by_definition(
        cp, [(a, u) for a in targets for u in [None] + targets]
    )


@pytest.mark.parametrize(
    "source", [*range(40), "dont_publish_raw.lucon", "measurement_chain.lucon"]
)
def test_a_policy_compiles_to_facts_only(source):
    # A choice condition is one goal proved over these clauses, so no proof
    # in ``execute`` goes deeper than one resolution step; that is why
    # ``execute`` takes no solve limit.
    if isinstance(source, int):
        cp = random_policy(random.Random(source))
    else:
        cp = compile_policy(parse_policy(read_fixture(source)))
    assert cp.kb.clauses
    assert all(clause.is_fact for clause in cp.kb.clauses)


def test_each_endpoint_is_compiled_once(monkeypatch):
    # 600 endpoints overflow re's own cache (512). Validation and compilation
    # compile none of them; a lookup compiles only the endpoint whose literal
    # prefix admits its target, once per AST.
    endpoints = [f"svc://host{i}/.+" for i in range(600)]
    text = "\n".join(
        f'service {{ id s{i} endpoint "{e}" }}' for i, e in enumerate(endpoints)
    )
    calls: list = []
    compile_regex = re.compile

    def counting(pattern, flags=0):
        calls.append(pattern)
        return compile_regex(pattern, flags)

    re.purge()
    monkeypatch.setattr(re, "compile", counting)
    compiled = compile_policy(parse_policy(text))
    declared = set(endpoints)
    assert [p for p in calls if p in declared] == []
    for _ in range(2):
        assert service_matches(compiled, "s599", "svc://host599/x")
        assert list(covering_declarations(compiled, "svc://host599/x")) == ["s599"]
    assert [p for p in calls if p in declared] == ["svc://host599/.+"]
    with pytest.raises(ValidationError):
        compile_policy(parse_policy('service { id bad endpoint "svc://(" }'))


def _workload_policy_texts():
    from flowbench import gen

    yield gen.enforce_inputs(1).policy.text()
    for inputs in (gen.check_deep_inputs(1), gen.check_large_inputs(1)):
        for _, policy in inputs.cases:
            yield policy.text()


def test_every_workload_and_fixture_endpoint_is_in_the_subset():
    texts = list(_workload_policy_texts())
    for name in ("dont_publish_raw", "measurement_chain"):
        texts.append(read_fixture(f"{name}.lucon"))
    endpoints = {s.endpoint for text in texts for s in parse_policy(text).services}
    assert len(endpoints) > 100
    assert [e for e in endpoints if regex_prefix(e) is None] == []


def test_an_endpoint_outside_the_subset_still_covers_its_url():
    endpoint = "^https://a\\.example/x{2,3}$"
    assert regex_prefix(endpoint) is None
    quoted = format_term(Str(endpoint))
    cp = compile_policy(parse_policy(f"service {{ id a endpoint {quoted} }}"))
    assert cp.endpoint_patterns["a"] == ("", endpoint)
    assert list(covering_declarations(cp, "pub", "https://a.example/xx")) == ["a"]
    assert service_matches(cp, "a", "https://a.example/xxx")
    assert not service_matches(cp, "a", "https://a.example/x")


# -- compile_policy is the one gate -----------------------------------------

_S = ServiceDecl("s", "svc://s")
_RAW = (Atom("raw"),)


def _compile_error(ast):
    with pytest.raises(ValidationError) as exc:
        compile_policy(ast)
    return str(exc.value)


def test_a_hand_built_rule_with_an_unknown_effect_is_rejected_at_compile():
    # It used to compile, and ``decide`` then raised a bare KeyError.
    ast = PolicyAst((_S,), (FlowRule("r", "s", _RAW, Decision("deny")),))
    assert _compile_error(ast) == "rule 'r' has unknown effect 'deny'"


@pytest.mark.parametrize(
    "ast",
    [
        # It used to compile, and the rule silently never applied.
        PolicyAst((_S,), (FlowRule("r", "ghost", _RAW, Decision("drop")),)),
        # It used to escape compile_policy as a bare RegexError.
        PolicyAst((ServiceDecl("s", "(["),)),
    ],
    ids=["undeclared_target", "invalid_endpoint"],
)
def test_a_hand_built_ast_fails_as_its_parsed_document_does(ast):
    text = format_policy(ast)
    assert parse_policy(text) == ast
    assert _compile_error(ast) == _compile_error(parse_policy(text))


def test_one_check_validates_the_policy_once(monkeypatch, capsys):
    # The CLI compiles the policy, and so checks each endpoint, exactly once
    # per call; parsing checks none.
    compiles, prefixes = [], []
    compile_policy_, regex_prefix_ = cli.compile_policy, policy_compiler.regex_prefix

    def counting_compile(ast, default_effect="allow"):
        compiles.append(default_effect)
        return compile_policy_(ast, default_effect)

    def counting_prefix(pattern):
        prefixes.append(pattern)
        return regex_prefix_(pattern)

    monkeypatch.setattr(cli, "compile_policy", counting_compile)
    monkeypatch.setattr(policy_compiler, "regex_prefix", counting_prefix)
    policy = FIXTURES / "dont_publish_raw.lucon"
    route = str(FIXTURES / "sensor.route")
    services = parse_policy(policy.read_text(encoding="utf-8")).services
    assert prefixes == []
    for argv, effect in ([], "allow"), (["--default-deny"], "drop"):
        compiles.clear()
        prefixes.clear()
        assert cli.main(["check", route, str(policy), *argv]) == 1
        capsys.readouterr()
        assert compiles == [effect]
        assert prefixes == [s.endpoint for s in services]
