import random
import re

import pytest

from labelflow.engine import parse_program, parse_query, provable, solve
from labelflow.policy import parse_policy
from labelflow.policy_compiler import (
    compile_policy,
    emit_clauses,
    resolve_transforms,
    service_matches,
)
from labelflow.terms import Atom, Compound, Int, Str, Var

from .conftest import read_fixture

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
    dec = Atom(compiled.decision_id("dontPublishRaw"))
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
