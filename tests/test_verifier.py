import random

import pytest

from labelflow.policy import parse_policy
from labelflow.policy_compiler import compile_policy
from labelflow.routes import parse_route
from labelflow.runtime import execute
from labelflow.terms import Atom, Compound, Int
from labelflow.verifier import (
    _Verifier,
    render_counterexample,
    render_verdict,
    verify,
)

from .conftest import read_fixture
from .helpers import (
    dynamically_violates,
    random_policy,
    random_route,
    registry_for,
)


def test_fixture_counterexample_golden_text(sensor_route, dont_publish_raw):
    verdict = verify(sensor_route, dont_publish_raw)
    assert not verdict.valid
    (ce,) = verdict.counterexamples
    rendered = render_counterexample(ce, sensor_route.name)
    assert rendered == read_fixture("expected_counterexample.txt")


def test_fixture_counterexample_structure(sensor_route, dont_publish_raw):
    (ce,) = verify(sensor_route, dont_publish_raw).counterexamples
    assert ce.rule == "dontPublishRaw"
    assert ce.violating_service == "mqueue"
    assert ce.offending_labels == frozenset({Atom("raw")})
    assert [n for n, _, _ in ce.trace] == [1, 2, 3, 5, 6]
    assert [node for _, node, _ in ce.trace] == [
        "sensor",
        "split",
        "log",
        "aggr",
        "mqueue",
    ]
    d = ce.to_dict()
    assert d["labels"] == ["raw"]
    assert d["trace"][0]["node"] == "sensor"


def test_valid_route_when_labels_are_scrubbed():
    policy = compile_policy(parse_policy(read_fixture("measurement_chain.lucon")))
    route = parse_route(
        """
        route clean {
          services { sensor = "sensor://temp1" mqueue = "https://mq.example/out" }
          1: from(sensor)
          2: bean(merge)
          3: to(mqueue)
        }
        """
    )
    with_rule = compile_policy(
        parse_policy(
            read_fixture("measurement_chain.lucon")
            + """
            flow_rule { id noRaw when mqueue receives raw decide drop }
            """
        )
    )
    verdict = verify(route, with_rule)
    assert verdict.valid
    assert verdict.counterexamples == []
    assert render_verdict(verdict, route.name) == "Route clean is valid.\n"


def test_scrubbing_one_branch_is_not_enough(sensor_route):
    # merge removes raw in its branch, but the log branch re-contributes it
    # at the aggregate, so publishing is still forbidden.
    policy = compile_policy(
        parse_policy(
            """
            service { id sensor endpoint "sensor://.+" creates_label raw }
            service { id merge endpoint "bean://merge"
                      removes_label raw creates_label merge(10) }
            flow_rule {
              id dontPublishRaw
              when service { endpoint "http[s]?://.+" } receives raw
              decide drop
            }
            """
        )
    )
    verdict = verify(sensor_route, policy)
    assert not verdict.valid
    (ce,) = verdict.counterexamples
    assert ce.violating_service == "mqueue"
    assert ce.offending_labels == frozenset({Atom("raw")})
    # The aggregate's union carries the merge window label alongside raw.
    final_labels = ce.trace[-1][2]
    assert Atom("raw") in final_labels
    assert Compound("merge", (Int(10),)) in final_labels


def test_both_choice_branches_are_explored():
    policy = compile_policy(
        parse_policy(
            """
            service { id src endpoint "svc://src" creates_label secret }
            service { id out endpoint "svc://out" }
            flow_rule { id noSecret when out receives secret decide drop }
            """
        )
    )
    route = parse_route(
        """
        route r {
          services { a = "svc://src" risky = "svc://out" }
          1: from(a)
          2: when env_prop(mode, 1) then goto 3 otherwise goto 4
          3: to(safe) -> end
          4: to(risky)
        }
        """
    )
    verdict = verify(route, policy)
    assert not verdict.valid
    (ce,) = verdict.counterexamples
    assert ce.violating_service == "risky"
    assert ce.choices == {2: False}


def test_verify_builds_no_knowledge_base(sensor_route, dont_publish_raw, kb_builds):
    # Choice conditions are not evaluated statically, so the clauses are
    # never needed and never built.
    route = parse_route(
        """
        route r {
          1: from(sensor)
          2: when env_prop(mode, 1) then goto 3 otherwise goto 4
          3: to(log) -> end
          4: to(mqueue)
        }
        """
    )
    assert not verify(sensor_route, dont_publish_raw).valid
    assert verify(route, dont_publish_raw).explored_states > 0
    assert kb_builds == []
    assert "kb" not in vars(dont_publish_raw)


def test_default_deny_counterexample_uses_arrival_labels():
    policy = compile_policy(
        parse_policy('service { id src endpoint "svc://src" creates_label x }')
    )
    route = parse_route(
        """
        route r {
          services { a = "svc://src" }
          1: from(a)
          2: to(anywhere)
        }
        """
    )
    verdict = verify(route, policy, default_effect="drop")
    assert not verdict.valid
    (ce,) = verdict.counterexamples
    assert ce.rule == "default_deny"
    assert ce.offending_labels == frozenset({Atom("x")})


def test_undeclared_services_warn(sensor_route):
    policy = compile_policy(
        parse_policy('service { id sensor endpoint "sensor://.+" }')
    )
    verdict = verify(sensor_route, policy)
    undeclared = {w.split("'")[1] for w in verdict.warnings}
    assert undeclared == {"log", "merge", "mqueue"}


def test_counterexamples_deduplicate_per_rule_and_statement():
    policy = compile_policy(
        parse_policy(
            """
            service { id src endpoint "svc://src" creates_label bad }
            service { id out endpoint "svc://out" }
            flow_rule { id stop when out receives bad decide drop }
            """
        )
    )
    route = parse_route(
        """
        route r {
          services { a = "svc://src" sink = "svc://out" }
          1: from(a)
          2: when env_prop(m, 1) then goto 3 otherwise goto 4
          3: to(mid) -> 5
          4: to(mid2) -> 5
          5: to(sink)
        }
        """
    )
    deduped = verify(route, policy)
    assert len(deduped.counterexamples) == 1
    exhaustive = verify(route, policy, all_paths=True)
    assert len(exhaustive.counterexamples) == 2
    assert {ce.choices[2] for ce in exhaustive.counterexamples} == {True, False}
    assert deduped.valid == exhaustive.valid


def test_memoization_bounds_state_count():
    # A ladder of choices has exponentially many paths but few states.
    lines = ["route r {", '  services { a = "svc://src" }', "  1: from(a)"]
    n = 12
    for i in range(2, 2 + n):
        lines.append(
            f"  {i}: when env_prop(c{i}, 1) then goto {i + 1} otherwise goto {i + 1}"
        )
    lines.append(f"  {2 + n}: to(out)")
    lines.append("}")
    route = parse_route("\n".join(lines))
    policy = compile_policy(
        parse_policy('service { id src endpoint "svc://src" }')
    )
    verdict = verify(route, policy)
    assert verdict.valid
    assert verdict.explored_states <= 3 * len(route.statements)


def _choice_chain(k: int, detour: bool):
    """from(a), k choices in a row, then to(out).

    Without ``detour`` both targets of a choice are the next statement (a
    ladder); with it the then-branch passes a set_msg_prop first.
    """
    lines = ["route r {", '  services { a = "svc://src" }', "  1: from(a)"]
    n = 2
    for _ in range(k):
        nxt = n + 2 if detour else n + 1
        then = n + 1 if detour else nxt
        lines.append(
            f"  {n}: when env_prop(c{n}, 1) then goto {then} otherwise goto {nxt}"
        )
        if detour:
            lines.append(f"  {n + 1}: set_msg_prop x := 1")
        n = nxt
    lines.append(f"  {n}: to(out)")
    lines.append("}")
    return parse_route("\n".join(lines))


CHAIN_POLICY = """
service { id src endpoint "svc://src" creates_label s }
service { id out endpoint "out" }
flow_rule { id noS when out receives s decide drop }
"""


def _summaries(route):
    policy = compile_policy(parse_policy(CHAIN_POLICY))
    v = _Verifier(route, policy, "allow", all_paths=False)
    return v, v.explore()


def test_summary_keeps_one_outcome_per_exit_label_set():
    # The 12-choice ladder has 4,096 paths that all leave with the same
    # labels, so the entry state's summary holds a single witness.
    v, outcomes = _summaries(_choice_chain(12, detour=False))
    assert len(outcomes) == 1
    assert v.memo[(1, frozenset(), None)] is outcomes
    assert all(len(summary) == 1 for summary in v.memo.values())


def test_choice_chain_is_linear_in_states():
    k = 2000
    route = _choice_chain(k, detour=True)
    v, outcomes = _summaries(route)
    assert v.states == 2 * k + 2
    assert all(len(summary) == 1 for summary in v.memo.values())
    assert [exit_labels for exit_labels, _, _ in outcomes] == [
        frozenset({Atom("s")})
    ]
    verdict = verify(route, v.policy)
    assert verdict.explored_states == 2 * k + 2
    # The witness is the first-discovered path: every then-branch.
    (ce,) = verdict.counterexamples
    assert [n for n, _, _ in ce.trace] == list(range(1, 2 * k + 3))
    assert ce.choices == {n: True for n in range(2, 2 * k + 2, 2)}


# ---------------------------------------------------------------------------
# Random agreement and counterexample replay.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_agreement_with_dynamic_oracle(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    policy = random_policy(rng)
    assert verify(route, policy).valid == (not dynamically_violates(route, policy))


@pytest.mark.parametrize("seed", range(60))
def test_counterexamples_replay_dynamically(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    policy = random_policy(rng)
    for ce in verify(route, policy).counterexamples:
        outcome = execute(
            route,
            policy,
            registry_for(route),
            choice_decisions=ce.choices,
        )
        assert outcome.status in ("dropped", "errored")


@pytest.mark.parametrize("seed", range(30))
def test_all_paths_agrees_on_validity(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    policy = random_policy(rng)
    assert verify(route, policy).valid == verify(route, policy, all_paths=True).valid


def _first_per_violation(counterexamples):
    first = {}
    for ce in counterexamples:
        first.setdefault((ce.rule, ce.trace[-1][0]), ce)
    return list(first.values())


def test_counterexamples_are_first_discovered_paths():
    # Summaries must report, for each (rule, violating statement), exactly
    # the path the exhaustive enumeration finds first.
    for seed in range(500):
        rng = random.Random(seed)
        route = random_route(rng)
        policy = random_policy(rng)
        default_effect = "drop" if seed % 4 == 0 else "allow"
        found = verify(route, policy, default_effect=default_effect)
        exhaustive = verify(
            route, policy, all_paths=True, default_effect=default_effect
        )
        expected = _first_per_violation(exhaustive.counterexamples)
        assert [
            (ce.rule, ce.trace, ce.choices, ce.offending_labels)
            for ce in found.counterexamples
        ] == [
            (ce.rule, ce.trace, ce.choices, ce.offending_labels) for ce in expected
        ], f"seed {seed}"
