import inspect
import random
import time
from collections import Counter

import pytest

from labelflow.policy import parse_policy
from labelflow.policy_compiler import compile_policy
from labelflow.routes import (
    Aggregate,
    From,
    Route,
    RouteError,
    Split,
    SplitJoinError,
    To,
    parse_route,
)
from labelflow.runtime import execute
from labelflow import verifier
from labelflow.terms import Atom, Compound, Int
from labelflow.verifier import (
    _Verifier,
    render_counterexample,
    render_verdict,
    verify,
)

from .conftest import read_fixture
from .helpers import (
    UNRULED_POLICY,
    dynamically_violates,
    random_dag,
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
    verdict = verify(route, compile_policy(policy.ast, default_effect="drop"))
    assert not verdict.valid
    (ce,) = verdict.counterexamples
    assert ce.rule == "default_deny"
    assert ce.offending_labels == frozenset({Atom("x")})


NAMESAKE_SERVICES = """
service { id sensor endpoint "svc://sensor" creates_label s }
service { id a endpoint "svc://a" }
service { id b endpoint "svc://b" creates_label raw }
service { id c endpoint "svc://c" }
flow_rule { id okB when b receives s decide allow }
"""


def _default_deny_verdict(route_text, rule):
    policy = parse_policy(NAMESAKE_SERVICES + rule)
    return verify(parse_route(route_text), compile_policy(policy, "drop"))


def test_a_rule_named_default_deny_hides_no_default_violation():
    # The default decision is reported as rule default_deny, but is keyed and
    # explained apart from a policy rule of that name.
    route = "route r {\n  1: from(sensor)\n  2: to(a)\n}"
    rule = "flow_rule { id default_deny when a receives other decide drop }"
    (ce,) = _default_deny_verdict(route, rule).counterexamples
    assert (ce.rule, ce.offending_labels) == ("default_deny", frozenset({Atom("s")}))
    assert "service a may receive label(s) [s]." in render_counterexample(ce, "r")
    choice_route = """
    route r {
      1: from(sensor)
      2: when env_prop(m, 1) then goto 3 otherwise goto 4
      3: to(b) -> 4
      4: to(c)
    }
    """
    for name in ("default_deny", "userRule"):
        rule = f"flow_rule {{ id {name} when c receives raw decide drop }}"
        verdict = _default_deny_verdict(choice_route, rule)
        assert [
            (ce.rule, ce.offending_labels, [n for n, _, _ in ce.trace])
            for ce in verdict.counterexamples
        ] == [
            (name, frozenset({Atom("raw")}), [1, 2, 3, 4]),
            ("default_deny", frozenset({Atom("s")}), [1, 2, 4]),
        ]


def test_counterexample_names_the_labels_a_pattern_trigger_matches():
    policy = compile_policy(
        parse_policy(
            """
            service { id sensor endpoint "sensor://.+" creates_label raw, w(3) }
            service { id pub endpoint "https://public.example/.+" }
            flow_rule { id noW when pub receives w(X) decide drop }
            """
        )
    )
    route = parse_route(
        """
        route r {
          services { s = "sensor://probe" }
          1: from(s)
          2: to(pub)
        }
        """
    )
    (ce,) = verify(route, policy).counterexamples
    assert ce.rule == "noW"
    assert ce.offending_labels == frozenset({Compound("w", (Int(3),))})
    assert "may receive label(s) [w(3)]." in render_counterexample(ce, route.name)


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


def _choice_chain(k: int, detour: bool, in_split: bool = False):
    """from(a), k choices in a row, then to(out).

    Without ``detour`` both targets of a choice are the next statement (a
    ladder); with it the then-branch passes a set_msg_prop first. With
    ``in_split`` the choices and to(out) form the first branch of a split
    whose second branch goes straight to its aggregate, which is followed
    by another to(out).
    """
    lines = ["route r {", '  services { a = "svc://src" }', "  1: from(a)"]
    n = 3 if in_split else 2
    for _ in range(k):
        nxt = n + 2 if detour else n + 1
        then = n + 1 if detour else nxt
        lines.append(
            f"  {n}: when env_prop(c{n}, 1) then goto {then} otherwise goto {nxt}"
        )
        if detour:
            lines.append(f"  {n + 1}: set_msg_prop x := 1")
        n = nxt
    if in_split:
        lines.insert(3, f"  2: split parts -> 3, {n + 1}")
        lines.append(f"  {n}: to(out) -> {n + 1}")
        lines.append(f"  {n + 1}: aggregate c")
        n += 2
    lines.append(f"  {n}: to(out)")
    lines.append("}")
    return parse_route("\n".join(lines))


CHAIN_POLICY = """
service { id src endpoint "svc://src" creates_label s }
service { id out endpoint "out" }
flow_rule { id noS when out receives s decide drop }
"""


def _summaries(route):
    """The verifier after its walk, and its summaries inside split branches.

    A state outside every split branch is memoised as visited with ``()``,
    because no split reads its outcomes.
    """
    policy = compile_policy(parse_policy(CHAIN_POLICY))
    v = _Verifier(route, policy, all_paths=False)
    v.explore()
    inside = {key: outcomes for key, outcomes in v.memo.items() if key[2] is not None}
    assert all(
        outcomes == () for key, outcomes in v.memo.items() if key[2] is None
    )
    return v, inside


def test_summary_keeps_one_outcome_per_exit_label_set():
    # The 12-choice ladder in a split branch has 4,096 paths that all reach
    # the aggregate with the same labels, so the branch head's summary holds
    # a single witness.
    v, summaries = _summaries(_choice_chain(12, detour=False, in_split=True))
    s = frozenset({Atom("s")})
    branch_head = summaries[(3, s, 16)]
    assert [exit_labels for exit_labels, _, _ in branch_head] == [s]
    assert len(summaries) == 13
    assert all(len(summary) == 1 for summary in summaries.values())


def test_choice_chain_is_linear_in_states():
    k = 2000
    v, summaries = _summaries(_choice_chain(k, detour=True, in_split=True))
    # from, split, the branch's 2k + 1 states, aggregate and to(out).
    assert v.states == 2 * k + 5
    assert len(summaries) == 2 * k + 1
    assert all(len(summary) == 1 for summary in summaries.values())
    route = _choice_chain(k, detour=True)
    verdict = verify(route, v.policy)
    assert verdict.explored_states == 2 * k + 2
    # The witness is the first-discovered path: every then-branch.
    (ce,) = verdict.counterexamples
    assert [n for n, _, _ in ce.trace] == list(range(1, 2 * k + 3))
    assert ce.choices == {n: True for n in range(2, 2 * k + 2, 2)}


def test_each_service_and_label_set_is_decided_once(monkeypatch):
    # svc receives {s} at statement 2 and on both arms of the choice; each
    # arrival is still checked and reported, from one decision.
    policy = compile_policy(
        parse_policy(
            """
            service { id src endpoint "svc://src" creates_label s }
            service { id svc endpoint "svc://svc" }
            flow_rule { id noS when svc receives s decide drop }
            """
        )
    )
    route = parse_route(
        """
        route r {
          services { a = "svc://src" b = "svc://svc" }
          1: from(a)
          2: to(b)
          3: when env_prop(m, 1) then goto 4 otherwise goto 5
          4: to(b) -> 6
          5: to(b) -> 6
          6: to(out)
        }
        """
    )
    calls = []
    decide = verifier.decide

    def counting(policy, service, labels, url=None):
        calls.append((service, labels))
        return decide(policy, service, labels, url)

    monkeypatch.setattr(verifier, "decide", counting)
    verdict = verify(route, policy)
    s = frozenset({Atom("s")})
    assert calls == [("b", s), ("out", s)]
    assert [
        ([n for n, _, _ in ce.trace], ce.choices) for ce in verdict.counterexamples
    ] == [([1, 2], {}), ([1, 2, 3, 4], {3: True}), ([1, 2, 3, 5], {3: False})]
    assert {ce.rule for ce in verdict.counterexamples} == {"noS"}
    assert verdict.explored_states == 6


def test_verify_rejects_an_unknown_default_effect():
    # The default effect is fixed when the policy is compiled, so "deny"
    # fails there, before any route state is visited; verify takes none.
    with pytest.raises(ValueError, match="unknown default effect 'deny'"):
        compile_policy(parse_policy(UNRULED_POLICY), "deny")
    assert "default_effect" not in inspect.signature(verify).parameters


def _wide_split(b: int):
    """A split of ``b`` branches, each a choice between to(mk) and to(nop).

    mk creates ``m`` and nop creates nothing, so the branches give 2^b
    combinations but only two distinct unions: 6 + 3b states.
    """
    join = 3 + 3 * b
    heads = [3 + 3 * i for i in range(b)]
    lines = [
        "route r {",
        '  services { a = "svc://src" }',
        "  1: from(a)",
        f"  2: split parts -> {', '.join(map(str, heads))}",
    ]
    for h in heads:
        lines.append(
            f"  {h}: when env_prop(c{h}, 1) then goto {h + 1} otherwise goto {h + 2}"
        )
        lines.append(f"  {h + 1}: to(mk) -> {join}")
        lines.append(f"  {h + 2}: to(nop) -> {join}")
    lines += [f"  {join}: aggregate c", f"  {join + 1}: to(out)", "}"]
    return parse_route("\n".join(lines))


SPLIT_POLICY = compile_policy(
    parse_policy(
        """
        service { id src endpoint "svc://src" }
        service { id mk endpoint "mk" creates_label m }
        service { id out endpoint "out" }
        flow_rule { id noM when out receives m decide drop }
        """
    )
)


def test_wide_split_reports_what_all_paths_finds_first():
    route = _wide_split(6)
    found = verify(route, SPLIT_POLICY)
    assert found.explored_states == 6 + 3 * 6
    exhaustive = verify(route, SPLIT_POLICY, all_paths=True)
    assert [
        (ce.rule, ce.trace, ce.choices) for ce in found.counterexamples
    ] == [
        (ce.rule, ce.trace, ce.choices)
        for ce in _first_per_violation(exhaustive.counterexamples)
    ]


def test_split_cost_follows_distinct_unions_not_branch_product():
    # 2^16 combinations against 2^8, but two distinct unions in both: the
    # fold's cost grows with the branches, so b = 16 costs about twice b = 8.
    def best_of_7(b):
        route = _wide_split(b)
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            verdict = verify(route, SPLIT_POLICY)
            best = min(best, time.perf_counter() - start)
        assert verdict.explored_states == 6 + 3 * b
        assert not verdict.valid
        return best

    small = best_of_7(8)
    large = best_of_7(16)
    assert large <= 8 * small, (small, large)


@pytest.mark.parametrize("b", [8, 16])
def test_split_fold_counts_distinct_partial_unions_not_branch_product(monkeypatch, b):
    # The count behind the timing above: each branch's summary holds two exit
    # sets, {m} and {}, and every fold step keeps two distinct partial
    # unions, so the fold builds 2b partial unions where the product has 2^b
    # combinations.
    folds = []
    combinations = _Verifier._combinations

    def recording(self, branch_outcomes):
        folds.append((self, branch_outcomes))
        return combinations(self, branch_outcomes)

    monkeypatch.setattr(_Verifier, "_combinations", recording)
    verdict = verify(_wide_split(b), SPLIT_POLICY)
    assert verdict.explored_states == 6 + 3 * b
    assert not verdict.valid
    [(v, branch_outcomes)] = folds
    assert [len(outcomes) for outcomes in branch_outcomes] == [2] * b
    # Each partial union is kept with one witness cell, so the cells built
    # during the fold count the partial unions.
    cells = []
    seq = verifier._Seq
    monkeypatch.setattr(verifier, "_Seq", lambda parts: cells.append(parts) or seq(parts))
    unions = combinations(v, branch_outcomes)
    assert [union for union, _, _ in unions] == [frozenset({Atom("m")}), frozenset()]
    assert len(cells) == 2 * b


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


# Policies over ``random_dag``'s two services ``src`` and ``t``, each
# violated by a ``t`` that follows a ``t``: a drop on a label that ``t``
# adds, an error on one that ``t`` adds while removing ``raw``, and default
# deny, under which ``t`` is allowed only while ``raw`` is held, so that a
# join whose other branch kept ``raw`` allows it again.
_SRC = 'service { id src endpoint "svc://src" creates_label raw }\n'
DAG_POLICIES = {
    "drop": compile_policy(
        parse_policy(
            _SRC
            + 'service { id t endpoint "svc://t" creates_label seen }\n'
            + "flow_rule { id once when t receives seen decide drop }\n"
        )
    ),
    "error": compile_policy(
        parse_policy(
            _SRC
            + 'service { id t endpoint "svc://t" removes_label raw creates_label seen }\n'
            + "flow_rule { id twice when t receives seen decide error }\n"
        )
    ),
    "default-deny": compile_policy(
        parse_policy(
            _SRC
            + 'service { id t endpoint "svc://t" removes_label raw }\n'
            + "flow_rule { id rawOnly when t receives raw decide allow }\n"
        ),
        default_effect="drop",
    ),
}


def test_agreement_with_dynamic_oracle_on_random_dags():
    # ``random_dag`` draws shapes that ``random_route`` never does, such as
    # branches that converge and choices inside branches. Every draft that
    # the route checks accept verifies as it runs, under each policy, and
    # neither ``verify`` nor ``execute`` raises on it.
    verdicts = Counter()
    for seed in range(1000):
        try:
            route = Route(**vars(random_dag(random.Random(seed))))
        except RouteError:
            continue
        splits = any(isinstance(s, Split) for s in route.statements.values())
        for name, policy in DAG_POLICIES.items():
            valid = verify(route, policy).valid
            assert valid == (not dynamically_violates(route, policy)), (seed, name)
            verdicts[name, splits, valid] += 1
    # About half the drafts are accepted, and each policy both holds and
    # fails on routes with and without splits.
    assert sum(verdicts.values()) >= 3 * 400
    for name in DAG_POLICIES:
        for splits in (False, True):
            for valid in (False, True):
                assert verdicts[name, splits, valid] >= 5, verdicts


@pytest.mark.parametrize("max_statements", [10, 40])
@pytest.mark.parametrize("seed", range(25))
def test_verify_decides_each_service_and_label_set_once(
    monkeypatch, seed, max_statements
):
    # The module docstring's claim: each distinct (service, arrival label
    # set) is decided once per verification, and all_paths decides the same
    # pairs.
    rng = random.Random(seed)
    route = random_route(rng, max_statements=max_statements)
    policy = random_policy(rng)
    calls = []
    decide = verifier.decide

    def counting(policy, service, labels, url=None):
        calls.append((service, labels))
        return decide(policy, service, labels, url)

    monkeypatch.setattr(verifier, "decide", counting)
    decided = {}
    for all_paths in (False, True):
        calls.clear()
        verify(route, policy, all_paths=all_paths)
        assert len(set(calls)) == len(calls)
        decided[all_paths] = set(calls)
    assert decided[False] == decided[True]


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
        if seed % 4 == 0:
            policy = compile_policy(policy.ast, default_effect="drop")
        found = verify(route, policy)
        exhaustive = verify(route, policy, all_paths=True)
        expected = _first_per_violation(exhaustive.counterexamples)
        assert [
            (ce.rule, ce.trace, ce.choices, ce.offending_labels)
            for ce in found.counterexamples
        ] == [
            (ce.rule, ce.trace, ce.choices, ce.offending_labels) for ce in expected
        ], f"seed {seed}"


def test_a_split_branch_that_ends_before_its_join_is_not_a_route():
    # Branch 3 has no successor, so it never reaches the join. Such a route
    # is never built, so the verifier has no case for a branch that ends
    # without an edge.
    with pytest.raises(
        SplitJoinError,
        match="^branches of split 2 do not all converge on one aggregate$",
    ):
        Route(
            "dead_end",
            {
                1: From("sensor"),
                2: Split(Atom("parts")),
                3: To("tagger"),
                4: To("plain"),
                5: Aggregate(Atom("concat")),
                6: To("sink"),
            },
            1,
            {1: (2,), 2: (3, 4), 4: (5,), 5: (6,)},
        )
