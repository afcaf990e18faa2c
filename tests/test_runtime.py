import json
import random
import time

import pytest

from labelflow import pdp, policy_compiler, routes, runtime
from labelflow.engine import (
    EngineError,
    KnowledgeBase,
    NameCollision,
    default_builtins,
    parse_program,
)
from labelflow.pdp import worst_case_policy
from labelflow.policy import parse_policy
from labelflow.policy_compiler import compile_policy
from labelflow.routes import node_names, parse_route
from labelflow.runtime import (
    IMPLICIT_LEAK_ROUTE,
    EvalError,
    ObligationRegistry,
    ServiceRegistry,
    UnresolvedService,
    echo_handler,
    eval_condition,
    eval_expr,
    execute,
    taint_permissiveness_demo,
)
from labelflow.terms import Atom, Compound, Int, Str, Var
from labelflow.verifier import verify

from .conftest import read_fixture
from .helpers import (
    SINK_ROUTE,
    exhaustive_outcomes,
    random_policy,
    random_route,
    reference_condition,
    sink_policy,
)

EMPTY_POLICY = compile_policy(
    parse_policy('service { id unused endpoint "unused://" }')
)

CHAIN_POLICY_TEXT = """
service { id src endpoint "svc://src" creates_label raw, temperature }
service { id refine endpoint "svc://refine" removes_label raw creates_label merge(10) }
service { id fussy endpoint "svc://fussy" }
flow_rule { id noRaw when fussy receives raw decide drop }
flow_rule { id noisy when fussy receives temperature decide error }
"""


def registry(route, **handlers):
    services = ServiceRegistry()
    for atom in route.service_atoms():
        services.register(atom, handlers.get(atom, echo_handler))
    return services


def run_route(text, policy=EMPTY_POLICY, **kwargs):
    route = parse_route(text)
    services = kwargs.pop("services", None) or registry(route)
    return execute(route, policy, services, **kwargs)


def audit_for(outcome, statement):
    return [ev for ev in outcome.audit if ev.statement == statement]


# ---------------------------------------------------------------------------
# One test per statement kind, asserting the exact post-state.
# ---------------------------------------------------------------------------


def chain_policy():
    return compile_policy(parse_policy(CHAIN_POLICY_TEXT))


def test_rule_from_creates_fresh_tainted_message():
    out = run_route(
        """
        route r {
          services { a = "svc://src" }
          1: from(a)
        }
        """,
        chain_policy(),
    )
    assert out.status == "completed"
    (msg,) = out.final_messages
    assert msg.labels == frozenset({Atom("raw"), Atom("temperature")})
    (ev,) = out.audit
    assert ev.labels_before == frozenset()
    assert ev.labels_after == msg.labels
    assert ev.decision is None  # sources are not decision points


def test_rule_to_transforms_labels_after_allow():
    out = run_route(
        """
        route r {
          services { a = "svc://src" b = "svc://refine" }
          1: from(a)
          2: to(b)
        }
        """,
        chain_policy(),
    )
    (ev,) = audit_for(out, 2)
    assert ev.decision == "allow"
    assert ev.labels_before == frozenset({Atom("raw"), Atom("temperature")})
    assert ev.labels_after == frozenset(
        {Atom("temperature"), Compound("merge", (Int(10),))}
    )


def test_rule_bean_behaves_like_to():
    out = run_route(
        """
        route r {
          services { a = "svc://src" b = "svc://refine" }
          1: from(a)
          2: bean(b)
        }
        """,
        chain_policy(),
    )
    (ev,) = audit_for(out, 2)
    assert ev.decision == "allow"
    assert ev.labels_after == frozenset(
        {Atom("temperature"), Compound("merge", (Int(10),))}
    )


CHOICE_ROUTE = """
route r {
  1: from(a)
  2: set_msg_prop mode := %(mode)d
  3: when msg_prop(mode, 1) then goto 4 otherwise goto 5
  4: to(then_branch) -> end
  5: to(else_branch)
}
"""


def test_rule_choice_true_takes_then_branch():
    out = run_route(CHOICE_ROUTE % {"mode": 1})
    assert [ev.statement for ev in out.audit] == [1, 2, 3, 4]
    (ev,) = audit_for(out, 3)
    assert ev.labels_before == ev.labels_after  # choice never touches taint


def test_rule_choice_false_takes_else_branch():
    out = run_route(CHOICE_ROUTE % {"mode": 0})
    assert [ev.statement for ev in out.audit] == [1, 2, 3, 5]


def test_executions_share_one_policy_base(monkeypatch):
    policy = chain_policy()
    built = []
    clauses = policy_compiler.policy_clauses

    def counting_clauses(ast):
        built.append(ast)
        return clauses(ast)

    monkeypatch.setattr(policy_compiler, "policy_clauses", counting_clauses)
    assert "kb" not in vars(policy)
    first = run_route(CHOICE_ROUTE % {"mode": 1}, policy)
    kb = policy.kb
    second = run_route(CHOICE_ROUTE % {"mode": 0}, policy)
    assert [first.status, second.status] == ["completed", "completed"]
    assert built == [policy.ast]
    assert policy.kb is kb


SPLIT_ROUTE = """
route r {
  services { a = "svc://src" b = "svc://refine" }
  1: from(a)
  2: split parts -> 3, 4
  3: to(b) -> 5
  4: to(keeper) -> 5
  5: aggregate concat
}
"""


def test_rule_split_copies_message_per_branch():
    out = run_route(SPLIT_ROUTE, chain_policy())
    entering_3 = audit_for(out, 3)[0]
    entering_4 = audit_for(out, 4)[0]
    # Each branch starts from a copy of the split message's label set.
    assert entering_3.labels_before == frozenset(
        {Atom("raw"), Atom("temperature")}
    )
    assert entering_4.labels_before == entering_3.labels_before
    assert entering_3.message_id != entering_4.message_id


def test_rule_aggregate_unions_branch_labels():
    out = run_route(SPLIT_ROUTE, chain_policy())
    (ev,) = audit_for(out, 5)
    # refine branch contributes merge(10)+temperature, keeper keeps raw.
    assert ev.labels_after == frozenset(
        {Atom("raw"), Atom("temperature"), Compound("merge", (Int(10),))}
    )
    (msg,) = out.final_messages
    assert msg.labels == ev.labels_after


def test_rule_set_msg_prop_updates_message_scope_only():
    out = run_route(
        """
        route r {
          1: from(a)
          2: set_msg_prop x := 41
          3: set_msg_prop x := 42
        }
        """
    )
    (msg,) = out.final_messages
    assert msg.props["x"] == Int(42)
    assert out.env == {}
    for ev in out.audit:
        assert ev.labels_before == ev.labels_after


def test_rule_set_env_prop_updates_global_scope():
    env = {}
    out = run_route(
        """
        route r {
          1: from(a)
          2: set_env_prop total := 7
        }
        """,
        env=env,
    )
    assert out.env is env
    assert env["total"] == Int(7)
    (msg,) = out.final_messages
    assert "total" not in msg.props


# ---------------------------------------------------------------------------
# Enforcement placement and policy effects.
# ---------------------------------------------------------------------------


def test_fixture_route_is_dropped_at_publish(sensor_route, dont_publish_raw):
    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    out = execute(sensor_route, dont_publish_raw, registry(sensor_route), obligations)
    assert out.status == "dropped"
    assert out.at_statement == 6
    assert out.rule == "dontPublishRaw"
    assert out.final_messages == []


def test_chain_route_label_evolution(chain_route):
    policy = compile_policy(parse_policy(read_fixture("measurement_chain.lucon")))
    out = execute(chain_route, policy, registry(chain_route))
    assert out.status == "completed"
    entering_a = audit_for(out, 1)[0]
    assert entering_a.labels_after == frozenset({Atom("raw"), Atom("temperature")})
    entering_c = audit_for(out, 3)[0]
    assert entering_c.labels_before == frozenset(
        {Atom("temperature"), Compound("merge", (Int(10),))}
    )


def test_dropped_message_never_reaches_handler(sensor_route, dont_publish_raw):
    calls = []

    def spy(payload, props):
        calls.append("mqueue")
        return payload, props

    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    out = execute(
        sensor_route,
        dont_publish_raw,
        registry(sensor_route, mqueue=spy),
        obligations,
    )
    assert out.status == "dropped"
    assert calls == []


def test_decisions_only_at_service_statements(sensor_route, dont_publish_raw):
    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    out = execute(sensor_route, dont_publish_raw, registry(sensor_route), obligations)
    decided = [ev.statement for ev in out.audit if ev.decision is not None]
    service_statements = [3, 4, 6]  # to(log), bean(merge), to(mqueue)
    assert decided == service_statements


def test_error_effect_terminates_exceptionally():
    out = run_route(
        """
        route r {
          services { a = "svc://src" b = "svc://fussy" }
          1: from(a)
          2: to(b)
        }
        """,
        chain_policy(),
    )
    assert out.status == "errored"
    assert out.at_statement == 2
    assert out.rule == "noisy"  # error (noisy) beats drop (noRaw)
    assert out.final_messages == []


def test_default_deny_drops_unmatched_service():
    out = run_route(
        "route r { 1: from(a) 2: to(b) }", default_effect="drop"
    )
    assert out.status == "dropped"
    assert out.rule is None


@pytest.mark.parametrize(
    "failing, statement", [("a", 1), ("b", 2)], ids=["from", "to"]
)
def test_handler_failure_is_an_error_without_rule(failing, statement):
    def boom(payload, props):
        raise RuntimeError("no disk")

    route_text = "route r { 1: from(a) 2: to(b) }"
    route = parse_route(route_text)
    out = run_route(route_text, services=registry(route, **{failing: boom}))
    assert out.status == "errored"
    assert out.at_statement == statement
    assert out.rule is None


def test_unresolved_service_rejected_up_front():
    route = parse_route("route r { 1: from(a) 2: to(b) }")
    services = ServiceRegistry()
    services.register("a", echo_handler)
    with pytest.raises(UnresolvedService):
        execute(route, EMPTY_POLICY, services)


def test_missing_handler_fails_every_execute_of_one_route():
    # The route's service list is derived once, but the registry is checked
    # on every execute, so registering the handler later is seen.
    route = parse_route("route r { 1: from(a) 2: to(b) }")
    services = ServiceRegistry()
    services.register("a", echo_handler)
    for _ in range(2):
        with pytest.raises(UnresolvedService):
            execute(route, EMPTY_POLICY, services)
    services.register("b", echo_handler)
    assert execute(route, EMPTY_POLICY, services).status == "completed"


def test_execute_derives_node_names_once_per_route(monkeypatch):
    calls = []

    def counting(route):
        calls.append(route)
        return node_names(route)

    monkeypatch.setattr(routes, "node_names", counting)
    route = parse_route(read_fixture("sensor.route"))
    services = registry(route)
    nodes = ["sensor", "split", "log", "merge", "aggr", "mqueue"]
    for _ in range(3):
        outcome = execute(route, EMPTY_POLICY, services)
        assert [ev.node for ev in outcome.audit] == nodes
    assert calls == [route]


# ---------------------------------------------------------------------------
# Obligations.
# ---------------------------------------------------------------------------

OBLIGATION_POLICY = """
service { id src endpoint "svc://src" creates_label raw }
service { id out endpoint "svc://out" }
flow_rule {
  id mustLog
  when out receives raw
  decide allow
    require log(message) otherwise drop
}
"""

OBLIGATION_ROUTE = """
route r {
  services { a = "svc://src" b = "svc://out" }
  1: from(a)
  2: to(b)
}
"""


def obligation_outcome(fn):
    policy = compile_policy(parse_policy(OBLIGATION_POLICY))
    obligations = ObligationRegistry()
    if fn is not None:
        obligations.register("log", 1, fn)
    return run_route(OBLIGATION_ROUTE, policy, obligations=obligations)


def test_obligation_success_applies_primary_effect():
    seen = []

    def log(args, msg):
        seen.append(args)
        return True

    out = obligation_outcome(log)
    assert out.status == "completed"
    (args,) = seen
    assert args == (Str("m1"),)  # `message` bound to the message reference


def test_obligation_failure_applies_otherwise_effect():
    out = obligation_outcome(lambda args, msg: False)
    assert out.status == "dropped"
    assert out.at_statement == 2
    assert out.rule == "mustLog"


def test_unregistered_obligation_counts_as_failure():
    out = obligation_outcome(None)
    assert out.status == "dropped"


def test_obligation_exception_counts_as_failure():
    def log(args, msg):
        raise OSError("log sink gone")

    assert obligation_outcome(log).status == "dropped"


def test_an_obligation_that_is_not_callable_counts_as_failure():
    # ``require 5`` parses, but a number names no obligation to invoke.
    policy = compile_policy(
        parse_policy(OBLIGATION_POLICY.replace("require log(message)", "require 5"))
    )
    out = run_route(OBLIGATION_ROUTE, policy, obligations=ObligationRegistry())
    assert (out.status, out.rule) == ("dropped", "mustLog")


# ---------------------------------------------------------------------------
# Expressions, conditions, globals.
# ---------------------------------------------------------------------------


def test_eval_expr_reads_scopes():
    props = {"t": Int(21)}
    env = {"limit": Int(30)}
    assert eval_expr(Compound("msg", (Atom("t"),)), props, env) == Int(21)
    assert eval_expr(Compound("env", (Atom("limit"),)), props, env) == Int(30)
    nested = Compound("pair", (Compound("msg", (Atom("t"),)), Int(1)))
    assert eval_expr(nested, props, env) == Compound("pair", (Int(21), Int(1)))
    # Only a one-argument msg(..)/env(..) reads; any other arity is data.
    two = Compound("msg", (Atom("t"), Compound("env", (Atom("limit"),))))
    assert eval_expr(two, props, env) == Compound("msg", (Atom("t"), Int(30)))


def test_eval_expr_unbound_variable():
    with pytest.raises(EvalError):
        eval_expr(Compound("msg", (Atom("missing"),)), {}, {})


def test_eval_condition_against_fact_base():
    assert eval_condition(
        Compound("msg_prop", (Atom("t"), Int(21))), {"t": Int(21)}, {}
    )
    assert not eval_condition(
        Compound("msg_prop", (Atom("t"), Int(22))), {"t": Int(21)}, {}
    )
    assert eval_condition(
        Compound("env_prop", (Atom("on"), Var("X"))), {}, {"on": Int(1)}
    )
    # Each answer renames the value's variables apart, as a fact would be.
    kb = KnowledgeBase(
        parse_program("both(a) :- msg_prop(x, a), msg_prop(y, b)."),
        default_builtins(),
    )
    assert eval_condition(
        Compound("both", (Atom("a"),)), {"x": Var("X"), "y": Var("X")}, {}, kb
    )


def test_eval_condition_keeps_variables_beside_reads():
    kb = KnowledgeBase(parse_program("tagged(s1, hot)."), default_builtins())
    props = {"svc": Atom("s1")}
    cond = Compound("tagged", (Compound("msg", (Atom("svc"),)), Var("T")))
    assert eval_condition(cond, props, {}, kb)
    props["svc"] = Atom("s2")
    assert not eval_condition(cond, props, {}, kb)
    with pytest.raises(EvalError, match="cannot evaluate"):
        eval_expr(cond, props, {})


# Rules that mix the context lookups with policy predicates, lt and negation.
CONDITION_RULES = parse_program(
    """
    both(A) :- msg_prop(x, A), msg_prop(y, A).
    pair(A, B) :- msg_prop(x, A), env_prop(y, B).
    hot(K) :- msg_prop(K, V), lt(20, V).
    creates(K, L) :- msg_prop(K, S), creates_label(S, L).
    targeted(K, R) :- msg_prop(K, S), has_target(R, S).
    shared(K) :- msg_prop(K, V), env_prop(K, V).
    absent(K) :- \\+ msg_prop(K, 1).
    """
)
CONTEXT_KEYS = ("x", "y", "n", "svc")
CONTEXT_VALUES = (
    Int(1), Int(7), Int(21), Int(35), Atom("s1"), Atom("s2"), Atom("s3"),
    Atom("r0"), Atom("r1"), Var("X"), Var("Y"),
    Compound("f", (Var("X"), Int(1))), Compound("f", (Atom("a"), Var("Z"))),
)


def random_context(rng, values) -> dict:
    keys = rng.sample(CONTEXT_KEYS, rng.randint(0, len(CONTEXT_KEYS)))
    return {k: rng.choice(values) for k in keys}


def random_condition(rng):
    key = rng.choice([Atom(k) for k in CONTEXT_KEYS] + [Var("K"), Int(1), Str("x")])
    value = rng.choice(CONTEXT_VALUES + (Var("V"),))
    return rng.choice([
        Compound("msg_prop", (key, value)),
        Compound("env_prop", (key, value)),
        Compound("both", (value,)),
        Compound("pair", (Var("A"), value)),
        Compound("hot", (key,)),
        Compound("creates", (key, rng.choice((Var("L"), Atom("la"), Atom("lc"))))),
        Compound("targeted", (key, Var("R"))),
        Compound("shared", (key,)),
        Compound("absent", (key,)),
    ])


@pytest.mark.parametrize("seed", range(20))
def test_condition_agrees_with_context_fact_base(seed):
    # The lookup builtins answer as one msg_prop/env_prop fact per variable
    # on a base that also holds the policy clauses: same truth value, or
    # the same engine error.
    rng = random.Random(seed)
    kb = KnowledgeBase(
        random_policy(rng).kb.clauses + tuple(CONDITION_RULES), default_builtins()
    )
    for _ in range(60):
        # Few distinct values per round, so that lookups meet and join.
        values = rng.sample(CONTEXT_VALUES, 3)
        cond = random_condition(rng)
        props, env = random_context(rng, values), random_context(rng, values)
        try:
            expected = reference_condition(cond, props, env, kb)
        except EngineError as exc:
            expected = type(exc)
        try:
            got = eval_condition(cond, props, env, kb)
        except EvalError as exc:
            got = type(exc.__cause__)
        assert got == expected, (cond, props, env)


def test_condition_on_a_base_with_context_clauses_is_an_error():
    kb = KnowledgeBase(parse_program("msg_prop(t, 21)."), default_builtins())
    with pytest.raises(EvalError) as err:
        eval_condition(Compound("msg_prop", (Atom("t"), Int(21))), {}, {}, kb)
    assert isinstance(err.value.__cause__, NameCollision)


def test_variable_key_over_a_non_name_prop_is_an_error():
    # A handler may set a key no atom can name; only a variable key meets it.
    props = {"t": Int(1), "my key": Int(1)}
    assert eval_condition(Compound("msg_prop", (Atom("t"), Int(1))), props, {})
    with pytest.raises(EvalError, match="'my key'"):
        eval_condition(Compound("msg_prop", (Var("K"), Int(2))), props, {})


def test_choices_build_no_knowledge_base(kb_builds):
    # The policy's base is built once, at the first condition; conditions
    # themselves build none.
    policy = compile_policy(parse_policy(CHAIN_POLICY_TEXT))
    route = parse_route(
        """
        route r {
          1: from(src)
          2: set_msg_prop t := 21
          3: when msg_prop(t, 21) then goto 4 otherwise goto 5
          4: when env_prop(on, 1) then goto 5 otherwise goto 5
          5: to(fussy)
        }
        """
    )
    for _ in range(2):
        out = execute(route, policy, registry(route), env={"on": Int(1)})
        assert [ev.statement for ev in out.audit] == [1, 2, 3, 4, 5]
    assert kb_builds == [len(policy.kb.clauses)]


def test_condition_cost_does_not_depend_on_context_size():
    cond = Compound("msg_prop", (Atom("t"), Int(21)))

    def best_of_15(n_props):
        props = {f"p{i}": Int(i) for i in range(n_props - 1)}
        props["t"] = Int(21)
        best = float("inf")
        for _ in range(15):
            start = time.perf_counter()
            for _ in range(10):
                assert eval_condition(cond, props, {})
            best = min(best, time.perf_counter() - start)
        return best

    small = best_of_15(2)
    large = best_of_15(1000)
    assert large <= 3 * small, (small, large)


def test_condition_cost_does_not_depend_on_policy_size():
    # A condition proves its goal on the compiled base as it is and builds
    # no base of its own, so a 5,000-rule base costs what a 10-rule base
    # costs.
    cond = Compound("msg_prop", (Atom("t"), Int(21)))
    props = {"t": Int(21), "u": Str("x")}
    env = {"on": Int(1)}

    def best_of_15(kb):
        best = float("inf")
        for _ in range(15):
            start = time.perf_counter()
            for _ in range(10):
                assert eval_condition(cond, props, env, kb)
            best = min(best, time.perf_counter() - start)
        return best

    small = best_of_15(worst_case_policy(10).kb)
    large = best_of_15(worst_case_policy(5000).kb)
    assert large <= 3 * small, (small, large)


@pytest.mark.parametrize("n_rules", [10, 5000])
def test_to_scans_only_the_rules_targeting_its_service(monkeypatch, n_rules):
    policy = sink_policy(n_rules)
    route = parse_route(SINK_ROUTE)
    scanned: list = []
    decisions: list = []
    rule_matches = pdp.rule_matches

    def counting_rule_matches(triggers, labels):
        scanned.append(triggers)
        return rule_matches(triggers, labels)

    def counting_decide(*args, **kwargs):
        decisions.append(args[1].service)
        return pdp.decide(*args, **kwargs)

    monkeypatch.setattr(runtime, "decide", counting_decide)
    monkeypatch.setattr(pdp, "rule_matches", counting_rule_matches)
    sink_rules = [f"rule{i}" for i in sorted({0, n_rules // 2, n_rules - 1})]
    for _ in range(2):
        scanned.clear()
        decisions.clear()
        out = execute(route, policy, registry(route))
        assert out.status == "completed"
        assert decisions == ["k"]
        # A scanned trigger test is named by the planned rule it belongs to.
        names = {
            id(t): r.name
            for plan in policy.covering.values()
            for r, t in zip(plan.rules, plan.triggers)
        }
        assert [names[id(t)] for t in scanned] == sink_rules
        assert [ev.rule for ev in out.audit] == [None, sink_rules[0]]


def test_execute_cost_does_not_depend_on_untargeted_rules():
    # decide scans only the rules that target the service, so 4,997 rules
    # that target another service cost a message nothing.
    route = parse_route(SINK_ROUTE)
    services = registry(route)

    def best_of_15(policy):
        assert execute(route, policy, services).status == "completed"
        best = float("inf")
        for _ in range(15):
            start = time.perf_counter()
            for _ in range(10):
                execute(route, policy, services)
            best = min(best, time.perf_counter() - start)
        return best

    small = best_of_15(sink_policy(10))
    large = best_of_15(sink_policy(5000))
    assert large <= 3 * small, (small, large)


def test_condition_with_builtin_comparison():
    route_text = """
    route r {
      1: from(a)
      2: set_msg_prop t := 35
      3: when lte(msg(t), 30) then goto 4 otherwise goto 5
      4: to(cool) -> end
      5: to(hot)
    }
    """
    out = run_route(route_text)
    assert [ev.statement for ev in out.audit] == [1, 2, 3, 5]


def test_env_persists_across_executions():
    env = {}
    text = """
    route r {
      1: from(a)
      2: when env_prop(seen, 1) then goto 4 otherwise goto 3
      3: set_env_prop seen := 1 -> end
      4: to(already)
    }
    """
    first = run_route(text, env=env)
    assert [ev.statement for ev in first.audit] == [1, 2, 3]
    second = run_route(text, env=env)
    assert [ev.statement for ev in second.audit] == [1, 2, 4]


def test_split_branches_see_earlier_branch_globals():
    text = """
    route r {
      1: from(a)
      2: split parts -> 3, 4
      3: set_env_prop flag := 1 -> 5
      4: set_msg_prop copied := env(flag) -> 5
      5: aggregate concat
    }
    """
    out = run_route(text)
    assert out.status == "completed"
    (msg,) = out.final_messages
    assert msg.props["copied"] == Int(1)


def test_split_merges_payloads_and_props():
    text = """
    route r {
      1: from(a)
      2: split parts -> 3, 4
      3: set_msg_prop left := 1 -> 5
      4: set_msg_prop right := 2 -> 5
      5: aggregate concat
    }
    """

    def source(payload, props):
        return b"x", props

    route = parse_route(text)
    out = run_route(text, services=registry(route, a=source), payload=b"ignored")
    (msg,) = out.final_messages
    assert msg.payload == b"xx"
    assert msg.props["left"] == Int(1)
    assert msg.props["right"] == Int(2)


def test_audit_serializes_to_json(sensor_route, dont_publish_raw):
    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    out = execute(sensor_route, dont_publish_raw, registry(sensor_route), obligations)
    for ev in out.audit:
        record = json.loads(ev.to_json())
        assert set(record) == {
            "statement",
            "node",
            "message",
            "labels_before",
            "labels_after",
            "decision",
            "rule",
        }


# ---------------------------------------------------------------------------
# Properties over random instances.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_assignments_never_change_labels(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    policy = random_policy(rng)
    for outcome in exhaustive_outcomes(route, policy):
        for ev in outcome.audit:
            if ev.decision is None:
                assert ev.labels_before == ev.labels_after or ev.statement == route.entry


@pytest.mark.parametrize("seed", range(30))
def test_non_completed_runs_have_no_final_message(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    policy = random_policy(rng)
    for outcome in exhaustive_outcomes(route, policy):
        if outcome.status == "completed":
            assert len(outcome.final_messages) == 1
        else:
            assert outcome.final_messages == []
            assert outcome.at_statement in route.statements


# ---------------------------------------------------------------------------
# The implicit-leak program: taint tracking is deliberately permissive here.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tainted", [True, False])
def test_implicit_leak_completes_and_copies_the_bit(tainted):
    program = parse_route(IMPLICIT_LEAK_ROUTE)
    out = taint_permissiveness_demo(program, EMPTY_POLICY, tainted=tainted)
    assert out.status == "completed"
    (msg,) = out.final_messages
    # The public variable always equals the secret bit...
    assert msg.props["public"] == Int(1 if tainted else 0)
    # ...yet no label ever reaches the sink, so no policy can trigger.
    assert msg.labels == frozenset()
    sink_events = [ev for ev in out.audit if ev.node == "sink"]
    assert sink_events and all(ev.decision == "allow" for ev in sink_events)


# ---------------------------------------------------------------------------
# Coverage by id or route URL, as the runtime and the verifier resolve it.
# ---------------------------------------------------------------------------


def test_verify_warns_only_for_services_covered_by_neither_id_nor_url():
    policy = compile_policy(
        parse_policy(
            """
            service { id sensor endpoint "sensor://.+" creates_label raw }
            service { id pub_api endpoint "https://public.example/.+" }
            """
        )
    )
    route = parse_route(
        """
        route R {
          services {
            pub = "https://public.example/in"
          }
          1: from(sensor)
          2: to(ghost)
          3: to(pub)
        }
        """
    )
    (warning,) = verify(route, policy).warnings
    assert "'ghost'" in warning


def test_an_aggregate_outside_a_split_is_a_typed_error():
    # ``validate_route`` rejects an aggregate that no split reaches, so this
    # route is built by hand.
    route = routes.Route(
        "stray_join",
        {1: routes.From("src"), 2: routes.Aggregate(Atom("concat"))},
        1,
        {1: (2,)},
    )
    services = ServiceRegistry()
    services.register("src", echo_handler)
    with pytest.raises(
        runtime.RuntimeError_, match="aggregate 2 reached outside a split"
    ):
        execute(route, EMPTY_POLICY, services)


def test_a_handler_lookup_for_an_unregistered_service_is_a_typed_error():
    services = ServiceRegistry()
    services.register("src", echo_handler)
    assert services.handler("src") is echo_handler
    with pytest.raises(
        UnresolvedService, match="no handler registered for service 'ghost'"
    ):
        services.handler("ghost")
