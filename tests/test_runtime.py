import json
import random

import pytest

from labelflow.policy import parse_policy
from labelflow.policy_compiler import compile_policy
from labelflow.routes import parse_route
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
from .helpers import exhaustive_outcomes, random_policy, random_route

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


def test_handler_failure_is_an_error_without_rule():
    def boom(payload, props):
        raise RuntimeError("no disk")

    route_text = "route r { 1: from(a) 2: to(b) }"
    route = parse_route(route_text)
    out = run_route(route_text, services=registry(route, b=boom))
    assert out.status == "errored"
    assert out.at_statement == 2
    assert out.rule is None


def test_unresolved_service_rejected_up_front():
    route = parse_route("route r { 1: from(a) 2: to(b) }")
    services = ServiceRegistry()
    services.register("a", echo_handler)
    with pytest.raises(UnresolvedService):
        execute(route, EMPTY_POLICY, services)


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
