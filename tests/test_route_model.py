import random

import pytest

from labelflow.routes import (
    Aggregate,
    Bean,
    Choice,
    CycleError,
    DanglingTarget,
    From,
    Route,
    RouteError,
    Split,
    SplitJoinError,
    To,
    format_route,
    node_names,
    parse_route,
    validate_route,
)
from labelflow.terms import Atom, Compound, Int, TermSyntaxError

from .conftest import read_fixture
from .helpers import random_route


@pytest.fixture
def fan_out():
    return parse_route(read_fixture("sensor.route"))


def test_parse_statements(fan_out):
    assert fan_out.name == "Sensor_Messaging"
    assert fan_out.entry == 1
    assert fan_out.statements[1] == From("sensor")
    assert fan_out.statements[2] == Split(Atom("parts"))
    assert fan_out.statements[3] == To("log")
    assert fan_out.statements[4] == Bean("merge")
    assert fan_out.statements[5] == Aggregate(Atom("concat"))
    assert fan_out.statements[6] == To("mqueue")


def test_parse_endpoints(fan_out):
    assert fan_out.endpoints == {
        "sensor": "sensor://temp1",
        "mqueue": "https://mq.example/out",
    }


def test_successors(fan_out):
    succ = {n: tuple(fan_out.successors_map.get(n, ())) for n in fan_out.statements}
    assert succ == {1: (2,), 2: (3, 4), 3: (5,), 4: (5,), 5: (6,), 6: ()}


def test_joins(fan_out):
    assert fan_out.joins == {2: 5}


def test_service_atoms(fan_out):
    assert fan_out.service_atoms() == ["sensor", "log", "merge", "mqueue"]


def test_node_names_disambiguate():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: to(b)
          3: to(b)
        }
        """
    )
    assert node_names(route) == {1: "a", 2: "b", 3: "b2"}


def test_default_successor_is_next_declared():
    route = parse_route("route r { 1: from(a) 2: to(b) 3: to(c) }")
    assert route.successors_map == {1: (2,), 2: (3,), 3: ()}


def test_explicit_end_marker():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: when eq(1, 1) then goto 3 otherwise goto 4
          3: to(b) -> end
          4: to(c)
        }
        """
    )
    assert route.successors_map[3] == ()
    assert route.successors_map[4] == ()


def test_choice_targets_are_successors():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: when msg_prop(k, 1) then goto 4 otherwise goto 3
          3: to(b) -> end
          4: to(c)
        }
        """
    )
    assert route.statements[2] == Choice(
        Compound("msg_prop", (Atom("k"), Int(1))), 4, 3
    )
    assert route.successors_map[2] == (4, 3)


def test_assignment_statements():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: set_msg_prop x := msg(t)
          3: set_env_prop total := 0
          4: to(b)
        }
        """
    )
    assert route.statements[2].var == "x"
    assert route.statements[3].var == "total"


def test_duplicate_statement_number():
    with pytest.raises(TermSyntaxError):
        parse_route("route r { 1: from(a) 1: to(b) }")


def test_unknown_statement_kind():
    with pytest.raises(TermSyntaxError):
        parse_route("route r { 1: from(a) 2: teleport(b) }")


def test_empty_route_rejected():
    with pytest.raises(RouteError):
        parse_route("route r { }")


def test_entry_must_be_from():
    with pytest.raises(RouteError):
        parse_route("route r { 1: to(a) }")


def test_from_only_at_entry():
    with pytest.raises(RouteError):
        parse_route("route r { 1: from(a) 2: from(b) }")


def test_cycle_detection():
    with pytest.raises(CycleError) as exc:
        parse_route("route r { 1: from(a) 2: to(b) -> 3 3: to(c) -> 2 }")
    assert exc.value.back_edge == (3, 2)


def test_dangling_target():
    with pytest.raises(DanglingTarget) as exc:
        parse_route("route r { 1: from(a) 2: to(b) -> 9 }")
    assert (exc.value.source, exc.value.target) == (2, 9)


def test_unreachable_statement():
    with pytest.raises(RouteError, match="unreachable"):
        parse_route("route r { 1: from(a) -> end 2: to(b) }")


def test_split_needs_two_branches():
    with pytest.raises(SplitJoinError):
        parse_route("route r { 1: from(a) 2: split parts -> 3 3: aggregate c }")


def test_split_branches_must_converge():
    with pytest.raises(SplitJoinError):
        parse_route(
            """
            route r {
              1: from(a)
              2: split parts -> 3, 4
              3: to(b) -> 5
              4: to(c) -> 6
              5: aggregate x -> end
              6: aggregate y
            }
            """
        )


def test_orphan_aggregate():
    with pytest.raises(SplitJoinError):
        parse_route("route r { 1: from(a) 2: aggregate c }")


def test_plain_statement_single_successor():
    route = Route(
        "r",
        {1: From("a"), 2: To("b"), 3: To("c")},
        1,
        {1: (2, 3), 2: (), 3: ()},
    )
    with pytest.raises(RouteError, match="multiple successors"):
        validate_route(route)


def test_nested_splits():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: split outer -> 3, 7
          3: split inner -> 4, 5
          4: to(b) -> 6
          5: to(c) -> 6
          6: aggregate inner_done -> 8
          7: to(d) -> 8
          8: aggregate outer_done
        }
        """
    )
    assert route.joins == {2: 8, 3: 6}


def test_format_round_trip(fan_out):
    again = parse_route(format_route(fan_out))
    assert again.statements == fan_out.statements
    assert again.successors_map == fan_out.successors_map
    assert again.endpoints == fan_out.endpoints
    assert again.joins == fan_out.joins


def test_format_marks_mid_route_terminals():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: when eq(1, 1) then goto 3 otherwise goto 4
          3: to(b) -> end
          4: to(c)
        }
        """
    )
    assert "-> end" in format_route(route)
    assert parse_route(format_route(route)).successors_map == route.successors_map


@pytest.mark.parametrize("seed", range(60))
def test_random_routes_round_trip(seed):
    route = random_route(random.Random(seed))
    again = parse_route(format_route(route))
    assert again.statements == route.statements
    assert again.entry == route.entry
    assert again.successors_map == route.successors_map
    assert again.joins == route.joins


@pytest.mark.parametrize("seed", range(30))
def test_random_route_with_back_edge_is_cyclic(seed):
    rng = random.Random(seed)
    route = random_route(rng)
    terminals = [n for n, t in route.successors_map.items() if not t]
    broken = dict(route.successors_map)
    broken[rng.choice(terminals)] = (route.entry,)
    with pytest.raises((CycleError, RouteError)):
        validate_route(
            Route(route.name, route.statements, route.entry, broken, route.endpoints)
        )
