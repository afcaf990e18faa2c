import random
import time
from collections import Counter

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
)
from labelflow.terms import Atom, Compound, Int, TermSyntaxError

from .conftest import read_fixture
from .helpers import open_split_tuples, random_dag, random_route, reference_joins


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


def test_service_atoms_cost_is_linear_in_statements():
    # Four times the distinct services costs about four times as much; a
    # membership test per statement against the list so far made it ~16x.
    # ``Route.services`` is cached, so each trial times the first call on a
    # fresh Route: later calls only copy the cached tuple.
    def chain(n):
        statements = {1: From("s0")}
        statements.update({i: To(f"s{i}") for i in range(2, n + 1)})
        successors = {i: (i + 1,) for i in range(1, n)}
        return statements, successors

    def best_of_15(statements, successors):
        best = float("inf")
        for _ in range(15):
            route = Route("r", statements, 1, successors)
            start = time.perf_counter()
            atoms = route.service_atoms()
            best = min(best, time.perf_counter() - start)
        assert len(atoms) == len(statements)
        return best

    small = best_of_15(*chain(2000))
    large = best_of_15(*chain(8000))
    assert large <= 8 * small, (small, large)


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


@pytest.mark.parametrize("fixture", ["sensor.route", "measurement_chain.route"])
def test_derived_names_and_services_on_fixtures(fixture):
    route = parse_route(read_fixture(fixture))
    assert route.names == node_names(route)
    assert route.services == tuple(route.service_atoms())
    # derived once: later reads give the same objects
    assert route.names is route.names
    assert route.services is route.services


def test_derived_names_and_services_on_random_routes():
    rng = random.Random(20261019)
    for _ in range(200):
        route = random_route(rng, max_statements=14)
        assert route.names == node_names(route)
        assert route.services == tuple(route.service_atoms())


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
    assert route.statements[2] == Choice(Compound("msg_prop", (Atom("k"), Int(1))))
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


def test_duplicate_service_binding():
    text = 'route r {\n services {\n  a = "svc://one"\n  a = "svc://two"\n }\n 1: from(a)\n}'
    with pytest.raises(TermSyntaxError, match="duplicate service binding a") as err:
        parse_route(text)
    assert (err.value.line, err.value.column) == (4, 3)


# One malformed route per raise site of the route parser, plus errors raised
# by the shared tokenizer. Each row pins (message, line, column).
ROUTE_SYNTAX_ERRORS = [
    ("route\n  1: from(a)\n}", ("expected route name", 2, 3)),
    (
        'route r {\n services {\n  a = "svc://one"\n  a = "svc://two"\n }\n 1: from(a)\n}',
        ("duplicate service binding a", 4, 3),
    ),
    (
        "route r {\n  1: from(a)\n  2: to(b)\n  1: to(c)\n}",
        ("duplicate statement number 1", 4, 3),
    ),
    ("route r {\n  1: from(a)\n}\n  extra", ("trailing input after route: 'extra'", 4, 3)),
    (
        "route r {\n  1: from(a)\n  2: when\n    X then goto 3 otherwise goto 3\n"
        "  3: to(b)\n}",
        ("choice condition must be an atom or compound: X", 4, 5),
    ),
    ("route r {\n  1: from(a)\n  2: teleport(b)\n}", ("unknown statement 'teleport'", 3, 6)),
    ("route r {\n  1: from(a) -> two\n}", ("expected 'int', found 'two'", 2, 17)),
    ("// x\nroute r {\n  1: from(a)\n", ("expected 'int', found 'EOF'", 4, 1)),
    # The offending lexeme also occurs before and after the reported one;
    # a route name is the second token, so nothing can precede it.
    ("route\n  1: from(a)\n  2: to(b) -> 1\n}", ("expected route name", 2, 3)),
    (
        'route a {\n services {\n  b = "x"\n  a = "y"\n  a = "z"\n }\n 1: from(a)\n}',
        ("duplicate service binding a", 5, 3),
    ),
    (
        "route r {\n  1: from(a) -> 2\n  2: to(b)\n  2: to(c) -> 2\n}",
        ("duplicate statement number 2", 4, 3),
    ),
    (
        "route r {\n  1: from(extra)\n}\n  extra extra",
        ("trailing input after route: 'extra'", 4, 3),
    ),
    (
        "route r {\n  1: set_msg_prop k := X\n  2: when\n"
        "    X then goto 3 otherwise goto 3\n  3: set_msg_prop k := X\n}",
        ("choice condition must be an atom or compound: X", 4, 5),
    ),
    (
        "route r {\n  1: from(teleport)\n  2: teleport(b)\n  3: to(teleport)\n}",
        ("unknown statement 'teleport'", 3, 6),
    ),
    (
        "route r {\n  1: from(two) -> two\n  2: to(two)\n}",
        ("expected 'int', found 'two'", 2, 19),
    ),
]


@pytest.mark.parametrize("text, expected", ROUTE_SYNTAX_ERRORS)
def test_syntax_error_positions(text, expected):
    with pytest.raises(TermSyntaxError) as exc:
        parse_route(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == expected


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


def test_choice_into_a_split_branch():
    # 5 is split 3's second branch and the else target of choice 2, so
    # aggregate 6 could be reached with no split to join.
    with pytest.raises(SplitJoinError) as exc:
        parse_route(
            """
            route R {
              1: from(src)
              2: when msg_prop(k, v) then goto 3 otherwise goto 5
              3: split parts -> 4, 5
              4: to(a) -> 6
              5: to(b) -> 6
              6: aggregate concat
              7: to(z)
            }
            """
        )
    assert str(exc.value) == (
        "statement 5 is reached inside split 3 on one path and outside it on another"
    )


def test_branch_jumps_past_its_join():
    with pytest.raises(SplitJoinError) as exc:
        parse_route(
            """
            route r {
              1: from(a)
              2: split parts -> 3, 4
              3: to(b) -> 5
              4: when eq(1, 1) then goto 5 otherwise goto 6
              5: aggregate concat
              6: to(c)
            }
            """
        )
    assert str(exc.value) == (
        "statement 6 is reached inside split 2 on one path and outside it on another"
    )


def test_splits_do_not_share_a_join():
    with pytest.raises(SplitJoinError, match="statement 5 is reached inside split"):
        parse_route(
            """
            route r {
              1: from(a)
              2: when eq(1, 1) then goto 3 otherwise goto 4
              3: split parts -> 5, 6
              4: split parts -> 5, 6
              5: to(b) -> 6
              6: aggregate concat
            }
            """
        )


def test_plain_statement_single_successor():
    with pytest.raises(RouteError, match="multiple successors"):
        Route(
            "r",
            {1: From("a"), 2: To("b"), 3: To("c")},
            1,
            {1: (2, 3), 2: (), 3: ()},
        )


_TRUE = Atom("true")


@pytest.mark.parametrize(
    "statements, entry, successors, message",
    [
        ({1: From("a"), 2: To("b")}, 5, {1: (2,)}, "entry 5 is not a statement"),
        ({}, 1, {}, "route has no statements"),
        (
            {1: From("a"), 2: To("b")},
            1,
            {1: (2,), 7: (2,)},
            "successors given for missing statement 7",
        ),
        (
            {1: From("a"), 2: Choice(_TRUE), 3: To("b")},
            1,
            {1: (2,), 2: (3,)},
            "choice 2 needs exactly two successors",
        ),
        (
            {1: From("a"), 2: Choice(_TRUE), 3: To("b"), 4: To("c"), 5: To("d")},
            1,
            {1: (2,), 2: (3, 4, 5)},
            "choice 2 needs exactly two successors",
        ),
    ],
    ids=[
        "missing-entry",
        "no-statements",
        "successors-of-a-missing-statement",
        "choice-with-one-successor",
        "choice-with-three-successors",
    ],
)
def test_a_malformed_route_is_a_route_error(statements, entry, successors, message):
    # Built in Python, not parsed: the constructor is the only check.
    with pytest.raises(RouteError) as exc:
        Route("r", statements, entry, successors)
    assert str(exc.value) == message


def test_a_route_is_frozen(fan_out):
    with pytest.raises(AttributeError):
        fan_out.joins = {}
    with pytest.raises(TypeError):
        Route("r", {1: From("a")}, 1, {}, {}, {})  # joins is not an argument


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


def test_format_set_statements():
    route = parse_route(
        """
        route r {
          1: from(a)
          2: set_msg_prop level := lt(1, f(X, "s"))
          3: set_env_prop zone := eu
          4: to(b)
        }
        """
    )
    lines = format_route(route).splitlines()
    assert lines[2:4] == [
        '  2: set_msg_prop level := lt(1, f(X, "s")) -> 3',
        "  3: set_env_prop zone := eu -> 4",
    ]
    assert parse_route(format_route(route)).statements == route.statements


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
        Route(route.name, route.statements, route.entry, broken, route.endpoints)


def _joins_or_error(check, draft):
    """The joins ``check`` finds in ``draft``, or the class of what it raises."""
    try:
        return check(draft)
    except RouteError as exc:
        return type(exc)


def _checked_joins(draft) -> dict:
    return Route(**vars(draft)).joins


def _reference_validation(route) -> dict:
    tuples = open_split_tuples(route)
    if len(tuples) < len(route.statements):
        raise RouteError("unreachable statement")
    joins = reference_joins(route)
    if any(len(seen) > 1 for seen in tuples.values()):
        raise SplitJoinError("a statement is reached with two sets of open splits")
    return joins


def test_validator_agrees_with_path_oracles_on_random_dags():
    # Accepted exactly when the level-counting reference accepts and every
    # statement is reached with one open-split tuple over all paths.
    verdicts = Counter()
    for seed in range(1000):
        draft = random_dag(random.Random(seed))
        got = _joins_or_error(_checked_joins, draft)
        want = _joins_or_error(_reference_validation, draft)
        assert got == want, (seed, format_route(draft))
        splits = any(isinstance(s, Split) for s in draft.statements.values())
        levels = _joins_or_error(reference_joins, draft)
        verdicts[got if type(got) is type else dict, splits, type(levels)] += 1
    # Every verdict occurs, and some routes pass the level count alone.
    assert verdicts[dict, True, dict] >= 20
    assert verdicts[dict, False, dict] >= 200
    assert verdicts[SplitJoinError, True, dict] >= 5
    assert verdicts[SplitJoinError, True, type] >= 200
    assert verdicts[RouteError, True, dict] + verdicts[RouteError, True, type] >= 10
