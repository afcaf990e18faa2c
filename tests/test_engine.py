import random
import sys

import pytest

from labelflow import kernel
from labelflow.engine import (
    BuiltinError,
    Clause,
    CyclicTerm,
    DepthExceeded,
    EngineError,
    Floundered,
    KnowledgeBase,
    MAX_DEPTH,
    Literal,
    NameCollision,
    NotCallable,
    default_builtins,
    format_clause,
    format_program,
    parse_program,
    parse_query,
    provable,
    solve,
)
from labelflow.terms import Atom, Compound, Int, Str, Var

from .helpers import forward_chain, match_pattern, substitute

GRAPH = """
edge(a, b). edge(b, c). edge(c, d). edge(b, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def kb_of(text, builtins=None):
    return KnowledgeBase(parse_program(text), builtins)


def all_solutions(kb, query_text):
    return list(solve(kb, parse_query(query_text)))


def test_fact_lookup():
    kb = kb_of("likes(ann, logic).")
    assert provable(kb, parse_query("likes(ann, logic)"))
    assert not provable(kb, parse_query("likes(ann, chaos)"))


def test_variable_enumeration_is_source_ordered():
    kb = kb_of("n(1). n(2). n(3).")
    assert [s["X"] for s in all_solutions(kb, "n(X)")] == [Int(1), Int(2), Int(3)]


def test_recursive_closure():
    kb = kb_of(GRAPH)
    reached = {s["Y"] for s in all_solutions(kb, "path(a, Y)")}
    assert reached == {Atom("b"), Atom("c"), Atom("d")}


def test_conjunction_shares_bindings():
    kb = kb_of(GRAPH)
    sols = all_solutions(kb, "edge(a, X), edge(X, Y)")
    assert {(s["X"], s["Y"]) for s in sols} == {
        (Atom("b"), Atom("c")),
        (Atom("b"), Atom("d")),
    }


def test_solution_order_is_deterministic():
    kb = kb_of(GRAPH)
    first = all_solutions(kb, "path(X, Y)")
    for _ in range(3):
        assert all_solutions(kb, "path(X, Y)") == first


def test_negation_as_failure_on_ground_goal():
    kb = kb_of("label(raw). publishable(m) :- \\+ forbidden(m).")
    assert provable(kb, parse_query("\\+ label(cooked)"))
    assert not provable(kb, parse_query("\\+ label(raw)"))
    assert provable(kb, parse_query("publishable(m)"))


def test_negation_flounders_on_open_goal():
    kb = kb_of("label(raw).")
    with pytest.raises(Floundered):
        list(solve(kb, parse_query("\\+ label(X)")))


def test_cyclic_answer_is_a_typed_engine_error():
    kb = kb_of("p(X, X).")
    query = parse_query("p(Y, f(Y))")
    # Y is bound to f(Y): there is a derivation, but no finite answer.
    assert provable(kb, query)
    with pytest.raises(CyclicTerm) as info:
        all_solutions(kb, "p(Y, f(Y))")
    assert isinstance(info.value, EngineError)


def test_cyclic_bindings_meeting_each_other_prove():
    # Y = f(Y) and Z = f(Z) unify as the same infinite term, and the search
    # ends either way.
    kb = kb_of("t(V, V, X, X, W, W).")
    assert provable(kb, parse_query("t(Y, Z, Y, f(Y), Z, f(Z))"))
    assert not provable(kb, parse_query("t(Y, Z, Y, f(Y), Z, g(Z))"))


def test_depth_limit():
    kb = kb_of("loop(X) :- loop(X).")
    with pytest.raises(DepthExceeded):
        list(solve(kb, parse_query("loop(a)")))
    with pytest.raises(DepthExceeded):
        provable(kb, parse_query("loop(a)"))


# -- deep derivations: explicit stacks, one depth bound ----------------------


def chain_kb(edges):
    facts = [Clause(Compound("edge", (Atom(f"n{i}"), Atom(f"n{i + 1}")))) for i in range(edges)]
    return KnowledgeBase(facts + parse_program(GRAPH)[4:])


def count_kb():
    # count(N, T): T is N nested s/1 around z, built one step per level.
    def dec(args):
        yield args[0], Int(args[0].value - 1)

    kb = KnowledgeBase(
        parse_program(
            "count(0, z). count(N, s(T)) :- lt(0, N), dec(N, M), count(M, T)."
        ),
        {**default_builtins(), ("dec", 2): dec},
    )
    return kb


def s_depth(t):
    depth = 0
    while isinstance(t, Compound):
        assert t.functor == "s"
        (t,) = t.args
        depth += 1
    assert t == Atom("z")
    return depth


def peano(n):
    t = Atom("z")
    for _ in range(n):
        t = Compound("s", (t,))
    return t


def test_long_chain_proves_and_one_past_the_depth_bound_does_not():
    # A path over n edges selects its last goal n + 1 levels down.
    assert provable(chain_kb(5000), parse_query("path(n0, n5000)"))
    assert not provable(chain_kb(5000), parse_query("path(n1, n0)"))
    kb = chain_kb(MAX_DEPTH - 1)
    assert provable(kb, parse_query(f"path(n0, n{MAX_DEPTH - 1})"))
    kb = chain_kb(MAX_DEPTH)
    with pytest.raises(DepthExceeded):
        provable(kb, parse_query(f"path(n0, n{MAX_DEPTH})"))


def test_nested_negations_give_the_parity():
    # win(X) holds when X has a successor that does not win: 3,000 negated
    # goals, each proved inside the proof of the one before.
    n = 3000
    facts = [Clause(Compound("next", (Atom(f"n{i}"), Atom(f"n{i + 1}")))) for i in range(n)]
    kb = KnowledgeBase(facts + parse_program("win(X) :- next(X, Y), \\+ win(Y)."))
    assert [provable(kb, Compound("win", (Atom(f"n{k}"),))) for k in (0, 1, 2999, 3000)] == [
        False, True, True, False
    ]
    assert {s["X"] for s in solve(kb, parse_query("next(X, n1), \\+ win(X)"))} == {Atom("n0")}


def test_three_thousandth_answer_resolves():
    kb = kb_of("nat(z). nat(s(X)) :- nat(X).")
    for i, answer in enumerate(solve(kb, parse_query("nat(X)"))):
        if i == 2999:
            break
    assert s_depth(answer["X"]) == 2999


def build_w_kb():
    # p(N) builds T with one binding per level of N, then walks it with w.
    return kb_of("""
    build(z, z). build(s(N), f(T)) :- build(N, T).
    w(z). w(f(T)) :- w(T).
    p(N) :- build(N, T), w(T).
    """)


def test_goal_selected_through_deep_bindings_proves():
    # w(T) is selected with T bound through 1,500 variables, one per level.
    kb = build_w_kb()
    assert provable(kb, Compound("p", (peano(1500),)))
    assert not provable(kb, Compound("w", (Compound("f", (Atom("a"),)),)))


def test_selecting_a_user_goal_resolves_nothing(monkeypatch):
    # A user goal unifies through the bindings as it stands: the resolve
    # calls of a proof do not grow with the terms its goals carry.
    calls = []
    resolve = kernel.resolve

    def counting(t, bindings):
        calls.append(t)
        return resolve(t, bindings)

    monkeypatch.setattr(kernel, "resolve", counting)
    counts = {}
    for n in (500, 1500):
        calls.clear()
        assert provable(build_w_kb(), Compound("p", (peano(n),)))
        counts[n] = len(calls)
    assert counts[500] == counts[1500] == 0


def test_no_step_of_a_derivation_costs_a_python_frame():
    kb = chain_kb(5000)
    counting = count_kb()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert provable(kb, parse_query("path(n0, n5000)"))
        (answer,) = solve(counting, parse_query("count(5000, T)"))
    finally:
        sys.setrecursionlimit(limit)
    assert s_depth(answer["T"]) == 5000


def test_clause_colliding_with_builtin():
    with pytest.raises(NameCollision):
        kb_of("eq(a, a).", default_builtins())


def test_custom_builtin_yields_answers():
    def double(args):
        return [(args[0], Int(args[0].value * 2))]

    kb = kb_of("p(a).", {("double", 2): double})
    sols = all_solutions(kb, "double(21, X)")
    assert [s["X"] for s in sols] == [Int(42)]


def test_regex_builtin():
    kb = KnowledgeBase([], default_builtins())
    sols = list(
        solve(
            kb,
            Compound("regex", (Str("http[s]?://.+"), Str("https://x.example/"), Var("R"))),
        )
    )
    assert [s["R"] for s in sols] == [Atom("true")]
    with pytest.raises(BuiltinError):
        list(solve(kb, Compound("regex", (Atom("notastring"), Str("x"), Var("R")))))


def test_comparison_builtins():
    kb = KnowledgeBase([], default_builtins())
    assert provable(kb, parse_query("lt(1, 2)"))
    assert not provable(kb, parse_query("lt(2, 2)"))
    assert provable(kb, parse_query("lte(2, 2)"))
    assert provable(kb, parse_query("eq(3, 3)"))
    with pytest.raises(BuiltinError):
        provable(kb, parse_query("lt(a, 2)"))


def test_indexing_matches_unindexed_semantics():
    # Same query with a bound vs. unbound first argument: identical answers.
    kb = kb_of(GRAPH)
    by_var = {
        (s["X"], s["Y"]) for s in all_solutions(kb, "edge(X, Y)") if s["X"] == Atom("b")
    }
    bound = {(Atom("b"), s["Y"]) for s in all_solutions(kb, "edge(b, Y)")}
    assert by_var == bound


INTERLEAVED = """
p(a, 1). p(X, 2). p(b, 3). p(a, 4). p(Y, 5). p(f(a), 6). p(f(b), 7). p(1, 8).
q(a).
"""


def numbers(kb, query_text):
    return [s["N"].value for s in all_solutions(kb, query_text)]


def test_keyed_and_unkeyed_clauses_interleave_in_source_order():
    kb = kb_of(INTERLEAVED)
    assert numbers(kb, "p(a, N)") == [1, 2, 4, 5]
    assert numbers(kb, "p(b, N)") == [2, 3, 5]
    assert numbers(kb, "p(f(Z), N)") == [2, 5, 6, 7]
    assert numbers(kb, "p(1, N)") == [2, 5, 8]
    assert numbers(kb, "p(c, N)") == [2, 5]
    assert numbers(kb, "p(Z, N)") == [1, 2, 3, 4, 5, 6, 7, 8]
    bigger = kb.extend(parse_program("p(a, 9). p(W, 10). p(b, 11)."))
    assert numbers(bigger, "p(a, N)") == [1, 2, 4, 5, 9, 10]
    assert numbers(bigger, "p(Z, N)") == list(range(1, 12))


def test_first_argument_index_is_built_per_predicate_on_first_keyed_query():
    kb = kb_of(INTERLEAVED)
    assert kb._index == {}
    assert numbers(kb, "p(Z, N)") == list(range(1, 9))
    assert kb._index == {}
    assert provable(kb, parse_query("q(a)"))
    assert set(kb._index) == {("q", 1)}
    assert numbers(kb, "p(b, N)") == [2, 3, 5]
    assert set(kb._index) == {("q", 1), ("p", 2)}


def test_program_round_trip():
    clauses = parse_program(GRAPH)
    assert parse_program(format_program(clauses)) == clauses


def test_format_clause():
    clauses = parse_program("p(X) :- q(X), \\+ r(X).")
    assert format_clause(clauses[0]) == "p(X) :- q(X), \\+ r(X)."
    assert repr(clauses[0]) == format_clause(clauses[0])


def test_literal_requires_callable_term():
    with pytest.raises(ValueError):
        Literal(Int(3))
    with pytest.raises(ValueError):
        Clause(Var("X"))


@pytest.mark.parametrize("parse, text", [
    (parse_program, "p :- 2."),
    (parse_program, "X."),
    (parse_query, '"s"'),
    (parse_query, "p, \\+ 3"),
])
def test_non_callable_literal_is_engine_error(parse, text):
    with pytest.raises(NotCallable):
        parse(text)


def test_query_trailing_input_is_engine_error():
    with pytest.raises(EngineError) as exc:
        parse_query("p(X) q")
    assert str(exc.value) == "trailing input in query: 'q'"


def test_extend_leaves_original_untouched():
    kb = kb_of("p(a).")
    bigger = kb.extend(parse_program("p(b)."))
    assert len(kb.clauses) == 1 and len(bigger.clauses) == 2
    assert not provable(kb, parse_query("p(b)"))
    assert provable(bigger, parse_query("p(b)"))


def test_extend_rejects_clause_named_like_builtin():
    kb = KnowledgeBase(parse_program("p(a)."), default_builtins())
    with pytest.raises(NameCollision):
        kb.extend(parse_program("lt(1, 2)."))
    with pytest.raises(NameCollision):
        kb.extend(parse_program("q(b).")).extend(parse_program("regex(a, b, c)."))


# -- bottom-up oracle agreement ---------------------------------------------

CONSTANTS = [Atom(c) for c in "abcde"]


def random_program(rng):
    # Edges only go "up" the constant order so SLD enumeration terminates.
    clauses = []
    for _ in range(rng.randint(1, 8)):
        i, j = sorted(rng.sample(range(len(CONSTANTS)), 2))
        clauses.append(Clause(Compound("e", (CONSTANTS[i], CONSTANTS[j]))))
    clauses += parse_program(
        """
        r(X, Y) :- e(X, Y).
        r(X, Z) :- e(X, Y), r(Y, Z).
        top(X) :- e(X, e).
        """
    )
    return clauses


@pytest.mark.parametrize("seed", range(25))
def test_solve_agrees_with_fixpoint(seed):
    rng = random.Random(seed)
    clauses = random_program(rng)
    kb = KnowledgeBase(clauses)
    fixpoint = forward_chain(clauses)
    for functor, arity in (("e", 2), ("r", 2), ("top", 1)):
        goal = Compound(functor, tuple(Var(f"V{i}") for i in range(arity)))
        derived = {
            Compound(functor, tuple(s[f"V{i}"] for i in range(arity)))
            for s in solve(kb, goal)
        }
        expected = {
            f
            for f in fixpoint
            if isinstance(f, Compound)
            and f.functor == functor
            and len(f.args) == arity
        }
        assert derived == expected


def test_failed_head_unification_leaves_no_binding():
    # Unification takes the last argument pair first, so Y binds to e before
    # b fails against c; the next clause must see Y unbound.
    kb = KnowledgeBase(parse_program("s(a, c, e). s(a, b, f)."))
    answers = list(solve(kb, parse_query("s(X, b, Y)")))
    assert answers == [{"X": Atom("a"), "Y": Atom("f")}]


def test_failed_builtin_output_leaves_no_binding():
    # X binds to a before b fails against c; the next output must see X
    # unbound.
    def pair(args):
        yield Atom("a"), Atom("c")
        yield Atom("d"), Atom("b")

    kb = KnowledgeBase([], default_builtins())
    answers = list(solve(kb, parse_query("pair(X, b)"), builtins={("pair", 2): pair}))
    assert answers == [{"X": Atom("d")}]


TERNARY_RULES = parse_program(
    """
    mirror(X, Z) :- t(X, Y, Z), t(Z, Y, X).
    hop(X, Z) :- t(X, b, Y), t(Y, Z, Z).
    """
)


@pytest.mark.parametrize("seed", range(25))
def test_partly_ground_queries_agree_with_fixpoint(seed):
    # Ternary facts over three constants, queried with every mix of ground
    # arguments and (possibly repeated) variables: most candidate clauses
    # fail after binding some query variables.
    rng = random.Random(seed)
    consts = CONSTANTS[:3]
    facts = {
        Compound("t", tuple(rng.choice(consts) for _ in range(3)))
        for _ in range(rng.randint(1, 12))
    }
    clauses = [Clause(f) for f in sorted(facts, key=repr)] + TERNARY_RULES
    kb = KnowledgeBase(clauses)
    fixpoint = forward_chain(clauses)
    choices = consts + [Var("X"), Var("Y"), Var("Z")]
    for functor, arity in (("t", 3), ("mirror", 2), ("hop", 2)):
        for _ in range(12):
            goal = Compound(functor, tuple(rng.choice(choices) for _ in range(arity)))
            derived = {substitute(goal, s) for s in solve(kb, goal)}
            expected = {f for f in fixpoint if match_pattern(goal, f) is not None}
            assert derived == expected, goal


@pytest.mark.parametrize("seed", range(25))
def test_overlay_agrees_with_one_base(seed):
    # Any split into a base and two extensions gives the solutions of one
    # base built from all clauses, in the same order.
    rng = random.Random(seed)
    clauses = random_program(rng)
    whole = KnowledgeBase(clauses)
    for _ in range(4):
        a, b = sorted(rng.randint(0, len(clauses)) for _ in range(2))
        layered = (
            KnowledgeBase(clauses[:a]).extend(clauses[a:b]).extend(clauses[b:])
        )
        assert layered.clauses == whole.clauses
        for functor, arity in (("e", 2), ("r", 2), ("top", 1)):
            goal = Compound(functor, tuple(Var(f"V{i}") for i in range(arity)))
            assert list(solve(layered, goal)) == list(solve(whole, goal))
            bound = Compound(functor, (CONSTANTS[0],) + goal.args[1:])
            assert list(solve(layered, bound)) == list(solve(whole, bound))
