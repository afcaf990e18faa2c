import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from labelflow import kernel
from labelflow.terms import Atom, Compound, Int, Str, Var, format_term, parse_term

from .helpers import _same_term, match_pattern, substitute, term_is_ground
from .test_terms import terms


def test_atom_unifies_with_itself():
    assert kernel.unify(Atom("a"), Atom("a")) == {}


def test_distinct_atoms_fail():
    assert kernel.unify(Atom("a"), Atom("b")) is None


def test_variable_binds():
    b = kernel.unify(Var("X"), Atom("a"))
    assert kernel.resolve(Var("X"), b) == Atom("a")


def test_compound_decomposition():
    b = kernel.unify(
        Compound("f", (Var("X"), Int(2))), Compound("f", (Int(1), Var("Y")))
    )
    assert kernel.resolve(Var("X"), b) == Int(1)
    assert kernel.resolve(Var("Y"), b) == Int(2)


def test_functor_or_arity_mismatch():
    assert kernel.unify(Compound("f", (Int(1),)), Compound("g", (Int(1),))) is None
    assert (
        kernel.unify(Compound("f", (Int(1),)), Compound("f", (Int(1), Int(2))))
        is None
    )


def test_shared_variable_consistency():
    assert (
        kernel.unify(
            Compound("f", (Var("X"), Var("X"))), Compound("f", (Int(1), Int(2)))
        )
        is None
    )


def test_two_occurrences_of_a_variable_unify_without_binding_it():
    # Distinct objects of one variable: binding it to itself would make
    # ``walk`` loop.
    assert kernel.unify(Var("X"), Var("X")) == {}
    xx = Compound("f", (Var("X"), Var("X")))
    yy = Compound("f", (Var("Y"), Var("Y")))
    assert kernel.unify(xx, yy) == {"X": Var("Y")}


def test_string_and_int_are_distinct():
    assert kernel.unify(Str("1"), Int(1)) is None


def test_trail_undo_restores_bindings():
    bindings, trail = {}, []
    assert kernel.unify_inplace(Var("X"), Atom("a"), bindings, trail)
    mark = len(trail)
    assert kernel.unify_inplace(Var("Y"), Atom("b"), bindings, trail)
    kernel.undo_to(bindings, trail, mark)
    assert "Y" not in bindings
    assert kernel.walk(Var("X"), bindings) == Atom("a")


def test_is_ground():
    assert kernel.is_ground(Compound("f", (Int(1), Atom("a"))))
    assert not kernel.is_ground(Compound("f", (Var("X"),)))


def test_rename_suffixes_variables():
    renamed = kernel.rename(Compound("f", (Var("X"), Atom("a"))), "#1")
    assert renamed == Compound("f", (Var("X#1"), Atom("a")))


def test_subterms_are_left_to_right_preorder():
    t = parse_term('f(g(a, X), h(1), "s")')
    assert [format_term(x) for x in kernel.subterms(t)] == [
        'f(g(a, X), h(1), "s")', "g(a, X)", "a", "X", "h(1)", "1", '"s"',
    ]


def test_rebuild_offers_parents_first_and_keeps_replacements_whole():
    t = parse_term("f(g(X), h(X), X)")
    offered = []

    def visit(x):
        offered.append(format_term(x))
        if type(x) is Var:
            return Atom("a")
        return parse_term("k(X)") if format_term(x) == "h(X)" else None

    assert kernel.rebuild(t, visit) == parse_term("f(g(a), k(X), a)")
    assert offered == ["f(g(X), h(X), X)", "g(X)", "X", "h(X)", "X"]
    assert kernel.rebuild(Var("X"), visit) == Atom("a")
    assert kernel.rebuild(Int(1), lambda x: None) == Int(1)
    # a compound whose arguments all come back unchanged is kept, not copied
    assert kernel.rebuild(t, lambda x: None) is t
    ground = parse_term("f(a, g(1))")
    assert kernel.rename(ground, "#1") is ground


def test_resolve_raises_on_a_cyclic_binding():
    bindings = {}
    assert kernel.unify_inplace(
        parse_term("p(Y, f(Y))"), parse_term("p(X, X)"), bindings, []
    )
    with pytest.raises(kernel.CyclicTerm):
        kernel.resolve(Var("Y"), bindings)
    # a cycle the term does not reach is no error
    assert kernel.resolve(parse_term("g(Z)"), bindings) == parse_term("g(Z)")


def test_two_cyclic_bindings_unify():
    # Y = f(Y) and Z = f(Z) denote the same infinite term, so with no occurs
    # check they unify; comparing them node by node would never end.
    bindings = kernel.unify(
        parse_term("t(V, V, X, X, W, W)"), parse_term("t(Y, Z, Y, f(Y), Z, f(Z))")
    )
    assert bindings is not None
    with pytest.raises(kernel.CyclicTerm):
        kernel.resolve(Var("Y"), bindings)
    assert kernel.unify(
        parse_term("t(V, V, X, X, W, W)"), parse_term("t(Y, Z, Y, f(Y), Z, g(Z))")
    ) is None
    # two cycles of different lengths through the same variable
    assert kernel.unify(
        parse_term("p(Y, Z, Y, Z)"), parse_term("p(f(Y), f(f(Z)), A, A)")
    ) is not None
    assert kernel.unify(
        parse_term("p(Y, Z, Y, Z)"), parse_term("p(f(Y, a), f(Z, b), A, A)")
    ) is None


def _dag_bindings(n):
    """``X0 = a`` and ``Xi = f(X(i-1), X(i-1))``: 2**n leaves as a tree."""
    bindings = {"X0": Atom("a")}
    for i in range(1, n + 1):
        bindings[f"X{i}"] = Compound("f", (Var(f"X{i - 1}"), Var(f"X{i - 1}")))
    return bindings


def test_resolve_rebuilds_each_binding_once():
    small = _dag_bindings(4)
    expected = _substitute_to_fixpoint(Var("X4"), small)
    assert _same_term(kernel.resolve(Var("X4"), small), expected)
    bindings = _dag_bindings(40)
    start = time.perf_counter()
    t = kernel.resolve(Var("X40"), bindings)
    assert time.perf_counter() - start < 0.5
    assert t.args[0] is t.args[1]
    for _ in range(39):
        t = t.args[0]
    assert t == Compound("f", (Atom("a"), Atom("a")))


def test_deep_terms_do_not_overflow():
    # The kernel is iterative, so nesting beyond any recursion limit is fine.
    depth = 50000
    a = b = Var("X")
    for _ in range(depth):
        a = Compound("f", (a,))
        b = Compound("f", (b,))
    assert kernel.unify(a, b) is not None
    ground = _chain(Atom("a"), depth)
    assert sum(1 for _ in kernel.subterms(a)) == depth + 1
    assert not kernel.is_ground(a)
    assert kernel.is_ground(ground)
    to_a = kernel.rebuild(a, lambda x: Atom("a") if type(x) is Var else None)
    assert _same_term(to_a, ground)
    assert _same_term(kernel.rename(a, "#1"), _chain(Var("X#1"), depth))
    assert _same_term(kernel.resolve(Var("Y"), {"Y": ground}), ground)
    assert _same_term(kernel.resolve(a, {"X": Atom("a")}), ground)



def test_resolve_follows_deep_bindings_without_recursion():
    # X0 = f(X1), X1 = f(X2), ...: the nesting is in the bindings, not the
    # term, and one stack walks both.
    depth = 50000
    bindings = {f"X{i}": Compound("f", (Var(f"X{i + 1}"),)) for i in range(depth)}
    bindings[f"X{depth}"] = Atom("a")
    resolved = kernel.resolve(Compound("g", (Var("X0"), Var("X0"))), bindings)
    assert resolved.args[0] is resolved.args[1]  # X0 is rebuilt once
    assert _same_term(resolved.args[0], _chain(Atom("a"), depth))
    # a value none of whose arguments change is kept, not copied
    bindings[f"X{depth}"] = Var("Free")
    bindings[f"X{depth - 1}"] = Compound("f", (Atom("b"),))
    deepest = bindings[f"X{depth - 1}"]
    t = kernel.resolve(Var("X0"), bindings)
    for _ in range(depth - 1):
        (t,) = t.args
    assert t is deepest
    # a cycle closed at the bottom of the chain
    bindings[f"X{depth - 1}"] = Compound("f", (Var("X0"),))
    with pytest.raises(kernel.CyclicTerm):
        kernel.resolve(Var("X0"), bindings)


# -- properties -------------------------------------------------------------


@given(terms, terms)
def test_unifiability_is_symmetric(a, b):
    assert (kernel.unify(a, b) is None) == (kernel.unify(b, a) is None)


@given(terms)
def test_ground_term_unifies_with_itself(t):
    assert kernel.unify(t, t) is not None


def _abstract(term, rng, counter):
    """Replace random subterms of a ground term with fresh variables."""
    if rng.random() < 0.25:
        counter[0] += 1
        return Var(f"V{counter[0]}")
    if isinstance(term, Compound):
        return Compound(
            term.functor, tuple(_abstract(a, rng, counter) for a in term.args)
        )
    return term


@given(terms.filter(kernel.is_ground), st.integers(0, 2**30))
def test_pattern_unifies_with_its_instance(ground, seed):
    rng = random.Random(seed)
    pattern = _abstract(ground, rng, [0])
    bindings = kernel.unify(pattern, ground)
    assert bindings is not None
    assert kernel.resolve(pattern, bindings) == ground


@given(terms)
def test_is_ground_agrees_with_the_recursive_reference(t):
    assert kernel.is_ground(t) == term_is_ground(t)


# Terms over three variable names, so that bindings apply, chain through
# compounds and now and then form a cycle.
_bindable = st.recursive(
    st.sampled_from([Var("X"), Var("Y"), Var("Z"), Atom("a"), Int(1)]),
    lambda children: st.builds(
        Compound,
        st.sampled_from(["f", "g"]),
        st.lists(children, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=6,
)
# Unification never binds a variable to a variable that leads back to it.
_bindings = st.dictionaries(
    st.sampled_from("XYZ"), _bindable.filter(lambda t: type(t) is not Var), max_size=3
)


def _substitute_to_fixpoint(t, bindings):
    """``t`` with ``substitute`` applied until nothing changes, or None when
    the bindings it reaches are cyclic and so it never stops changing."""
    for _ in range(len(bindings) + 1):
        nxt = substitute(t, bindings)
        if _same_term(nxt, t):
            return t
        t = nxt
    return None


@given(_bindable, _bindings)
def test_resolve_agrees_with_repeated_substitution(t, bindings):
    expected = _substitute_to_fixpoint(t, bindings)
    if expected is None:
        with pytest.raises(kernel.CyclicTerm):
            kernel.resolve(t, bindings)
    else:
        assert _same_term(kernel.resolve(t, bindings), expected)


# -- one-way matching -------------------------------------------------------

_LEAVES = (Atom("a"), Atom("b"), Int(0), Int(-3), Str("a"), Str(""))
_FUNCTORS = (("f", 1), ("pair", 2), ("g", 3))


def _random_ground(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    name, arity = rng.choice(_FUNCTORS)
    return Compound(name, tuple(_random_ground(rng, depth - 1) for _ in range(arity)))


def _chain(inner, depth):
    for _ in range(depth):
        inner = Compound("f", (inner,))
    return inner


def _random_pattern(term, rng):
    """Abstract and perturb ``term``: variables come from a pool of three
    names, so a name often occurs twice (a non-linear pattern), and now and
    then a leaf or a functor changes, so the pattern may not match."""
    roll = rng.random()
    if roll < 0.2:
        return Var(rng.choice("XYZ"))
    if roll < 0.3:
        return rng.choice(_LEAVES)
    if isinstance(term, Compound):
        functor = term.functor if rng.random() < 0.95 else "h"
        return Compound(functor, tuple(_random_pattern(a, rng) for a in term.args))
    return term


def _rebuild(term, rng, change):
    """A new object equal to ``term``, except that each leaf is redrawn with
    probability ``change``."""
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rebuild(a, rng, change) for a in term.args))
    return rng.choice(_LEAVES) if rng.random() < change else term


_PAIR_XX = Compound("pair", (Var("X"), Var("X")))


def _match_cases(n):
    rng = random.Random(20261018)
    for i in range(n):
        ground = _random_ground(rng, rng.randint(0, 5))
        # every tenth term sits deeper than the recursion limit
        depth = rng.randint(1_000, 3_000) if i % 10 == 0 else 0
        if i % 4 == 0:
            # pair(X, X) against two distinct objects, equal or not
            twin = _rebuild(ground, rng, 0.3 if i % 8 == 0 else 0.0)
            pair = (_chain(ground, depth), _chain(twin, depth))
            yield _PAIR_XX, Compound("pair", pair)
        else:
            ground = _chain(ground, depth)
            yield _random_pattern(ground, rng), ground


def test_match_agrees_with_the_from_scratch_matcher():
    outcomes = {True: 0, False: 0}
    nonlinear_matches = 0
    for pattern, ground in _match_cases(600):
        expected = match_pattern(pattern, ground) is not None
        assert kernel.match(pattern, ground) == expected, (pattern, ground)
        outcomes[expected] += 1
        if expected and pattern is _PAIR_XX:
            nonlinear_matches += 1
    # the cases exercise both answers, and repeated variables that match
    assert outcomes[True] >= 150 and outcomes[False] >= 100, outcomes
    assert nonlinear_matches >= 20


def test_match_does_not_recurse():
    depth = 20 * sys.getrecursionlimit()
    deep = _chain(Atom("a"), depth)
    same = _chain(Atom("a"), depth)  # equal to ``deep``, another object
    other = _chain(Atom("b"), depth)
    assert kernel.match(_chain(Var("X"), depth), deep)
    assert kernel.match(deep, same)
    assert not kernel.match(deep, other)
    assert kernel.match(_PAIR_XX, Compound("pair", (deep, same)))
    assert not kernel.match(_PAIR_XX, Compound("pair", (deep, other)))


_MATCH_NON_GROUND = """
from labelflow.kernel import match
from labelflow.terms import Compound, Var
pair = lambda a, b: Compound("pair", (a, b))
print(match(pair(Var("X"), Var("X")), pair(Var("X"), Var("X"))))
print(match(pair(Var("X"), Var("X")), pair(Var("Y"), Var("Z"))))
"""


def test_match_compares_term_side_variables_by_name():
    # A term-side variable named like a repeated pattern variable must not
    # bind; run in a subprocess so that a hang fails instead of stalling.
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _MATCH_NON_GROUND],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=20,
    )
    assert out.stdout.split() == ["True", "False"]


def test_match_binds_no_term_side_variable():
    x_twice = Compound("pair", (Var("X"), Var("X")))
    assert kernel.match(x_twice, Compound("pair", (Var("A"), Var("A"))))
    assert not kernel.match(x_twice, Compound("pair", (Var("A"), Atom("a"))))
    assert not kernel.match(x_twice, Compound("pair", (Atom("a"), Var("A"))))
    deep = _chain(Var("Y"), 20 * sys.getrecursionlimit())
    same = _chain(Var("Y"), 20 * sys.getrecursionlimit())
    assert kernel.match(x_twice, Compound("pair", (deep, same)))
