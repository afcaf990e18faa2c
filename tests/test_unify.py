import random

from hypothesis import given
from hypothesis import strategies as st

from labelflow import kernel
from labelflow.terms import Atom, Compound, Int, Str, Var

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


def test_deep_terms_do_not_overflow():
    # The kernel is iterative, so nesting beyond any recursion limit is fine.
    a = b = Var("X")
    for _ in range(50000):
        a = Compound("f", (a,))
        b = Compound("f", (b,))
    assert kernel.unify(a, b) is not None


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
