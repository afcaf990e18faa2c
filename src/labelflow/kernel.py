"""Unification kernel.

Hot inner loop of resolution: variable dereferencing, destructive
unification with a trail for backtracking, and deep substitution.

Bindings are a plain dict mapping variable names to terms; the trail records
bound names in order so a failed branch can be undone cheaply. The occurs
check is disabled, matching conventional Prolog engines.
"""

from __future__ import annotations

from .terms import Atom, Compound, Int, Str, Var


def walk(t, bindings):
    """Follow variable bindings until a free variable or non-variable term."""
    while type(t) is Var:
        nxt = bindings.get(t.name)
        if nxt is None:
            return t
        t = nxt
    return t


def bind(name, value, bindings, trail):
    bindings[name] = value
    trail.append(name)


def undo_to(bindings, trail, mark):
    """Unbind everything recorded on the trail past ``mark``."""
    while len(trail) > mark:
        del bindings[trail.pop()]


def unify_inplace(a, b, bindings, trail):
    """Destructively unify ``a`` and ``b``; on failure the caller must undo.

    Iterative over an explicit work stack so deep terms cannot blow the
    Python recursion limit.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = walk(x, bindings)
        y = walk(y, bindings)
        if x is y:
            continue
        tx = type(x)
        ty = type(y)
        if tx is Var:
            if ty is Var and x.name == y.name:
                continue
            bind(x.name, y, bindings, trail)
            continue
        if ty is Var:
            bind(y.name, x, bindings, trail)
            continue
        if tx is not ty:
            return False
        if tx is Atom:
            if x.name != y.name:
                return False
        elif tx is Int or tx is Str:
            if x.value != y.value:
                return False
        else:  # Compound
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
    return True


def unify(a, b, bindings=None):
    """Most general unifier extending ``bindings``, or None on failure.

    Functional variant: the input substitution is never mutated.
    """
    new = dict(bindings) if bindings else {}
    trail = []
    if unify_inplace(a, b, new, trail):
        return new
    return None


def resolve(t, bindings):
    """Apply ``bindings`` deeply, returning a term with no bound variables."""
    t = walk(t, bindings)
    if type(t) is Compound:
        args = tuple(resolve(a, bindings) for a in t.args)
        return Compound(t.functor, args)
    return t


def is_ground(t):
    stack = [t]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is Var:
            return False
        if tx is Compound:
            stack.extend(x.args)
    return True


def rename(t, suffix):
    """Freshen every variable in ``t`` by appending ``suffix`` to its name."""
    tx = type(t)
    if tx is Var:
        return Var(t.name + suffix)
    if tx is Compound:
        return Compound(t.functor, tuple(rename(a, suffix) for a in t.args))
    return t
