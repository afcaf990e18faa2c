"""Unification kernel and the two term traversals.

Hot inner loop of resolution: variable dereferencing, destructive
unification with a trail for backtracking, and deep substitution. The
decision point, the label transforms and the verifier match label terms
against ground labels one way instead: ``label_test`` compiles a set of
them once, and only its non-ground terms go through ``match``.

Every walk over one term goes through ``subterms`` (a pre-order scan) or
``rebuild`` (a post-order copy with a visitor), over explicit stacks, so a
term's nesting depth is not bounded by Python's recursion limit.

Bindings are a plain dict mapping variable names to terms; the trail records
bound names in order so a failed branch can be undone cheaply. The occurs
check is disabled, matching conventional Prolog engines, so a binding may
contain its own variable; ``resolve`` reports such a cycle as CyclicTerm.
"""

from __future__ import annotations

from operator import is_

from .terms import Atom, Compound, Int, Str, Var


class EngineError(Exception):
    """Base of the errors that the engine and its kernel raise."""


class CyclicTerm(EngineError):
    """A variable's binding contains the variable itself: an infinite term."""


def subterms(t):
    """Yield ``t`` and each of its subterms, in left-to-right pre-order."""
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        if type(x) is Compound:
            stack.extend(reversed(x.args))


def rebuild(t, visit):
    """``t`` rebuilt post-order, left to right. Each subterm ``x`` is offered
    to ``visit`` before its arguments: a value other than None replaces ``x``
    and is not walked further; otherwise a compound is rebuilt from its
    rebuilt arguments and any other term stays as it is. A compound whose
    arguments all come back as the same objects is kept, not copied."""
    value = visit(t)
    if value is not None:
        return value
    if type(t) is not Compound:
        return t
    stack = [(t, iter(t.args), [])]  # (compound, its arguments left, rebuilt)
    while True:
        term, todo, done = stack[-1]
        for a in todo:
            value = visit(a)
            if value is None:
                if type(a) is Compound:
                    stack.append((a, iter(a.args), []))
                    break
                value = a
            done.append(value)
        else:
            stack.pop()
            if not all(map(is_, done, term.args)):
                term = Compound(term.functor, tuple(done))
            if not stack:
                return term
            stack[-1][2].append(term)


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
    Python recursion limit. With no occurs check two bindings can be cyclic
    (``Y = f(Y)``, ``Z = f(Z)``), and comparing them would never end, so a
    pair of compounds that one call meets again through a binding counts as
    unified (rational-tree unification, after Colmerauer 1982 and Jaffar
    1984). Only such pairs are recorded, in a set made on the first one.
    """
    stack = [(a, b)]
    seen = None  # (id, id) of the compound pairs reached through a binding
    while stack:
        x0, y0 = stack.pop()
        x = walk(x0, bindings)
        y = walk(y0, bindings)
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
            if x is not x0 or y is not y0:
                pair = (id(x), id(y))
                if seen is None:
                    seen = {pair}
                elif pair in seen:
                    continue
                else:
                    seen.add(pair)
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


def match(pattern, term):
    """Does ``pattern`` match the ground ``term`` one way?

    Only the pattern's variables bind, and each occurrence of a variable must
    meet an equal subterm (``pair(X, X)`` matches ``pair(a, a)``, not
    ``pair(a, b)``). Because ``term`` is ground this agrees with ``unify``,
    without a trail or renaming apart. Iterative over an explicit work stack:
    a repeated variable compares its two subterms with ``_same_term``, so no
    comparison recurses either. Should ``term`` hold variables after all,
    they bind nothing and are equal only by name.
    """
    bindings = {}
    stack = [(pattern, term)]
    while stack:
        p, t = stack.pop()
        tp = type(p)
        if tp is Var:
            bound = bindings.get(p.name)
            if bound is None:
                bindings[p.name] = t
            elif bound is not t and not _same_term(bound, t):
                return False
        elif tp is Compound:
            if (
                type(t) is not Compound
                or p.functor != t.functor
                or len(p.args) != len(t.args)
            ):
                return False
            stack.extend(zip(p.args, t.args))
        elif p != t:
            return False
    return True


def _same_term(a, b):
    """Structural equality over an explicit stack, where the term classes'
    ``==`` recurses once per nesting level; variables are equal by name."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is Compound:
            if (
                type(y) is not Compound
                or x.functor != y.functor
                or len(x.args) != len(y.args)
            ):
                return False
            stack.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


def resolve(t, bindings):
    """Apply ``bindings`` deeply, returning a term with no bound variables.

    Recurses only into the compound value of a bound variable, so Python's
    stack grows with the nesting of bindings, not of terms. Each bound
    variable's value is rebuilt once per call and then shared by all its
    occurrences, so bindings shaped as a DAG resolve in time linear in
    their size. A variable met again inside its own value raises
    CyclicTerm."""
    if not bindings:
        return t
    expanding = set()  # the bound variables whose values are being rebuilt
    resolved = {}  # bound variable -> its rebuilt compound value

    def visit(x):
        if type(x) is not Var:
            return None
        value = resolved.get(x.name)
        if value is not None:
            return value
        value = walk(x, bindings)
        if type(value) is not Compound:
            return value
        if x.name in expanding:
            raise CyclicTerm(f"variable {x.name} occurs in its own binding")
        expanding.add(x.name)
        value = resolved[x.name] = rebuild(value, visit)
        expanding.discard(x.name)
        return value

    return rebuild(t, visit)


def is_ground(t):
    if type(t) is not Compound:  # most labels are atoms: no scan for those
        return type(t) is not Var
    return Var not in map(type, subterms(t))


def label_test(terms):
    """``terms`` split for ``matched_labels``: (ground ones, patterns)."""
    ground, patterns = [], []
    for t in terms:
        (ground if is_ground(t) else patterns).append(t)
    return frozenset(ground), tuple(patterns)


def matched_labels(test, labels):
    """The ``labels`` that some term of ``test``, a ``label_test``, matches
    one way. A ground term matches only its equal, so the ground terms take
    one set intersection; only the labels they miss go through ``match``,
    once per pattern until one matches."""
    ground, patterns = test
    hit = ground.intersection(labels)
    if patterns:
        hit = hit.union(
            l for l in labels if l not in ground and any(match(p, l) for p in patterns)
        )
    return hit


def rename(t, suffix):
    """Freshen every variable in ``t`` by appending ``suffix`` to its name."""
    return rebuild(t, lambda x: Var(x.name + suffix) if type(x) is Var else None)
