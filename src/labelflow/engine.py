"""Horn-clause store with SLD resolution and negation-as-failure.

The choice conditions of routes are proved here, against the clauses a
policy compiles to (the ones ``labelflow compile`` dumps) plus per-query
builtins that read the message's variables. Decisions are not: ``pdp.decide``
reads the policy AST. Resolution is top-down with leftmost literal selection
and source-order clause selection, so solution order is deterministic.
Negation-as-failure is restricted to ground goals (non-ground negated goals
raise Floundered rather than silently guessing). There is no cut and no
assert/retract.

The search runs on explicit goal and choicepoint stacks over one trail,
after Ait-Kaci's reconstruction of the WAM (1991), so no derivation step
costs a Python frame. The one bound on a derivation is ``MAX_DEPTH``: a
goal selected deeper than that raises DepthExceeded, where a clause's body
literals sit one level below its head and a negated goal's proof one level
below the goal.

Terms are walked by the kernel's ``subterms``, ``rebuild`` and ``resolve``.
There is no occurs check: ``provable`` resolves no answer, so a cyclic
binding still proves, while ``solve`` raises CyclicTerm when it must
resolve one.

Textual clause format: ``head.`` for facts, ``head :- b1, b2.`` for rules,
``\\+ goal`` for negated body literals, ``%`` line comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from . import kernel
from .kernel import CyclicTerm, EngineError  # noqa: F401 (re-exported)
from .terms import (
    Atom,
    Compound,
    Int,
    RegexError,
    Str,
    Term,
    Tokenizer,
    Var,
    compile_regex,
    format_term,
    functor_arity,
    parse_term_from,
)


class DepthExceeded(EngineError):
    """A derivation selected a goal deeper than ``MAX_DEPTH``."""


class Floundered(EngineError):
    """A negated literal was selected while still containing variables."""


class NameCollision(EngineError):
    """A builtin and a user clause share the same functor/arity."""


class BuiltinError(EngineError):
    """A builtin was called with arguments it cannot handle."""


class NotCallable(EngineError, ValueError):
    """A literal or a clause head is not an atom or compound."""


@dataclass(frozen=True, slots=True)
class Literal:
    term: Term
    negated: bool = False

    def __post_init__(self):
        if not isinstance(self.term, (Atom, Compound)):
            raise NotCallable(f"literal must be an atom or compound: {self.term!r}")

    def __repr__(self):
        return ("\\+ " if self.negated else "") + format_term(self.term)


@dataclass(frozen=True, slots=True)
class Clause:
    head: Term
    body: tuple = ()
    # Whether this is a fact without variables, which renames apart to
    # itself: None until the solver first renames the clause. Two queries
    # racing to decide it store the same value.
    ground_fact: bool | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not isinstance(self.head, (Atom, Compound)):
            raise NotCallable(f"clause head must be an atom or compound: {self.head!r}")
        object.__setattr__(self, "body", tuple(self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __repr__(self):
        return format_clause(self)


MAX_DEPTH = 10_000  # the deepest level a derivation may select a goal at

# A builtin receives the (walked) argument terms of its call and yields
# argument tuples of the same arity; each yielded tuple is unified against
# the call to produce one answer.
Builtin = Callable[[tuple], Iterable[tuple]]


def _first_arg_key(t: Term):
    """Hashable index key for a ground-ish first argument, else None."""
    if isinstance(t, Atom):
        return ("a", t.name)
    if isinstance(t, Int):
        return ("i", t.value)
    if isinstance(t, Str):
        return ("s", t.value)
    if isinstance(t, Compound):
        return ("c", t.functor, len(t.args))
    return None


class KnowledgeBase:
    """Immutable clause store with first-argument indexing.

    Build one from clauses and builtins, or ``extend`` an existing base with
    extra clauses. The clause set never changes afterwards, so a loaded base
    is safely shared across concurrent queries.

    The clauses are grouped by predicate when the base is built. A
    predicate's first-argument index (the offsets of its clauses per
    first-argument key, and of those whose first argument is a variable) is
    built when the predicate is first queried with a key, so a predicate no
    query binds costs no index. The index is stored with
    ``dict.setdefault``, so two threads racing on a predicate's first keyed
    query at worst build it twice and both use the first one stored.
    """

    def __init__(self, clauses: Sequence[Clause], builtins: dict | None = None):
        self.clauses: tuple = tuple(clauses)
        self.builtins: dict[tuple[str, int], Builtin] = dict(builtins or {})
        self._by_pred: dict[tuple[str, int], list[Clause]] = {}
        # pred -> (first-argument key -> offsets in _by_pred[pred], offsets
        # of the clauses whose first argument has no key)
        self._index: dict[tuple[str, int], tuple[dict, list]] = {}
        for clause in self.clauses:
            pred = functor_arity(clause.head)
            if pred in self.builtins:
                raise NameCollision(f"clause {pred[0]}/{pred[1]} collides with a builtin")
            self._by_pred.setdefault(pred, []).append(clause)

    def extend(self, extra: Iterable[Clause]) -> "KnowledgeBase":
        """New base: this base's clauses followed by ``extra``; neither is modified."""
        return KnowledgeBase(self.clauses + tuple(extra), self.builtins)

    def _key_index(self, pred) -> tuple[dict, list]:
        index = self._index.get(pred)
        if index is None:
            by_key: dict = {}
            unkeyed: list = []
            for pos, clause in enumerate(self._by_pred[pred]):
                key = _first_arg_key(clause.head.args[0])
                if key is None:
                    unkeyed.append(pos)
                else:
                    by_key.setdefault(key, []).append(pos)
            index = self._index.setdefault(pred, (by_key, unkeyed))
        return index

    def candidates(self, goal: Term, bindings: dict) -> list:
        """Clauses that may match ``goal``, in source order."""
        pred = functor_arity(goal)
        clauses = self._by_pred.get(pred)
        if clauses is None:
            return []
        key = None
        if isinstance(goal, Compound):
            key = _first_arg_key(kernel.walk(goal.args[0], bindings))
        if key is None:
            return list(clauses)
        by_key, unkeyed = self._key_index(pred)
        offsets = by_key.get(key, [])
        if unkeyed:
            offsets = sorted(offsets + unkeyed)
        return [clauses[pos] for pos in offsets]


# ---------------------------------------------------------------------------
# Resolution.
# ---------------------------------------------------------------------------


_EXHAUSTED = object()  # what ``_backtrack`` returns once no choicepoint is left


def _unify_args(args: tuple, out: tuple, bindings: dict, trail: list) -> bool:
    """Unify a builtin call's arguments with one of its answers, pairwise."""
    for a, b in zip(args, out):
        if not kernel.unify_inplace(a, b, bindings, trail):
            return False
    return True


class _Solver:
    """One query's SLD search, on explicit stacks over one trail.

    The goals left are linked cells ``(literal, depth, rest)``: a clause's
    body literals go in front of the goals after its head, one level below
    it, and share those goals as their tail. A choicepoint is
    ``(alternatives, trail mark, goal, rest, depth)``: the candidate
    clauses of ``goal`` still to try, or the answers of a builtin (whose
    ``goal`` slot holds its argument tuple), and the length of the trail
    before the first was tried. A ground negated goal is proved in the same
    loop, one level below it: it pushes a barrier, a choicepoint whose
    alternatives are None, that resumes ``rest`` once the goal's own proof
    fails. That proof ends in the cell ``(None, position of the barrier,
    None)``; reaching it cuts the stack back past the barrier.
    """

    def __init__(self, kb: KnowledgeBase, builtins: dict):
        self.kb = kb
        self.builtins = {**kb.builtins, **builtins}
        for pred in builtins:
            if pred in kb._by_pred:
                raise NameCollision(f"clause {pred[0]}/{pred[1]} collides with a builtin")
        self.fresh = 0

    def _rename_clause(self, clause: Clause) -> tuple[Term, tuple]:
        """``clause``'s head and body literals, renamed apart; a ground
        fact's head is its own renaming."""
        ground = clause.ground_fact
        if ground is None:  # decided once per clause, and only for a candidate
            ground = not clause.body and kernel.is_ground(clause.head)
            object.__setattr__(clause, "ground_fact", ground)
        if ground:
            return clause.head, ()
        self.fresh += 1
        suffix = f"#{self.fresh}"
        head = kernel.rename(clause.head, suffix)
        body = tuple(
            Literal(kernel.rename(l.term, suffix), l.negated) for l in clause.body
        )
        return head, body

    def solve(self, literals: tuple) -> Iterator[dict]:
        """Yield the bindings once per derivation of ``literals``, in order;
        the same dict each time, changed in place."""
        goals = None
        for lit in reversed(literals):
            goals = (lit, 1, goals)
        bindings: dict = {}
        trail: list = []
        stack: list = []  # choicepoints, the newest last
        while True:
            if goals is None:
                yield bindings
            else:
                lit, depth, rest = goals
                if lit is None:  # the barrier at ``depth`` has its negated goal proved
                    del stack[depth:]
                elif depth > MAX_DEPTH:
                    raise DepthExceeded(f"resolution depth exceeded {MAX_DEPTH}")
                else:
                    # A user goal is unified through the bindings as it is;
                    # only a negated goal and a builtin's arguments resolve.
                    goal = lit.term
                    if lit.negated:
                        goal = kernel.resolve(goal, bindings)
                        if not kernel.is_ground(goal):
                            raise Floundered(
                                f"negated goal is not ground: {format_term(goal)}"
                            )
                        stack.append((None, len(trail), None, rest, depth))
                        goals = (Literal(goal), depth + 1, (None, len(stack) - 1, None))
                        continue
                    builtin = self.builtins.get(functor_arity(goal))
                    if builtin is not None:
                        args = ()
                        if type(goal) is Compound:
                            args = kernel.resolve(goal, bindings).args
                        alternatives = iter(builtin(args))
                        stack.append((alternatives, len(trail), args, rest, depth))
                    else:
                        alternatives = iter(self.kb.candidates(goal, bindings))
                        stack.append((alternatives, len(trail), goal, rest, depth))
            goals = self._backtrack(stack, bindings, trail)
            if goals is _EXHAUSTED:
                return

    def _backtrack(self, stack: list, bindings: dict, trail: list):
        """The goals left after the newest choicepoint's next alternative
        that unifies, popping each choicepoint with none left; ``_EXHAUSTED``
        once the stack is empty. Each alternative starts from the trail's
        mark, undone to only if the trail has grown past it."""
        while stack:
            alternatives, mark, goal, rest, depth = stack[-1]
            if alternatives is None:  # a barrier: its negated goal has no proof
                stack.pop()
                kernel.undo_to(bindings, trail, mark)
                return rest
            if type(goal) is tuple:  # a builtin's arguments, against its answers
                for out in alternatives:
                    if len(trail) > mark:
                        kernel.undo_to(bindings, trail, mark)
                    if _unify_args(goal, out, bindings, trail):
                        return rest
            else:
                for clause in alternatives:
                    if len(trail) > mark:
                        kernel.undo_to(bindings, trail, mark)
                    head, body = self._rename_clause(clause)
                    if kernel.unify_inplace(goal, head, bindings, trail):
                        for lit in reversed(body):
                            rest = (lit, depth + 1, rest)
                        return rest
            stack.pop()
        return _EXHAUSTED


def _as_literals(query) -> tuple:
    if isinstance(query, (Atom, Compound)):
        return (Literal(query),)
    if isinstance(query, Literal):
        return (query,)
    return tuple(q if isinstance(q, Literal) else Literal(q) for q in query)


def solve(kb: KnowledgeBase, query, builtins=None) -> Iterator[dict]:
    """Enumerate substitutions (query-variable name -> ground-ish term).

    ``query`` may be a term, a Literal, or a sequence of either. The stream
    is lazy; consuming it fully enumerates every SLD derivation in clause
    source order. ``builtins`` adds builtins for this query only; like the
    base's own, none may share a predicate with a clause (NameCollision).
    """
    goals = _as_literals(query)
    names = dict.fromkeys(
        x.name for lit in goals for x in kernel.subterms(lit.term) if type(x) is Var
    )
    solver = _Solver(kb, builtins or {})
    for bindings in solver.solve(goals):
        yield {n: kernel.resolve(Var(n), bindings) for n in names}


def provable(kb: KnowledgeBase, query, builtins=None) -> bool:
    """Does ``query`` have a derivation? No answer is resolved."""
    solver = _Solver(kb, builtins or {})
    return next(solver.solve(_as_literals(query)), None) is not None


# ---------------------------------------------------------------------------
# Default builtins: regex matching plus numeric comparisons.
# ---------------------------------------------------------------------------


def _regex(args: tuple) -> Iterator[tuple]:
    pat, subject, _res = args
    if not isinstance(pat, Str) or not isinstance(subject, Str):
        raise BuiltinError("regex/3 needs ground string pattern and subject")
    try:
        matched = compile_regex(pat.value).fullmatch(subject.value) is not None
    except RegexError as exc:
        raise BuiltinError(f"bad regular expression {pat.value!r}: {exc}") from exc
    yield (pat, subject, Atom("true" if matched else "false"))


def _int_pair(name: str, args: tuple) -> tuple[int, int]:
    a, b = args
    if not isinstance(a, Int) or not isinstance(b, Int):
        raise BuiltinError(f"{name} needs ground integer arguments")
    return a.value, b.value


def _lt(args):
    a, b = _int_pair("lt/2", args)
    if a < b:
        yield args


def _lte(args):
    a, b = _int_pair("lte/2", args)
    if a <= b:
        yield args


def _eq(args):
    a, b = _int_pair("eq/2", args)
    if a == b:
        yield args


def default_builtins() -> dict[tuple[str, int], Builtin]:
    return {
        ("regex", 3): _regex,
        ("lt", 2): _lt,
        ("lte", 2): _lte,
        ("eq", 2): _eq,
    }


# ---------------------------------------------------------------------------
# Clause text format.
# ---------------------------------------------------------------------------


def parse_program(text: str) -> list[Clause]:
    """Parse ``head.`` facts and ``head :- b1, \\+ b2.`` rules."""
    tok = Tokenizer(text, comment="%")
    clauses = []
    while tok.peek().kind != "EOF":
        head = parse_term_from(tok)
        body = _parse_literals(tok) if tok.accept("PUNCT", ":-") else ()
        tok.next("PUNCT", ".")
        clauses.append(Clause(head, body))
    return clauses


def _parse_literals(tok: Tokenizer) -> tuple:
    """Comma-separated literals, each optionally negated with ``\\+``."""
    literals = []
    while True:
        negated = tok.accept("PUNCT", "\\+") is not None
        literals.append(Literal(parse_term_from(tok), negated))
        if not tok.accept("PUNCT", ","):
            return tuple(literals)


def parse_query(text: str) -> tuple:
    """Parse a comma-separated goal conjunction (no trailing period needed)."""
    tok = Tokenizer(text.rstrip().rstrip("."), comment="%")
    goals = _parse_literals(tok)
    end = tok.peek()
    if end.kind != "EOF":
        raise EngineError(f"trailing input in query: {end.text!r}")
    return goals


def format_clause(clause: Clause) -> str:
    head = format_term(clause.head)
    if clause.is_fact:
        return f"{head}."
    body = ", ".join(repr(l) for l in clause.body)
    return f"{head} :- {body}."


def format_program(clauses: Iterable[Clause]) -> str:
    return "\n".join(format_clause(c) for c in clauses) + "\n"
