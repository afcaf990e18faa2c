"""Message routes: numbered-statement DAGs, textual format, validation.

A route is a non-while-looping program over services. Statements are
numbered; control flow is the next declared statement unless an explicit
``-> n, m`` successor list or a choice's goto targets say otherwise. Split
fans out into several parallel branches which must all converge on the same
aggregate statement (the join); nested splits are allowed. Every statement is
reached with the same open splits on every path, so no choice or ``->``
enters or leaves a branch except through its split and join.

Route files use the ``.route`` extension, UTF-8, and ``//`` line comments::

    route Sensor_Messaging {
      services {
        sensor = "sensor://temp1"
        mqueue = "https://mq.example/out"
      }
      1: from(sensor)
      2: split parts -> 3, 4
      3: to(log) -> 5
      4: bean(merge) -> 5
      5: aggregate concat
      6: to(mqueue)
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .terms import (
    Atom,
    Compound,
    Term,
    TermSyntaxError,
    Tokenizer,
    format_term,
    parse_term_from,
)


class RouteError(Exception):
    pass


class CycleError(RouteError):
    """Back edge in the control-flow graph; routes must be acyclic."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"cycle: back edge {src} -> {dst}")
        self.back_edge = (src, dst)


class DanglingTarget(RouteError):
    def __init__(self, src: int, dst: int):
        super().__init__(f"statement {src} targets missing statement {dst}")
        self.source = src
        self.target = dst


class SplitJoinError(RouteError):
    """A split's branches do not all converge on one aggregate."""


@dataclass(frozen=True, slots=True)
class From:
    service: str


@dataclass(frozen=True, slots=True)
class To:
    service: str


@dataclass(frozen=True, slots=True)
class Bean:
    service: str


@dataclass(frozen=True, slots=True)
class Choice:
    cond: Term
    then_target: int
    else_target: int


@dataclass(frozen=True, slots=True)
class Split:
    expr: Term


@dataclass(frozen=True, slots=True)
class Aggregate:
    expr: Term


@dataclass(frozen=True, slots=True)
class SetMsgProp:
    var: str
    expr: Term


@dataclass(frozen=True, slots=True)
class SetEnvProp:
    var: str
    expr: Term


Statement = Union[From, To, Bean, Choice, Split, Aggregate, SetMsgProp, SetEnvProp]


@dataclass
class Route:
    """A parsed, validated route.

    A Route is read-only once built: ``names`` and ``services`` are derived
    from its statements on first use and then kept for the Route's life, so
    every execution and verification of one Route shares them.
    """

    name: str
    statements: dict  # statement number -> Statement, declaration order
    entry: int
    successors_map: dict  # statement number -> tuple of successor numbers
    endpoints: dict = field(default_factory=dict)  # service atom -> URL
    joins: dict = field(default_factory=dict)  # split number -> aggregate number

    def service_atoms(self) -> list[str]:
        """The services of from/to/bean statements, once each, first seen first."""
        stmts = self.statements.values()
        services = (s.service for s in stmts if isinstance(s, (From, To, Bean)))
        return list(dict.fromkeys(services))

    @cached_property
    def names(self) -> dict:
        """``node_names(self)``, computed once per Route."""
        return node_names(self)

    @cached_property
    def services(self) -> tuple:
        """``service_atoms()`` as a tuple, computed once per Route."""
        return tuple(self.service_atoms())


def node_names(route: Route) -> dict:
    """Human-readable node name per statement, as shown in audits and traces.

    from/to/bean statements borrow their service atom; other kinds get a
    kind-derived name. Repeats are disambiguated with an ordinal suffix.
    """
    names: dict[int, str] = {}
    used: dict[str, int] = {}
    for n in route.statements:
        stmt = route.statements[n]
        if isinstance(stmt, (From, To, Bean)):
            base = stmt.service
        elif isinstance(stmt, Split):
            base = "split"
        elif isinstance(stmt, Aggregate):
            base = "aggr"
        elif isinstance(stmt, Choice):
            base = "choice"
        else:
            base = f"set_{stmt.var}"
        count = used.get(base, 0) + 1
        used[base] = count
        names[n] = base if count == 1 else f"{base}{count}"
    return names


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


def _parse_targets(tok: Tokenizer) -> tuple | None:
    """Explicit successors after ``->``; ``-> end`` marks a terminal."""
    if not tok.accept("PUNCT", "->"):
        return None
    if tok.accept("ATOM", "end"):
        return ()
    targets = [tok.expect("INT").value]
    while tok.accept("PUNCT", ","):
        targets.append(tok.expect("INT").value)
    return tuple(targets)


def parse_route(text: str) -> Route:
    tok = Tokenizer(text, comment="//")
    tok.expect("ATOM", "route")
    name_tok = tok.peek()
    if name_tok.kind not in ("ATOM", "VAR"):  # route names may be capitalized
        raise TermSyntaxError("expected route name", *tok.position(tok.index))
    name = tok.next().text
    tok.expect("PUNCT", "{")
    endpoints: dict[str, str] = {}
    if tok.at_keyword("services"):
        tok.next()
        tok.expect("PUNCT", "{")
        while not tok.accept("PUNCT", "}"):
            at = tok.index
            svc = tok.expect("ATOM")
            if svc.text in endpoints:
                raise TermSyntaxError(
                    f"duplicate service binding {svc.text}", *tok.position(at)
                )
            tok.expect("PUNCT", "=")
            endpoints[svc.text] = tok.expect("STR").value
    statements: dict[int, Statement] = {}
    explicit: dict[int, tuple] = {}
    order: list[int] = []
    while not tok.accept("PUNCT", "}"):
        at = tok.index
        num = tok.expect("INT").value
        if num in statements:
            raise TermSyntaxError(
                f"duplicate statement number {num}", *tok.position(at)
            )
        tok.expect("PUNCT", ":")
        stmt, targets = _parse_statement(tok)
        statements[num] = stmt
        if targets is not None:
            explicit[num] = targets
        order.append(num)
    end = tok.peek()
    if end.kind != "EOF":
        raise TermSyntaxError(
            f"trailing input after route: {end.text!r}", *tok.position(tok.index)
        )
    if not statements:
        raise RouteError("route has no statements")
    succ: dict[int, tuple] = {}
    for i, num in enumerate(order):
        stmt = statements[num]
        if isinstance(stmt, Choice):
            succ[num] = (stmt.then_target, stmt.else_target)
        elif num in explicit:
            succ[num] = explicit[num]
        elif i + 1 < len(order):
            succ[num] = (order[i + 1],)
        else:
            succ[num] = ()
    route = Route(name, statements, order[0], succ, endpoints)
    validate_route(route)
    return route


_SERVICE_STATEMENTS = {"from": From, "to": To, "bean": Bean}
_EXPR_STATEMENTS = {"split": Split, "aggregate": Aggregate}
_SET_STATEMENTS = {"set_msg_prop": SetMsgProp, "set_env_prop": SetEnvProp}


def _parse_statement(tok: Tokenizer):
    t = tok.peek()
    word = t.text if t.kind == "ATOM" else None
    if word in _SERVICE_STATEMENTS:
        tok.next()
        tok.expect("PUNCT", "(")
        svc = tok.expect("ATOM").text
        tok.expect("PUNCT", ")")
        return _SERVICE_STATEMENTS[word](svc), _parse_targets(tok)
    if word in _EXPR_STATEMENTS:
        tok.next()
        return _EXPR_STATEMENTS[word](parse_term_from(tok)), _parse_targets(tok)
    if word in _SET_STATEMENTS:
        tok.next()
        var = tok.expect("ATOM").text
        tok.expect("PUNCT", ":=")
        return _SET_STATEMENTS[word](var, parse_term_from(tok)), _parse_targets(tok)
    if tok.accept("ATOM", "when"):
        start = tok.index
        cond = parse_term_from(tok)
        if not isinstance(cond, (Atom, Compound)):
            raise TermSyntaxError(
                f"choice condition must be an atom or compound: {format_term(cond)}",
                *tok.position(start),
            )
        tok.expect("ATOM", "then")
        tok.expect("ATOM", "goto")
        then_target = tok.expect("INT").value
        tok.expect("ATOM", "otherwise")
        tok.expect("ATOM", "goto")
        else_target = tok.expect("INT").value
        return Choice(cond, then_target, else_target), None
    raise TermSyntaxError(
        f"unknown statement {t.text or t.kind!r}", *tok.position(tok.index)
    )


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate_route(route: Route) -> None:
    stmts = route.statements
    if not isinstance(stmts[route.entry], From):
        raise RouteError(f"entry statement {route.entry} is not a from")
    for n, stmt in stmts.items():
        if isinstance(stmt, From) and n != route.entry:
            raise RouteError(f"from statement {n} is not the entry")
    for n, targets in route.successors_map.items():
        for t in targets:
            if t not in stmts:
                raise DanglingTarget(n, t)
        stmt = stmts[n]
        if isinstance(stmt, Split):
            if len(targets) < 2:
                raise SplitJoinError(f"split {n} needs at least two branches")
        elif not isinstance(stmt, Choice) and len(targets) > 1:
            raise RouteError(f"statement {n} has multiple successors but is not a split")
    order = _topological_order(route)
    if len(order) < len(stmts):
        unreachable = sorted(set(stmts) - set(order))
        raise RouteError(f"unreachable statement(s): {unreachable}")
    route.joins.clear()
    route.joins.update(_match_joins(route, order))


def _topological_order(route: Route) -> list:
    """The statements the entry reaches, in reverse postorder.

    One depth-first search from the entry, then from each declared statement
    not yet seen, so that a cycle among unreachable statements is still
    reported as a cycle; raises CycleError on the first back edge.
    """
    succ = route.successors_map
    on_stack: dict[int, bool] = {}  # statement -> still on the search stack
    postorder: list[int] = []
    order = None
    for root in (route.entry, *route.statements):
        if root in on_stack:
            continue
        on_stack[root] = True
        stack = [(root, iter(succ.get(root, ())))]
        while stack:
            n, succs = stack[-1]
            for t in succs:
                if t not in on_stack:
                    on_stack[t] = True
                    stack.append((t, iter(succ.get(t, ()))))
                    break
                if on_stack[t]:
                    raise CycleError(n, t)
            else:
                on_stack[n] = False
                postorder.append(n)
                stack.pop()
        if order is None:
            order = postorder[::-1]
    return order


def _match_joins(route: Route, order: list) -> dict:
    """Map each split to its join; raise SplitJoinError unless nested properly.

    Walks ``order`` forward carrying each statement's open splits, innermost
    last: a split opens itself and an aggregate closes the innermost open
    split, whose join it is. Every path must reach a statement with the same
    open splits, and the route may end only with none open.
    """
    stmts = route.statements
    joins: dict[int, int] = {}
    open_at = {route.entry: ()}
    for n in order:
        opened = open_at[n]
        stmt = stmts[n]
        if isinstance(stmt, Split):
            opened += (n,)
        elif isinstance(stmt, Aggregate):
            if not opened:
                raise SplitJoinError(f"aggregate {n} is reached outside any split")
            split = opened[-1]
            if joins.setdefault(split, n) != n:
                raise SplitJoinError(
                    f"branches of split {split} do not all converge on one aggregate"
                )
            opened = opened[:-1]
        targets = route.successors_map.get(n, ())
        if opened and not targets:
            raise SplitJoinError(
                f"branches of split {opened[-1]} do not all converge on one aggregate"
            )
        for t in targets:
            seen = open_at.setdefault(t, opened)
            if seen != opened:
                split = next(
                    s for s in (*seen, *opened) if (s in seen) != (s in opened)
                )
                raise SplitJoinError(
                    f"statement {t} is reached inside split {split} on one path "
                    "and outside it on another"
                )
    return joins


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------


def format_route(route: Route) -> str:
    lines = [f"route {route.name} {{"]
    if route.endpoints:
        lines.append("  services {")
        for svc, url in route.endpoints.items():
            lines.append(f'    {svc} = "{url}"')
        lines.append("  }")
    last_declared = next(reversed(route.statements))
    for n, stmt in route.statements.items():
        succ = route.successors_map.get(n, ())
        arrow = ""
        if isinstance(stmt, Choice):
            pass
        elif succ:
            arrow = " -> " + ", ".join(str(t) for t in succ)
        elif n != last_declared:
            arrow = " -> end"  # keep the terminal explicit on re-parse
        if isinstance(stmt, From):
            body = f"from({stmt.service})"
        elif isinstance(stmt, To):
            body = f"to({stmt.service})"
        elif isinstance(stmt, Bean):
            body = f"bean({stmt.service})"
        elif isinstance(stmt, Choice):
            body = (
                f"when {format_term(stmt.cond)} then goto {stmt.then_target} "
                f"otherwise goto {stmt.else_target}"
            )
        elif isinstance(stmt, Split):
            body = f"split {format_term(stmt.expr)}"
        elif isinstance(stmt, Aggregate):
            body = f"aggregate {format_term(stmt.expr)}"
        elif isinstance(stmt, SetMsgProp):
            body = f"set_msg_prop {stmt.var} := {format_term(stmt.expr)}"
        else:
            body = f"set_env_prop {stmt.var} := {format_term(stmt.expr)}"
        lines.append(f"  {n}: {body}{arrow}")
    lines.append("}")
    return "\n".join(lines) + "\n"
