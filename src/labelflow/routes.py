"""Message routes: numbered-statement DAGs, textual format, validation.

A route is a non-while-looping program over services. Statements are
numbered; control flow is the next declared statement unless an explicit
``-> n, m`` successor list or a choice's goto targets say otherwise. Split
fans out into several parallel branches which must all converge on the same
aggregate statement (the join); nested splits are allowed.

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
from typing import Union

from .terms import (
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
    name: str


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
    name: str
    statements: dict  # statement number -> Statement, declaration order
    entry: int
    successors_map: dict  # statement number -> tuple of successor numbers
    endpoints: dict = field(default_factory=dict)  # service atom -> URL
    joins: dict = field(default_factory=dict)  # split number -> aggregate number

    def service_atoms(self) -> list[str]:
        out = []
        for stmt in self.statements.values():
            atom = None
            if isinstance(stmt, (From, To)):
                atom = stmt.service
            elif isinstance(stmt, Bean):
                atom = stmt.name
            if atom is not None and atom not in out:
                out.append(atom)
        return out


def node_names(route: Route) -> dict:
    """Human-readable node name per statement, as used in stmt/succ facts.

    from/to/bean statements borrow their service atom; other kinds get a
    kind-derived name. Repeats are disambiguated with an ordinal suffix.
    """
    names: dict[int, str] = {}
    used: dict[str, int] = {}
    for n in route.statements:
        stmt = route.statements[n]
        if isinstance(stmt, (From, To)):
            base = stmt.service
        elif isinstance(stmt, Bean):
            base = stmt.name
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
        raise TermSyntaxError("expected route name", name_tok.line, name_tok.column)
    name = tok.next().text
    tok.expect("PUNCT", "{")
    endpoints: dict[str, str] = {}
    if tok.at_keyword("services"):
        tok.next()
        tok.expect("PUNCT", "{")
        while not tok.accept("PUNCT", "}"):
            svc = tok.expect("ATOM").text
            tok.expect("PUNCT", "=")
            endpoints[svc] = tok.expect("STR").value
    statements: dict[int, Statement] = {}
    explicit: dict[int, tuple] = {}
    order: list[int] = []
    while not tok.accept("PUNCT", "}"):
        num_tok = tok.expect("INT")
        num = num_tok.value
        if num in statements:
            raise TermSyntaxError(
                f"duplicate statement number {num}", num_tok.line, num_tok.column
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
            f"trailing input after route: {end.text!r}", end.line, end.column
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


def _parse_statement(tok: Tokenizer):
    t = tok.peek()
    if tok.accept("ATOM", "from"):
        tok.expect("PUNCT", "(")
        svc = tok.expect("ATOM").text
        tok.expect("PUNCT", ")")
        return From(svc), _parse_targets(tok)
    if tok.accept("ATOM", "to"):
        tok.expect("PUNCT", "(")
        svc = tok.expect("ATOM").text
        tok.expect("PUNCT", ")")
        return To(svc), _parse_targets(tok)
    if tok.accept("ATOM", "bean"):
        tok.expect("PUNCT", "(")
        svc = tok.expect("ATOM").text
        tok.expect("PUNCT", ")")
        return Bean(svc), _parse_targets(tok)
    if tok.accept("ATOM", "when"):
        cond = parse_term_from(tok)
        tok.expect("ATOM", "then")
        tok.expect("ATOM", "goto")
        then_target = tok.expect("INT").value
        tok.expect("ATOM", "otherwise")
        tok.expect("ATOM", "goto")
        else_target = tok.expect("INT").value
        return Choice(cond, then_target, else_target), None
    if tok.accept("ATOM", "split"):
        expr = parse_term_from(tok)
        return Split(expr), _parse_targets(tok)
    if tok.accept("ATOM", "aggregate"):
        expr = parse_term_from(tok)
        return Aggregate(expr), _parse_targets(tok)
    if tok.accept("ATOM", "set_msg_prop"):
        var = tok.expect("ATOM").text
        tok.expect("PUNCT", ":=")
        return SetMsgProp(var, parse_term_from(tok)), _parse_targets(tok)
    if tok.accept("ATOM", "set_env_prop"):
        var = tok.expect("ATOM").text
        tok.expect("PUNCT", ":=")
        return SetEnvProp(var, parse_term_from(tok)), _parse_targets(tok)
    raise TermSyntaxError(
        f"unknown statement {t.text or t.kind!r}", t.line, t.column
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
    _check_acyclic(route)
    _check_reachable(route)
    route.joins.clear()
    route.joins.update(_compute_joins(route))


def _check_acyclic(route: Route) -> None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in route.statements}

    def visit(n: int):
        color[n] = GRAY
        for t in route.successors_map.get(n, ()):
            if color[t] == GRAY:
                raise CycleError(n, t)
            if color[t] == WHITE:
                visit(t)
        color[n] = BLACK

    for n in route.statements:
        if color[n] == WHITE:
            visit(n)


def _check_reachable(route: Route) -> None:
    seen = set()
    stack = [route.entry]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(route.successors_map.get(n, ()))
    unreachable = sorted(set(route.statements) - seen)
    if unreachable:
        raise RouteError(f"unreachable statement(s): {unreachable}")


def _compute_joins(route: Route) -> dict:
    """Map each split to its unique join aggregate; validate the discipline."""
    stmts = route.statements

    def first_joins(n: int, depth: int, memo: dict) -> frozenset:
        # Outcomes of walking forward from n: the aggregate that closes
        # depth level 0, or None if the route ends first.
        key = (n, depth)
        if key in memo:
            return memo[key]
        memo[key] = frozenset()  # cycle guard; route is acyclic anyway
        stmt = stmts[n]
        if isinstance(stmt, Aggregate):
            if depth == 0:
                out = frozenset([n])
                memo[key] = out
                return out
            depth -= 1
        elif isinstance(stmt, Split):
            depth += 1
        succs = route.successors_map.get(n, ())
        if not succs:
            out = frozenset([None])
        else:
            acc = set()
            for t in succs:
                acc |= first_joins(t, depth, memo)
            out = frozenset(acc)
        memo[key] = out
        return out

    joins: dict[int, int] = {}
    memo: dict = {}
    for n, stmt in stmts.items():
        if isinstance(stmt, Split):
            outcomes = set()
            for b in route.successors_map[n]:
                outcomes |= first_joins(b, 0, memo)
            if None in outcomes or len(outcomes) != 1:
                raise SplitJoinError(
                    f"branches of split {n} do not all converge on one aggregate"
                )
            joins[n] = next(iter(outcomes))
    aggregates = {n for n, s in stmts.items() if isinstance(s, Aggregate)}
    orphans = aggregates - set(joins.values())
    if orphans:
        raise SplitJoinError(f"aggregate(s) without a matching split: {sorted(orphans)}")
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
            body = f"bean({stmt.name})"
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
