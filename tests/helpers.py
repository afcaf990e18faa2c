"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the code paths it is used to check:
tokens are scanned one character at a time instead of by regular
expression, pattern matching is re-implemented from scratch, label removal
asks every (label, remove) pair instead of splitting off the ground
removes, logical consequences are computed bottom-up instead of by
resolution, choice conditions read the message's variables as one fact per
variable instead of through lookup builtins, a split's join is found by
walking forward from each of its branches and open splits by following
every path instead of in one pass over a topological order, and dynamic
violation is decided by exhaustively forcing every choice valuation.
"""

from __future__ import annotations

from itertools import count, product
from types import SimpleNamespace

from labelflow.engine import Clause, KnowledgeBase, Literal, provable
from labelflow.kernel import match
from labelflow.policy import (
    Decision,
    FlowRule,
    PolicyAst,
    ServiceDecl,
)
from labelflow.policy_compiler import CompiledPolicy, compile_policy
from labelflow.routes import (
    Aggregate,
    Bean,
    Choice,
    From,
    Route,
    Split,
    SplitJoinError,
    To,
)
from labelflow.runtime import ServiceRegistry, echo_handler, execute
from labelflow.terms import Atom, Compound, Int, Term, TermSyntaxError, Var

# ---------------------------------------------------------------------------
# A character-at-a-time scanner: the token tuples of ``terms.Tokenizer``.
# ---------------------------------------------------------------------------

_REF_PUNCT = (":-", ":=", "->", "\\+", "(", ")", "{", "}", ",", ".", ":", "=")
_REF_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}


def reference_tokens(text: str, comment: str = "%") -> list[tuple]:
    """(kind, text, line, column, value) per token, ending with EOF.

    Raises ``TermSyntaxError`` where the tokenizer must; a non-decimal digit
    such as ``²`` that starts or continues an integer raises ``ValueError``.
    """
    pos, line, column = 0, 1, 1
    out = []

    def advance(n=1):
        nonlocal pos, line, column
        for _ in range(n):
            if text[pos] == "\n":
                line, column = line + 1, 1
            else:
                column += 1
            pos += 1

    while pos < len(text):
        c = text[pos]
        if c.isspace():
            advance()
            continue
        if text.startswith(comment, pos):
            while pos < len(text) and text[pos] != "\n":
                advance()
            continue
        at = (line, column)
        if c == '"':
            advance()
            chars = []
            while True:
                if pos >= len(text):
                    raise TermSyntaxError("unterminated string", *at)
                c = text[pos]
                advance()
                if c == '"':
                    break
                if c == "\\":
                    if pos >= len(text) or text[pos] not in _REF_ESCAPES:
                        raise TermSyntaxError("bad escape sequence", line, column)
                    chars.append(_REF_ESCAPES[text[pos]])
                    advance()
                else:
                    chars.append(c)
            out.append(("STR", "".join(chars), *at, "".join(chars)))
        elif c.isdigit() or (
            c == "-" and pos + 1 < len(text) and text[pos + 1].isdigit()
        ):
            start = pos
            advance()
            while pos < len(text) and text[pos].isdigit():
                advance()
            out.append(("INT", text[start:pos], *at, int(text[start:pos])))
        elif c.isalpha() or c == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                advance()
            raw = text[start:pos]
            kind = "VAR" if raw[0] == "_" or raw[0].isupper() else "ATOM"
            out.append((kind, raw, *at, None))
        else:
            p = next((p for p in _REF_PUNCT if text.startswith(p, pos)), None)
            if p is None:
                raise TermSyntaxError(f"unexpected character {c!r}", line, column)
            advance(len(p))
            out.append(("PUNCT", p, *at, None))
    out.append(("EOF", "", line, column, None))
    return out


# ---------------------------------------------------------------------------
# A from-scratch matcher: pattern (may contain variables) against ground term.
# ---------------------------------------------------------------------------


def match_pattern(pattern: Term, ground: Term, subst: dict | None = None):
    """One-way matching; returns the substitution or None."""
    subst = dict(subst) if subst else {}
    stack = [(pattern, ground)]
    while stack:
        p, g = stack.pop()
        if isinstance(p, Var):
            if p.name in subst:
                if not _same_term(subst[p.name], g):
                    return None
            else:
                subst[p.name] = g
        elif isinstance(p, Compound):
            if (
                not isinstance(g, Compound)
                or p.functor != g.functor
                or len(p.args) != len(g.args)
            ):
                return None
            stack.extend(zip(p.args, g.args))
        elif p != g:
            return None
    return subst


def reference_label_transform(labels, removes, creates) -> frozenset:
    """The label transform by its definition: a label is removed when some
    remove matches it one way, asked with ``kernel.match`` for every (label,
    remove) pair, ground or not; then the created labels are added."""
    kept = [l for l in labels if not any(match(r, l) for r in removes)]
    return frozenset(kept) | frozenset(creates)


def _same_term(a: Term, b: Term) -> bool:
    """Structural equality over an explicit stack, written apart from
    ``Compound.__eq__`` and its cached hash: the reference it is tested
    against."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Compound):
            if (
                not isinstance(y, Compound)
                or x.functor != y.functor
                or len(x.args) != len(y.args)
            ):
                return False
            stack.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


def substitute(t: Term, subst: dict) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(substitute(a, subst) for a in t.args))
    return t


def term_is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Compound):
        return all(term_is_ground(a) for a in t.args)
    return True


# ---------------------------------------------------------------------------
# Bottom-up fixpoint: the logical consequences of a definite-clause program.
# ---------------------------------------------------------------------------


def forward_chain(clauses, max_iterations: int = 10000) -> set:
    """All ground facts derivable by naive bottom-up iteration.

    Only definite clauses (no negation, no builtins); rules must be range
    restricted so every derived head is ground.
    """
    facts: set[Term] = {c.head for c in clauses if c.is_fact}
    rules = [c for c in clauses if not c.is_fact]
    for _ in range(max_iterations):
        added = False
        for rule in rules:
            for subst in _body_matches(rule.body, frozenset(facts)):
                head = substitute(rule.head, subst)
                if not term_is_ground(head):
                    raise ValueError(f"non-ground derived head: {head!r}")
                if head not in facts:
                    facts.add(head)
                    added = True
        if not added:
            return facts
    raise RuntimeError("fixpoint did not converge")


def _body_matches(body, facts):
    if not body:
        yield {}
        return
    lit, rest = body[0], body[1:]
    assert not lit.negated, "oracle handles definite clauses only"
    for fact in facts:
        subst = match_pattern(lit.term, fact)
        if subst is not None:
            for full in _body_matches(
                tuple(type(lit)(substitute(l.term, subst), l.negated) for l in rest),
                facts,
            ):
                yield {**subst, **full}


# ---------------------------------------------------------------------------
# Random policies.
# ---------------------------------------------------------------------------

SERVICE_POOL = ("s1", "s2", "s3", "s4")
LABEL_POOL = ("la", "lb", "lc", "ld", "le", "lf")


def random_policy(rng, max_rules: int = 10) -> CompiledPolicy:
    decls = []
    for name in SERVICE_POOL:
        if rng.random() < 0.25:
            continue  # leave some services undeclared
        endpoint = f"svc://{name}" if rng.random() < 0.7 else "svc://.+"
        creates = rng.sample(LABEL_POOL, rng.randint(0, 2))
        removes = rng.sample(
            [l for l in LABEL_POOL if l not in creates], rng.randint(0, 2)
        )
        decls.append(
            ServiceDecl(
                id=name,
                endpoint=endpoint,
                creates_labels=tuple(Atom(l) for l in creates),
                removes_labels=tuple(Atom(l) for l in removes),
            )
        )
    if not decls:
        decls.append(
            ServiceDecl(
                id=SERVICE_POOL[0],
                endpoint=f"svc://{SERVICE_POOL[0]}",
                creates_labels=(Atom(LABEL_POOL[0]),),
            )
        )
    rules = []
    for i in range(rng.randint(0, max_rules)):
        rules.append(
            FlowRule(
                name=f"r{i}",
                target=rng.choice(decls).id,
                trigger_labels=tuple(
                    Atom(l) for l in rng.sample(LABEL_POOL, rng.randint(1, 2))
                ),
                decision=Decision(rng.choice(("allow", "drop", "drop", "error"))),
            )
        )
    return compile_policy(PolicyAst(tuple(decls), tuple(rules)))


def sink_policy(n_rules: int) -> CompiledPolicy:
    """``n_rules`` rules on ``raw``: three target ``sink``, the rest ``other``.

    The sink rules sit first, in the middle and last, so a plan that lost
    declaration order would show. ``src`` creates ``raw``.
    """
    decls = (
        ServiceDecl("src", "svc://src", creates_labels=(Atom("raw"),)),
        ServiceDecl("sink", "svc://sink"),
        ServiceDecl("other", "svc://other"),
    )
    sink_at = {0, n_rules // 2, n_rules - 1}
    rules = tuple(
        FlowRule(
            name=f"rule{i}",
            target="sink" if i in sink_at else "other",
            trigger_labels=(Atom("raw"),),
            decision=Decision("allow" if i in sink_at else "drop"),
        )
        for i in range(n_rules)
    )
    return compile_policy(PolicyAst(decls, rules))


# A sensor that creates ``raw`` and a declared sink, with no rule: only the
# default effect decides the flow from one to the other.
UNRULED_POLICY = """
service { id sensor endpoint "svc://sensor" creates_label raw }
service { id sink endpoint "svc://sink" }
"""

UNRULED_ROUTE = """
route r {
  services { sensor = "svc://sensor" sink = "svc://sink" }
  1: from(sensor)
  2: to(sink)
}
"""


SINK_ROUTE = """
route r {
  services { s = "svc://src" k = "svc://sink" }
  1: from(s)
  2: to(k)
}
"""


# ---------------------------------------------------------------------------
# Random acyclic routes (split branches are statement-disjoint).
# ---------------------------------------------------------------------------


def random_route(
    rng, name: str = "fuzz", max_statements: int = 10, max_choices: int = 3
) -> Route:
    endpoints = {s: f"svc://{s}" for s in SERVICE_POOL}
    numbers = count(1)
    stmts: dict = {}
    succ: dict = {}
    budget = {
        "stmts": rng.randint(2, max_statements),
        "choices": rng.randint(0, max_choices),
        "splits": rng.randint(0, 2),
    }

    def service_node():
        n = next(numbers)
        budget["stmts"] -= 1
        atom = rng.choice(SERVICE_POOL)
        stmts[n] = To(atom) if rng.random() < 0.7 else Bean(atom)
        return n, [n]

    def choice_block(depth):
        budget["choices"] -= 1
        budget["stmts"] -= 1  # the choice statement itself
        then_head, then_tails = sequence(depth + 1, limit=1)
        else_head, else_tails = sequence(depth + 1, limit=1)
        n = next(numbers)
        stmts[n] = Choice(Compound("eq", (Int(0), Int(0))))
        succ[n] = (then_head, else_head)
        return n, then_tails + else_tails

    def split_block(depth):
        budget["splits"] -= 1
        budget["stmts"] -= 2  # split + aggregate
        b1_head, b1_tails = sequence(depth + 1, limit=1)
        b2_head, b2_tails = sequence(depth + 1, limit=1)
        agg = next(numbers)
        stmts[agg] = Aggregate(Atom("concat"))
        for t in b1_tails + b2_tails:
            succ[t] = (agg,)
        n = next(numbers)
        stmts[n] = Split(Atom("parts"))
        succ[n] = (b1_head, b2_head)
        return n, [agg]

    def sequence(depth, limit=None):
        length = rng.randint(1, limit or 3)
        blocks = []
        for _ in range(length):
            r = rng.random()
            if (
                depth < 2
                and budget["choices"] > 0
                and budget["stmts"] >= 3
                and r < 0.35
            ):
                blocks.append(choice_block(depth))
            elif (
                depth < 2
                and budget["splits"] > 0
                and budget["stmts"] >= 4
                and r < 0.5
            ):
                blocks.append(split_block(depth))
            elif budget["stmts"] > 0:
                blocks.append(service_node())
            else:
                break
        if not blocks:
            blocks.append(service_node())
        for (_, tails), (head2, _) in zip(blocks, blocks[1:]):
            for t in tails:
                succ[t] = (head2,)
        return blocks[0][0], blocks[-1][1]

    entry = next(numbers)
    budget["stmts"] -= 1
    stmts[entry] = From(rng.choice(SERVICE_POOL))
    head, tails = sequence(0)
    succ[entry] = (head,)
    for t in tails:
        succ[t] = ()
    ordered = {n: stmts[n] for n in sorted(stmts)}
    return Route(name, ordered, entry, succ, endpoints)


# ---------------------------------------------------------------------------
# Random route DAGs: any from/to/choice/split/aggregate shape, most of them
# rejected, for comparing the route checks with the oracles below.
# ---------------------------------------------------------------------------


def random_dag(rng, max_statements: int = 12) -> SimpleNamespace:
    """A route draft, unchecked: a namespace with ``Route``'s attributes
    (``name``, ``statements``, ``entry``, ``successors_map``, ``endpoints``),
    which ``Route(**vars(draft))`` checks. Its statements are all of the
    right kind and arity and its every edge goes to a higher statement
    number; nothing else holds. Targets lie at most three statements ahead,
    so that branches often converge, and nine drafts in ten keep only what
    the entry reaches."""
    size = rng.randint(2, max_statements)
    stmts: dict = {1: From("src")}
    succ: dict = {1: (2,)}

    def ahead(n, k):
        return rng.sample(range(n + 1, min(n + 4, size) + 1), k)

    cond = Compound("eq", (Int(0), Int(0)))
    for n in range(2, size + 1):
        room = size - n
        r = rng.random()
        if room >= 2 and r < 0.25:
            stmts[n] = Split(Atom("parts"))
            succ[n] = tuple(ahead(n, rng.randint(2, min(3, room))))
        elif room >= 1 and r < 0.4:
            stmts[n] = Choice(cond)
            succ[n] = tuple(ahead(n, 1) * 2 if room == 1 else ahead(n, 2))
        else:
            closes = r < 0.65 and any(type(s) is Split for s in stmts.values())
            stmts[n] = Aggregate(Atom("concat")) if closes else To("t")
            if room and rng.random() < 0.9:
                succ[n] = (n + 1,) if rng.random() < 0.5 else tuple(ahead(n, 1))
            else:
                succ[n] = ()
    if rng.random() < 0.9:  # keep only what the entry reaches
        reached, stack = set(), [1]
        while stack:
            n = stack.pop()
            if n not in reached:
                reached.add(n)
                stack.extend(succ[n])
        stmts = {n: s for n, s in stmts.items() if n in reached}
        succ = {n: succ[n] for n in stmts}
    return SimpleNamespace(
        name="dag", statements=stmts, entry=1, successors_map=succ, endpoints={}
    )


def reference_joins(route: Route) -> dict:
    """Map each split to its join by walking forward from each branch.

    A split's branches must all reach one aggregate at nesting level 0, a
    nested split raising the level and an aggregate lowering it, and every
    aggregate must be some split's join; raises SplitJoinError otherwise.
    The route must be acyclic. This counts levels only, so it does not
    notice a branch entered or left between its split and join.
    """
    stmts = route.statements

    def first_joins(n: int, memo: dict) -> frozenset:
        # The aggregates that close level 0 on the paths from n, with None
        # for a path that ends first; post-order over an explicit stack.
        stack = [(n, 0)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            at, level = key
            stmt = stmts[at]
            if isinstance(stmt, Aggregate):
                if level == 0:
                    memo[key] = frozenset([at])
                    stack.pop()
                    continue
                level -= 1
            elif isinstance(stmt, Split):
                level += 1
            succs = route.successors_map.get(at, ())
            pending = [(t, level) for t in succs if (t, level) not in memo]
            if pending:
                stack.extend(pending)
                continue
            if not succs:
                memo[key] = frozenset([None])
            else:
                memo[key] = frozenset().union(*(memo[(t, level)] for t in succs))
            stack.pop()
        return memo[(n, 0)]

    joins: dict[int, int] = {}
    memo: dict = {}
    for n, stmt in stmts.items():
        if isinstance(stmt, Split):
            outcomes = set()
            for b in route.successors_map[n]:
                outcomes |= first_joins(b, memo)
            if None in outcomes or len(outcomes) != 1:
                raise SplitJoinError(f"branches of split {n} do not converge")
            joins[n] = next(iter(outcomes))
    orphans = {n for n, s in stmts.items() if isinstance(s, Aggregate)}
    orphans -= set(joins.values())
    if orphans:
        raise SplitJoinError(f"aggregates without a split: {sorted(orphans)}")
    return joins


def open_split_tuples(route: Route) -> dict:
    """Statement -> the set of open-split tuples (innermost last) it is
    reached with, over every path from the entry; a split opens itself and
    an aggregate closes the innermost open split, if any. The route must be
    acyclic."""
    tuples: dict = {}
    stack = [(route.entry, ())]
    while stack:
        n, opened = stack.pop()
        if opened in tuples.setdefault(n, set()):
            continue
        tuples[n].add(opened)
        stmt = route.statements[n]
        if isinstance(stmt, Split):
            opened += (n,)
        elif isinstance(stmt, Aggregate):
            opened = opened[:-1]
        stack.extend((t, opened) for t in route.successors_map.get(n, ()))
    return tuples


def registry_for(route: Route) -> ServiceRegistry:
    services = ServiceRegistry()
    for atom in route.service_atoms():
        services.register(atom, echo_handler)
    return services


# ---------------------------------------------------------------------------
# Exhaustive dynamic oracle: run every choice valuation.
# ---------------------------------------------------------------------------


def exhaustive_outcomes(route: Route, policy):
    choice_nums = [
        n for n, s in route.statements.items() if isinstance(s, Choice)
    ]
    outcomes = []
    for bits in product((False, True), repeat=len(choice_nums)):
        outcomes.append(
            execute(
                route,
                policy,
                registry_for(route),
                choice_decisions=dict(zip(choice_nums, bits)),
            )
        )
    return outcomes


def dynamically_violates(route: Route, policy) -> bool:
    return any(o.status != "completed" for o in exhaustive_outcomes(route, policy))


# ---------------------------------------------------------------------------
# Choice conditions over context facts: one msg_prop/env_prop fact per
# message or global variable, on a base that also holds the policy clauses.
# ---------------------------------------------------------------------------


def context_facts(props: dict, env: dict) -> list[Clause]:
    facts = [Clause(Compound("msg_prop", (Atom(k), v))) for k, v in props.items()]
    facts += [Clause(Compound("env_prop", (Atom(k), v))) for k, v in env.items()]
    return facts


def reference_condition(cond: Term, props: dict, env: dict, kb) -> bool:
    """Is ``cond`` provable over ``kb``'s clauses plus the context facts?

    Engine errors propagate as raised.
    """
    base = KnowledgeBase(kb.clauses + tuple(context_facts(props, env)), kb.builtins)
    return provable(base, Literal(cond))
