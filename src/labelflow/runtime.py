"""Dynamic route interpretation with taint-label propagation.

Implements the taint-controlled execution rules:

* from      — a fresh message carrying the source service's created labels
* to / bean — the decision point is consulted first; when allowed the
              handler runs and labels become (labels \\ removed) | created
* choice    — the condition goal is proved against the policy base plus
              msg_prop/env_prop facts; provable means the then branch
* split     — one copy per branch, each with the original label set
* aggregate — one message tainted with the union of all branch labels
* set_msg_prop / set_env_prop — variable updates; never touch labels

The decision point is consulted exactly once per to/bean statement and
never for anything else. Split branches run sequentially in successor
order; global-variable writes in an earlier branch are visible to later
ones. A drop removes the in-flight message and thereby ends the execution;
an error terminates it exceptionally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .engine import (
    Clause,
    EngineError,
    KnowledgeBase,
    Literal,
    SolveLimits,
    default_builtins,
    provable,
)
from .pdp import DecisionRequest, apply_label_transform, decide
from .policy_compiler import CompiledPolicy, resolve_transforms
from .routes import (
    Aggregate,
    Bean,
    Choice,
    Route,
    SetEnvProp,
    SetMsgProp,
    Split,
    To,
    node_names,
)
from .terms import Atom, Compound, Int, Str, Term, format_term, functor_arity


class RuntimeError_(Exception):
    pass


class UnresolvedService(RuntimeError_):
    """A route references a service with no registered handler."""


class HandlerError(RuntimeError_):
    def __init__(self, statement: int, cause: Exception):
        super().__init__(f"handler failed at statement {statement}: {cause}")
        self.statement = statement
        self.cause = cause


class EvalError(RuntimeError_):
    """A route expression could not be evaluated."""


# A handler consumes (payload, props) and returns the transformed pair.
Handler = Callable[[bytes, dict], tuple]


class ServiceRegistry:
    def __init__(self):
        self._handlers: dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        self._handlers[name] = handler

    def handler(self, name: str) -> Handler:
        try:
            return self._handlers[name]
        except KeyError:
            raise UnresolvedService(f"no handler registered for service {name!r}")

    def check_route(self, route: Route) -> None:
        missing = [s for s in route.service_atoms() if s not in self._handlers]
        if missing:
            raise UnresolvedService(f"no handler for service(s): {missing}")


def echo_handler(payload: bytes, props: dict):
    return payload, props


# An obligation action receives its argument terms and the current message;
# truthy return means success, an exception or falsy return means failure.
ObligationFn = Callable[[tuple, "Message"], bool]


class ObligationRegistry:
    """Host actions; an unsupported action is equivalent to a failing one."""

    def __init__(self):
        self._actions: dict[tuple[str, int], ObligationFn] = {}

    def register(self, name: str, arity: int, fn: ObligationFn) -> None:
        self._actions[(name, arity)] = fn

    def invoke(self, action: Term, message: "Message") -> bool:
        try:
            key = functor_arity(action)
        except TypeError:
            return False
        fn = self._actions.get(key)
        if fn is None:
            return False
        args = action.args if isinstance(action, Compound) else ()
        try:
            return bool(fn(args, message))
        except Exception:
            return False


@dataclass
class Message:
    id: str
    payload: bytes
    props: dict  # message-scoped variables
    labels: frozenset  # taint label set; always ground terms


@dataclass(frozen=True)
class AuditEvent:
    statement: int
    node: str
    message_id: str
    labels_before: frozenset
    labels_after: frozenset
    decision: str | None = None  # effect at to/bean statements
    rule: str | None = None

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "node": self.node,
            "message": self.message_id,
            "labels_before": sorted(format_term(l) for l in self.labels_before),
            "labels_after": sorted(format_term(l) for l in self.labels_after),
            "decision": self.decision,
            "rule": self.rule,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class RunOutcome:
    status: str  # completed | dropped | errored
    at_statement: int | None = None
    rule: str | None = None
    final_messages: list = field(default_factory=list)
    audit: list = field(default_factory=list)
    env: dict = field(default_factory=dict)


class _Drop(Exception):
    def __init__(self, statement: int, rule: str | None):
        self.statement = statement
        self.rule = rule


class _PolicyError(Exception):
    def __init__(self, statement: int, rule: str | None):
        self.statement = statement
        self.rule = rule


# ---------------------------------------------------------------------------
# Expression and condition evaluation.
# ---------------------------------------------------------------------------


def eval_expr(expr: Term, props: dict, env: dict) -> Term:
    """Evaluate a route expression to a value term.

    Literals evaluate to themselves; ``msg(k)`` and ``env(k)`` read the
    message-scoped and global variable maps; other compounds evaluate their
    arguments structurally.
    """
    if isinstance(expr, (Int, Str, Atom)):
        return expr
    if isinstance(expr, Compound):
        if expr.functor in ("msg", "env") and len(expr.args) == 1:
            key_term = expr.args[0]
            if not isinstance(key_term, Atom):
                raise EvalError(f"{expr.functor}(..) needs an atom key: {expr!r}")
            table = props if expr.functor == "msg" else env
            if key_term.name not in table:
                raise EvalError(f"unbound variable {expr.functor}({key_term.name})")
            return table[key_term.name]
        return Compound(
            expr.functor, tuple(eval_expr(a, props, env) for a in expr.args)
        )
    raise EvalError(f"cannot evaluate {expr!r}")


def _context_facts(props: dict, env: dict) -> list[Clause]:
    facts = []
    for k, v in props.items():
        facts.append(Clause(Compound("msg_prop", (Atom(k), v))))
    for k, v in env.items():
        facts.append(Clause(Compound("env_prop", (Atom(k), v))))
    return facts


def eval_condition(
    cond: Term,
    props: dict,
    env: dict,
    kb: KnowledgeBase | None = None,
    limits: SolveLimits | None = None,
) -> bool:
    """A condition holds iff the goal is provable in the current contexts."""
    goal = eval_expr(cond, props, env) if _evaluable(cond) else cond
    base = kb if kb is not None else KnowledgeBase([], default_builtins())
    extended = base.extend(_context_facts(props, env))
    try:
        return provable(extended, Literal(goal), limits)
    except EngineError as exc:
        raise EvalError(f"condition {format_term(cond)} failed: {exc}") from exc


def _evaluable(cond: Term) -> bool:
    # Substitute msg()/env() reads inside conditions when present; plain
    # goals like msg_prop(k, v) are proved against the fact base instead.
    if isinstance(cond, Compound):
        if cond.functor in ("msg", "env") and len(cond.args) == 1:
            return True
        return any(_evaluable(a) for a in cond.args)
    return False


# ---------------------------------------------------------------------------
# The interpreter.
# ---------------------------------------------------------------------------


class _Execution:
    def __init__(
        self,
        route: Route,
        policy: CompiledPolicy,
        services: ServiceRegistry,
        obligations: ObligationRegistry,
        env: dict,
        choice_decisions: dict | None,
        default_effect: str,
        limits: SolveLimits | None = None,
    ):
        self.route = route
        self.policy = policy
        self.services = services
        self.obligations = obligations
        self.env = env
        self.choice_decisions = choice_decisions or {}
        self.default_effect = default_effect
        self.limits = limits
        self.names = node_names(route)
        self.audit: list[AuditEvent] = []
        self._msg_counter = 0

    def new_message_id(self) -> str:
        self._msg_counter += 1
        return f"m{self._msg_counter}"

    def record(self, stmt_no, msg, before, after, decision=None, rule=None):
        self.audit.append(
            AuditEvent(
                stmt_no, self.names[stmt_no], msg.id, before, after, decision, rule
            )
        )

    # -- statement execution ------------------------------------------------

    def run(self, payload: bytes, props: dict) -> Message:
        entry = self.route.entry
        stmt = self.route.statements[entry]
        handler = self.services.handler(stmt.service)
        try:
            payload, props = handler(payload, dict(props))
        except Exception as exc:
            raise HandlerError(entry, exc)
        _, creates = resolve_transforms(
            self.policy, stmt.service, self.route.endpoints.get(stmt.service)
        )
        msg = Message(self.new_message_id(), payload, props, frozenset(creates))
        self.record(entry, msg, frozenset(), msg.labels)
        succ = self.route.successors_map.get(entry, ())
        if not succ:
            return msg
        return self.run_from(succ[0], msg, stop_at=None)

    def run_from(self, stmt_no: int, msg: Message, stop_at: int | None) -> Message:
        """Execute from ``stmt_no`` until the route ends or ``stop_at``."""
        current: int | None = stmt_no
        while current is not None and current != stop_at:
            current = self.step(current, msg)
        return msg

    def step(self, stmt_no: int, msg: Message) -> int | None:
        stmt = self.route.statements[stmt_no]
        succ = self.route.successors_map.get(stmt_no, ())
        nxt = succ[0] if succ else None
        if isinstance(stmt, (To, Bean)):
            self._enter_service(stmt_no, stmt, msg)
            return nxt
        if isinstance(stmt, Choice):
            taken = self._choice(stmt_no, stmt, msg)
            self.record(stmt_no, msg, msg.labels, msg.labels)
            return stmt.then_target if taken else stmt.else_target
        if isinstance(stmt, Split):
            return self._split(stmt_no, stmt, msg)
        if isinstance(stmt, SetMsgProp):
            msg.props[stmt.var] = eval_expr(stmt.expr, msg.props, self.env)
            self.record(stmt_no, msg, msg.labels, msg.labels)
            return nxt
        if isinstance(stmt, SetEnvProp):
            self.env[stmt.var] = eval_expr(stmt.expr, msg.props, self.env)
            self.record(stmt_no, msg, msg.labels, msg.labels)
            return nxt
        if isinstance(stmt, Aggregate):
            # Reached only through _split, which handles the merge itself.
            raise RuntimeError_(f"aggregate {stmt_no} reached outside a split")
        raise RuntimeError_(f"from statement {stmt_no} reached mid-route")

    def _choice(self, stmt_no: int, stmt: Choice, msg: Message) -> bool:
        if stmt_no in self.choice_decisions:
            return bool(self.choice_decisions[stmt_no])
        return eval_condition(
            stmt.cond, msg.props, self.env, self.policy.kb, self.limits
        )

    def _enter_service(self, stmt_no: int, stmt, msg: Message) -> None:
        atom = stmt.service if isinstance(stmt, To) else stmt.name
        url = self.route.endpoints.get(atom)
        before = msg.labels
        req = DecisionRequest(
            url or atom,
            before,
            message_ref=Str(msg.id),
            service_id=atom if url else None,
        )
        result = decide(self.policy, req, self.default_effect)
        effect = result.effect
        rule = result.effect_rule
        for ob in result.obligations:
            if not self.obligations.invoke(ob.action, msg):
                effect = ob.otherwise
                rule = ob.rule
                break
        if effect == "drop":
            self.record(stmt_no, msg, before, before, "drop", rule)
            raise _Drop(stmt_no, rule)
        if effect == "error":
            self.record(stmt_no, msg, before, before, "error", rule)
            raise _PolicyError(stmt_no, rule)
        handler = self.services.handler(atom)
        try:
            msg.payload, msg.props = handler(msg.payload, msg.props)
        except Exception as exc:
            raise HandlerError(stmt_no, exc)
        removes, creates = resolve_transforms(self.policy, atom, url)
        msg.labels = apply_label_transform(before, removes, creates)
        self.record(stmt_no, msg, before, msg.labels, "allow", rule)

    def _split(self, stmt_no: int, stmt: Split, msg: Message) -> int | None:
        branches = self.route.successors_map[stmt_no]
        join = self.route.joins[stmt_no]
        self.record(stmt_no, msg, msg.labels, msg.labels)
        arrived: list[Message] = []
        for branch in branches:
            copy = Message(
                self.new_message_id(), msg.payload, dict(msg.props), msg.labels
            )
            self.run_from(branch, copy, stop_at=join)
            arrived.append(copy)
        merged_labels = frozenset().union(*(m.labels for m in arrived))
        merged_props: dict = {}
        for m in arrived:
            merged_props.update(m.props)
        merged = Message(
            self.new_message_id(),
            b"".join(m.payload for m in arrived),
            merged_props,
            merged_labels,
        )
        self.record(join, merged, merged_labels, merged_labels)
        # Adopt the merged state into the caller's message object.
        msg.payload = merged.payload
        msg.props = merged.props
        msg.labels = merged.labels
        msg.id = merged.id
        join_succ = self.route.successors_map.get(join, ())
        return join_succ[0] if join_succ else None


def execute(
    route: Route,
    policy: CompiledPolicy,
    services: ServiceRegistry,
    obligations: ObligationRegistry | None = None,
    payload: bytes = b"",
    props: dict | None = None,
    *,
    env: dict | None = None,
    choice_decisions: dict | None = None,
    default_effect: str = "allow",
    limits: SolveLimits | None = None,
) -> RunOutcome:
    """Run a route to completion under a compiled policy.

    ``env`` is the global variable map; pass the same dict across calls to
    persist globals between executions of a route. ``choice_decisions``
    forces choice branches (statement number -> bool), used for replaying
    counterexamples and exhaustive-path testing.
    """
    services.check_route(route)
    obligations = obligations or ObligationRegistry()
    env = env if env is not None else {}
    exe = _Execution(
        route,
        policy,
        services,
        obligations,
        env,
        choice_decisions,
        default_effect,
        limits,
    )
    try:
        final = exe.run(payload, dict(props or {}))
    except _Drop as d:
        return RunOutcome("dropped", d.statement, d.rule, [], exe.audit, env)
    except _PolicyError as e:
        return RunOutcome("errored", e.statement, e.rule, [], exe.audit, env)
    except HandlerError as h:
        return RunOutcome("errored", h.statement, None, [], exe.audit, env)
    return RunOutcome("completed", None, None, [final], exe.audit, env)


# ---------------------------------------------------------------------------
# The taint-permissiveness demonstration program.
# ---------------------------------------------------------------------------

IMPLICIT_LEAK_ROUTE = """\
route implicit_leak {
  services {
    source = "sensor://secret-bit"
    sink = "https://public.example/sink"
  }
  1: from(source)
  2: set_msg_prop public := 1
  3: set_msg_prop tmp := 0
  4: when msg_prop(tainted, 1) then goto 5 otherwise goto 6
  5: set_msg_prop tmp := 1
  6: when msg_prop(tmp, 1) then goto 8 otherwise goto 7
  7: set_msg_prop public := 0
  8: to(sink)
}
"""


def taint_permissiveness_demo(
    program: Route,
    policy: CompiledPolicy,
    tainted: bool = True,
) -> RunOutcome:
    """Run the implicit-leak program and let the leak happen.

    The sensitive bit only ever influences control flow, so no label
    reaches the public sink even though the sink's ``public`` variable
    always equals the bit. Completing without any policy trigger is the
    designed (permissive) behavior of taint-style enforcement, not a bug.
    """
    services = ServiceRegistry()

    def source(payload: bytes, props: dict):
        props["tainted"] = Int(1 if tainted else 0)
        return payload, props

    services.register("source", source)
    services.register("sink", echo_handler)
    return execute(program, policy, services)
