"""Dynamic route interpretation with taint-label propagation.

Implements the taint-controlled execution rules:

* from      — a fresh message carrying the source service's created labels
* to / bean — the decision point is consulted first; when allowed the
              handler runs and labels become (labels \\ removed) | created
* choice    — the condition goal is proved against the policy base and the
              variables (msg_prop/env_prop); provable means the then branch
* split     — one copy per branch, each with the original label set
* aggregate — one message tainted with the union of all branch labels
* set_msg_prop / set_env_prop — variable updates; never touch labels

The decision point is consulted exactly once per to/bean statement and
never for anything else; a request that no rule matches takes the default
effect that ``compile_policy`` fixed on the policy, so ``execute`` takes no
default effect of its own. Split branches run sequentially in successor
order; global-variable writes in an earlier branch are visible to later
ones. A drop removes the in-flight message and thereby ends the execution;
an error terminates it exceptionally. Obligations run up to the first that
fails, whose ``otherwise`` applies only if at least as restrictive as the
decision. ``kernel.rebuild`` walks all route terms.

Every executed statement appends one ``AuditEvent``, a ``NamedTuple`` that
``_Execution.record`` builds with the C-level ``tuple.__new__``, as ``decide``
builds its results (terms and route statements stay frozen dataclasses; see
``pdp._new_record``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, NamedTuple

from . import kernel
from .engine import (
    BuiltinError,
    EngineError,
    KnowledgeBase,
    Literal,
    default_builtins,
    provable,
)
from .pdp import (
    DecisionRequest,
    _new_record,
    apply_label_transform,
    decide,
    most_restrictive,
)
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
)
from .terms import Atom, Compound, Int, Str, Term, Var, format_term, functor_arity


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
        missing = [s for s in route.services if s not in self._handlers]
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


class AuditEvent(NamedTuple):
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


class _PolicyStop(Exception):
    """A drop or error decision ending the execution at a statement."""

    def __init__(self, status: str, statement: int, rule: str | None):
        self.status = status  # the RunOutcome status: dropped | errored
        self.statement = statement
        self.rule = rule


_STOP_STATUS = {"drop": "dropped", "error": "errored"}


# ---------------------------------------------------------------------------
# Expression and condition evaluation.
# ---------------------------------------------------------------------------


def eval_expr(expr: Term, props: dict, env: dict) -> Term:
    """Evaluate a route expression to a value term.

    Literals evaluate to themselves; ``msg(k)`` and ``env(k)`` read the
    message-scoped and global variable maps; other compounds evaluate their
    arguments structurally, left to right, through ``kernel.rebuild``. A
    variable cannot be evaluated.
    """
    return kernel.rebuild(expr, lambda x: _eval_node(x, props, env))


def _eval_node(expr: Term, props: dict, env: dict) -> Term | None:
    if type(expr) is Var:
        raise EvalError(f"cannot evaluate {expr!r}")
    return _read(expr, props, env)


def _read(expr: Term, props: dict, env: dict) -> Term | None:
    """The value of a ``msg(k)``/``env(k)`` read; None for any other term, so
    that ``kernel.rebuild`` keeps it or rebuilds it from its arguments."""
    if type(expr) is not Compound or expr.functor not in ("msg", "env"):
        return None
    if len(expr.args) != 1:
        return None
    key_term = expr.args[0]
    if not isinstance(key_term, Atom):
        raise EvalError(f"{expr.functor}(..) needs an atom key: {expr!r}")
    table = props if expr.functor == "msg" else env
    if key_term.name not in table:
        raise EvalError(f"unbound variable {expr.functor}({key_term.name})")
    return table[key_term.name]


def _context_builtins(props: dict, env: dict) -> dict:
    """``msg_prop/2`` and ``env_prop/2``, answering as one fact per entry would:
    an atom key gives its entry, a variable key every entry in insertion order,
    any other key nothing, and each answer renames the value apart."""
    fresh = count(1)

    def lookup(table: dict):
        def builtin(args: tuple):
            key = args[0]
            if isinstance(key, Atom):
                entries = [(key, table[key.name])] if key.name in table else ()
            elif isinstance(key, Var):
                entries = map(_atom_key, table.items())
            else:
                return
            for atom, value in entries:
                yield atom, kernel.rename(value, f"#c{next(fresh)}")

        return builtin

    return {("msg_prop", 2): lookup(props), ("env_prop", 2): lookup(env)}


def _atom_key(entry: tuple) -> tuple:
    try:
        return Atom(entry[0]), entry[1]
    except (TypeError, ValueError):
        raise BuiltinError(f"msg_prop/env_prop key {entry[0]!r} is not an atom name")


_NO_POLICY = KnowledgeBase([], default_builtins())


def eval_condition(
    cond: Term,
    props: dict,
    env: dict,
    kb: KnowledgeBase = _NO_POLICY,
) -> bool:
    """A condition holds iff the goal is provable in the current contexts.

    Each ``msg(k)``/``env(k)`` read in ``cond`` is first replaced by its
    value; every other term, variables included, stays as it is. The goal is
    proved on ``kb`` as it is, with ``msg_prop``/``env_prop`` looked up in
    ``props``/``env``; no base is built, so an atom key costs one dict
    lookup whatever the size of the policy or of the maps.
    """
    goal = kernel.rebuild(cond, lambda x: _read(x, props, env))
    try:
        return provable(kb, Literal(goal), builtins=_context_builtins(props, env))
    except EngineError as exc:
        raise EvalError(f"condition {format_term(cond)} failed: {exc}") from exc


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
    ):
        self.route = route
        self.policy = policy
        self.services = services
        self.obligations = obligations
        self.env = env
        self.choice_decisions = choice_decisions or {}
        self.names = route.names
        self.audit: list[AuditEvent] = []
        self._msg_counter = 0

    def new_message_id(self) -> str:
        self._msg_counter += 1
        return f"m{self._msg_counter}"

    def record(self, stmt_no, msg, before, after, decision=None, rule=None):
        event = (stmt_no, self.names[stmt_no], msg.id, before, after, decision, rule)
        self.audit.append(_new_record(AuditEvent, event))

    # -- statement execution ------------------------------------------------

    def run(self, payload: bytes, props: dict) -> Message:
        msg = Message(self.new_message_id(), payload, props, frozenset())
        return self.run_from(self.route.entry, msg)

    def run_from(self, stmt_no: int, msg: Message) -> Message:
        """Execute from ``stmt_no`` until the route ends.

        Open splits sit on an explicit stack, innermost last, so nesting
        depth costs no Python frames. Each entry holds the message that
        entered the split, its join, the branches not yet run and the
        branch copies that reached the join.
        """
        open_splits: list[tuple] = []
        current: int | None = stmt_no
        while True:
            stop_at = open_splits[-1][1] if open_splits else None
            if current is not None and current != stop_at:
                stmt = self.route.statements[current]
                if not isinstance(stmt, Split):
                    current = self.step(current, msg)
                    continue
                self.record(current, msg, msg.labels, msg.labels)
                branches = iter(self.route.successors_map[current])
                open_splits.append((msg, self.route.joins[current], branches, []))
            elif not open_splits:
                return msg
            else:
                open_splits[-1][3].append(msg)
            # Run the innermost split's next branch, or merge it at its join.
            entered, join, branches, arrived = open_splits[-1]
            branch = next(branches, None)
            if branch is not None:
                msg = Message(
                    self.new_message_id(),
                    entered.payload,
                    dict(entered.props),
                    entered.labels,
                )
                current = branch
            else:
                open_splits.pop()
                msg = entered
                current = self._merge(join, msg, arrived)

    def step(self, stmt_no: int, msg: Message) -> int | None:
        """Execute one statement other than a split; return its successor."""
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
        if isinstance(stmt, SetMsgProp):
            msg.props[stmt.var] = eval_expr(stmt.expr, msg.props, self.env)
            self.record(stmt_no, msg, msg.labels, msg.labels)
            return nxt
        if isinstance(stmt, SetEnvProp):
            self.env[stmt.var] = eval_expr(stmt.expr, msg.props, self.env)
            self.record(stmt_no, msg, msg.labels, msg.labels)
            return nxt
        if isinstance(stmt, Aggregate):
            # Reached only as a split's join, which run_from handles itself.
            raise RuntimeError_(f"aggregate {stmt_no} reached outside a split")
        # The entry, the only from statement: a fresh message from the source.
        self._call_handler(stmt_no, stmt.service, msg)
        url = self.route.endpoints.get(stmt.service)
        _, msg.labels = resolve_transforms(self.policy, stmt.service, url)
        self.record(stmt_no, msg, frozenset(), msg.labels)
        return nxt

    def _choice(self, stmt_no: int, stmt: Choice, msg: Message) -> bool:
        if stmt_no in self.choice_decisions:
            return bool(self.choice_decisions[stmt_no])
        return eval_condition(stmt.cond, msg.props, self.env, self.policy.kb)

    def _enter_service(self, stmt_no: int, stmt, msg: Message) -> None:
        atom = stmt.service
        url = self.route.endpoints.get(atom)
        before = msg.labels
        req = DecisionRequest(atom, before, url, Str(msg.id))
        result = decide(self.policy, req)
        effect = result.effect
        rule = result.effect_rule
        for ob in result.obligations:
            if not self.obligations.invoke(ob.action, msg):
                if most_restrictive((ob.otherwise, effect)) == ob.otherwise:
                    effect = ob.otherwise
                    rule = ob.rule
                break
        if effect != "allow":
            self.record(stmt_no, msg, before, before, effect, rule)
            raise _PolicyStop(_STOP_STATUS[effect], stmt_no, rule)
        self._call_handler(stmt_no, atom, msg)
        removes, creates = resolve_transforms(self.policy, atom, url)
        msg.labels = apply_label_transform(before, removes, creates)
        self.record(stmt_no, msg, before, msg.labels, "allow", rule)

    def _call_handler(self, stmt_no: int, atom: str, msg: Message) -> None:
        """Run ``atom``'s handler on ``msg``; a failure is a HandlerError."""
        handler = self.services.handler(atom)
        try:
            msg.payload, msg.props = handler(msg.payload, msg.props)
        except Exception as exc:
            raise HandlerError(stmt_no, exc)

    def _merge(self, join: int, msg: Message, arrived: list) -> int | None:
        """Merge the branch copies into ``msg``; return the join's successor."""
        props: dict = {}
        for m in arrived:
            props.update(m.props)
        msg.payload = b"".join(m.payload for m in arrived)
        msg.props = props
        msg.labels = frozenset().union(*(m.labels for m in arrived))
        msg.id = self.new_message_id()
        self.record(join, msg, msg.labels, msg.labels)
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
) -> RunOutcome:
    """Run a route to completion under a compiled policy.

    ``env`` is the global variable map; pass the same dict across calls to
    persist globals between executions of a route. ``choice_decisions``
    forces choice branches (statement number -> bool), used for replaying
    counterexamples and exhaustive-path testing. A decision that no rule
    matches takes the policy's default effect, fixed by ``compile_policy``.
    """
    services.check_route(route)
    obligations = obligations or ObligationRegistry()
    env = env if env is not None else {}
    exe = _Execution(route, policy, services, obligations, env, choice_decisions)
    try:
        final = exe.run(payload, dict(props or {}))
    except _PolicyStop as stop:
        return RunOutcome(stop.status, stop.statement, stop.rule, [], exe.audit, env)
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
