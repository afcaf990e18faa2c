"""Data flow control for message-based systems.

Policies written in a small DSL are compiled into Horn clauses; message
routes are interpreted with taint-label propagation under dynamic policy
enforcement, and statically model-checked against the same compiled
policies, producing counterexample flows for violations.
"""

from .engine import (
    Clause,
    CyclicTerm,
    DepthExceeded,
    EngineError,
    Floundered,
    KnowledgeBase,
    Literal,
    NameCollision,
    default_builtins,
    parse_program,
    parse_query,
    solve,
)
from .kernel import unify
from .pdp import DecisionRequest, DecisionResult, bench_decide, decide
from .policy import PolicyAst, ValidationError, format_policy, parse_policy
from .policy_compiler import CompiledPolicy, compile_policy, emit_clauses
from .routes import Route, RouteError, format_route, parse_route
from .runtime import (
    Message,
    ObligationRegistry,
    RunOutcome,
    ServiceRegistry,
    execute,
    taint_permissiveness_demo,
)
from .terms import Atom, Compound, Int, Str, Term, Var, format_term, parse_term
from .verifier import Counterexample, Verdict, render_counterexample, verify

__version__ = "0.1.0"
