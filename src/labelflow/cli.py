"""Command-line front end.

Subcommands:

* ``compile <policy.lucon>``  — dump the policy's clause representation
* ``check <route> <policy>``  — static verification; exit 1 on violations
* ``run <route...> <policy>`` — execute routes with stub service handlers
* ``bench``                   — decision-point scaling benchmark (CSV)

A process builds the command tree (``build_parser``) once, on its first
call, and parses every later call with it.

Exit codes: 0 success/valid/completed, 1 policy violation or a dropped or
errored run, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .policy import ValidationError, parse_policy
from .policy_compiler import CompiledPolicy, compile_policy, emit_clauses
from .routes import RouteError, parse_route
from .runtime import (
    ObligationRegistry,
    ServiceRegistry,
    RuntimeError_,
    echo_handler,
    execute,
)
from .terms import Atom, Int, TermSyntaxError, parse_term
from .verifier import render_verdict, verify


class CliError(Exception):
    pass


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text")


def _load(path: str, parse):
    """``parse`` of the text in the file ``path``; input errors name the file."""
    text = _read(path)
    try:
        return parse(text)
    except (RouteError, TermSyntaxError, ValidationError) as exc:
        raise CliError(f"{path}: {exc}")


def _load_policy(path: str, default_deny: bool = False) -> CompiledPolicy:
    """The policy in the file ``path``, compiled, and so validated, once."""
    effect = "drop" if default_deny else "allow"
    return _load(path, lambda text: compile_policy(parse_policy(text), effect))


# ---------------------------------------------------------------------------
# Stub-service manifests for `run`.
# ---------------------------------------------------------------------------

_STUB_KINDS = ("echo", "const", "sink", "fail", "source")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{where}: expected a JSON object")
    return value


def build_registries(manifest: dict):
    """Registries from a declarative stub manifest.

    ``services`` maps service atoms to stubs: ``echo`` (identity),
    ``const`` (fixed payload), ``sink`` (identity), ``fail`` (raises),
    ``source`` (seeds message props). ``obligations`` maps ``name/arity``
    to ``succeed`` or ``fail``. Endpoint URLs come only from a route's
    ``services`` block, so a ``url`` key is an input error.
    """
    services = ServiceRegistry()
    manifest = _object(manifest, "manifest")
    for name, spec in _object(manifest.get("services", {}), "services").items():
        spec = _object(spec, f"service {name!r}")
        kind = spec.get("kind", "echo")
        if kind not in _STUB_KINDS:
            raise CliError(f"service {name!r}: unknown stub kind {kind!r}")
        if "url" in spec:
            raise CliError(
                f"service {name!r}: manifests take no 'url'; endpoint URLs "
                "come from the route's services block"
            )
        if kind == "fail":

            def handler(payload, props, _name=name):
                raise RuntimeError(f"stub service {_name} always fails")

        elif kind == "const":
            const_payload = spec.get("payload", "")
            if not isinstance(const_payload, str):
                raise CliError(f"service {name!r}: payload must be a string")

            def handler(payload, props, _p=const_payload.encode()):
                return _p, props

        elif kind == "source":
            given = _object(spec.get("props", {}), f"service {name!r} props")
            try:
                # Conditions read each prop as msg_prop(key, value).
                seeded = {
                    Atom(k).name: parse_term(v) if isinstance(v, str) else Int(int(v))
                    for k, v in given.items()
                }
            except (TermSyntaxError, TypeError, ValueError, OverflowError) as exc:
                raise CliError(f"service {name!r} props: {exc}")

            def handler(payload, props, _seed=seeded):
                props.update(_seed)
                return payload, props

        else:  # echo / sink
            handler = echo_handler
        services.register(name, handler)
    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    table = _object(manifest.get("obligations", {}), "obligations")
    for key, behavior in table.items():
        name, _, arity = key.partition("/")
        try:
            name = Atom(name).name  # non-empty, with no whitespace
            arity = int(arity) if arity.isdecimal() else None
        except ValueError:  # not such a name, or more digits than ``int`` converts
            arity = None
        if arity is None or behavior not in ("succeed", "fail"):
            raise CliError(f"obligation {key!r}: expected name/arity: succeed|fail")
        ok = behavior == "succeed"
        obligations.register(name, arity, lambda args, msg, _ok=ok: _ok)
    return services, obligations


def _default_registry_for(route):
    services = ServiceRegistry()
    for atom in route.services:
        services.register(atom, echo_handler)
    return services


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    policy = _load_policy(args.policy)
    text = emit_clauses(policy)
    if args.emit_clauses:
        Path(args.emit_clauses).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    route = _load(args.route, parse_route)
    policy = _load_policy(args.policy, args.default_deny)
    verdict = verify(route, policy, all_paths=args.all_paths)
    for w in verdict.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "route": route.name,
                    "valid": verdict.valid,
                    "counterexamples": [
                        ce.to_dict() for ce in verdict.counterexamples
                    ],
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(render_verdict(verdict, route.name))
    return 0 if verdict.valid else 1


def cmd_run(args) -> int:
    policy = _load_policy(args.policy, args.default_deny)
    registries = None
    if args.services:
        try:
            manifest = json.loads(_read(args.services))
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.services}: {exc}")
        except ValueError:  # an integer with more digits than ``int`` converts
            raise CliError(f"{args.services}: integer literal too long")
        except RecursionError:
            raise CliError(f"{args.services}: JSON nested too deeply")
        registries = build_registries(manifest)
    # All routes load and find their handlers first, so an input error runs none.
    routes = [_load(path, parse_route) for path in args.routes]
    if registries:
        for route in routes:
            registries[0].check_route(route)
    audit_lines = []
    worst = 0
    env: dict = {}
    for route in routes:
        services, obligations = registries or (
            _default_registry_for(route), ObligationRegistry()
        )
        if args.env_reset:
            env = {}
        outcome = execute(route, policy, services, obligations, env=env)
        audit_lines.extend(ev.to_json() for ev in outcome.audit)
        summary = {
            "route": route.name,
            "status": outcome.status,
            "at_statement": outcome.at_statement,
            "rule": outcome.rule,
            "final_messages": [
                {
                    "id": m.id,
                    "payload": m.payload.decode(errors="replace"),
                    "props": {k: repr(v) for k, v in m.props.items()},
                    "labels": sorted(map(repr, m.labels)),
                }
                for m in outcome.final_messages
            ],
        }
        print(json.dumps(summary, indent=2))
        if outcome.status != "completed":
            worst = 1
    if args.audit:
        Path(args.audit).write_text("\n".join(audit_lines) + "\n", encoding="utf-8")
    return worst


def cmd_bench(args) -> int:
    from .pdp import bench_csv, bench_decide

    rows = bench_decide(args.rules, args.labels, trials=args.trials)
    text = bench_csv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_ints(text: str) -> list:
    return [_positive_int(x) for x in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built once per process.

    Parsing leaves it unchanged, so every call of ``main`` reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="labelflow", description="Data flow control for message routes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a policy to clauses")
    p.add_argument("policy")
    p.add_argument("--emit-clauses", metavar="PATH", help="write clause dump here")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="statically verify a route against a policy")
    p.add_argument("route")
    p.add_argument("policy")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--all-paths", action="store_true")
    p.add_argument("--default-deny", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute routes with stub services")
    p.add_argument("routes", nargs="+", metavar="route")
    p.add_argument("policy")
    p.add_argument("--services", metavar="MANIFEST", help="stub-service JSON manifest")
    p.add_argument("--audit", metavar="PATH", help="write audit records here")
    p.add_argument("--default-deny", action="store_true")
    p.add_argument("--env-reset", action="store_true",
                   help="fresh global variables for every route file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="decision-point scaling benchmark")
    p.add_argument("--rules", type=_positive_ints, default="100,500,1000,5000")
    p.add_argument("--labels", type=_positive_ints, default="10")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except (CliError, RuntimeError_, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
