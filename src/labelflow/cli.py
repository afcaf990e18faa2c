"""Command-line front end.

Subcommands:

* ``compile <policy.lucon>``  — dump the policy's clause representation
* ``check <route> <policy>``  — static verification; exit 1 on violations
* ``run <route...> <policy>`` — execute routes with stub service handlers
* ``bench``                   — decision-point scaling benchmark (CSV)

Exit codes: 0 success/valid/completed, 1 policy violation or a dropped or
errored run, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .engine import SolveLimits
from .policy import ValidationError, parse_policy
from .policy_compiler import compile_policy, emit_clauses
from .routes import RouteError, parse_route
from .runtime import (
    ObligationRegistry,
    ServiceRegistry,
    UnresolvedService,
    echo_handler,
    execute,
)
from .terms import Int, TermSyntaxError, parse_term
from .verifier import render_verdict, verify


class CliError(Exception):
    pass


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _load_policy(path: str):
    try:
        return compile_policy(parse_policy(_read(path)))
    except (TermSyntaxError, ValidationError) as exc:
        raise CliError(f"{path}: {exc}")


def _load_route(path: str):
    try:
        return parse_route(_read(path))
    except (TermSyntaxError, RouteError) as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Stub-service manifests for `run`.
# ---------------------------------------------------------------------------

_STUB_KINDS = ("echo", "const", "sink", "fail", "source")


def build_registries(manifest: dict):
    """Registries from a declarative stub manifest.

    ``services`` maps service atoms to stubs: ``echo`` (identity),
    ``const`` (fixed payload), ``sink`` (identity), ``fail`` (raises),
    ``source`` (seeds message props). ``obligations`` maps ``name/arity``
    to ``succeed`` or ``fail``. Endpoint URLs come only from a route's
    ``services`` block, so a ``url`` key is an input error.
    """
    services = ServiceRegistry()
    for name, spec in manifest.get("services", {}).items():
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
            const_payload = spec.get("payload", "").encode()

            def handler(payload, props, _p=const_payload):
                return _p, props

        elif kind == "source":
            seeded = {
                k: parse_term(v) if isinstance(v, str) else Int(int(v))
                for k, v in spec.get("props", {}).items()
            }

            def handler(payload, props, _seed=seeded):
                props.update(_seed)
                return payload, props

        else:  # echo / sink
            handler = echo_handler
        services.register(name, handler)
    obligations = ObligationRegistry()
    obligations.register("log", 2, lambda args, msg: True)
    for key, behavior in manifest.get("obligations", {}).items():
        name, _, arity = key.partition("/")
        ok = behavior == "succeed"
        obligations.register(name, int(arity), lambda args, msg, _ok=ok: _ok)
    return services, obligations


def _default_registry_for(route):
    services = ServiceRegistry()
    for atom in route.service_atoms():
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
    route = _load_route(args.route)
    policy = _load_policy(args.policy)
    default_effect = "drop" if args.default_deny else "allow"
    verdict = verify(
        route, policy, all_paths=args.all_paths, default_effect=default_effect
    )
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
    policy = _load_policy(args.policy)
    manifest = json.loads(_read(args.services)) if args.services else None
    audit_lines = []
    worst = 0
    env: dict = {}
    for route_path in args.routes:
        route = _load_route(route_path)
        if manifest is not None:
            services, obligations = build_registries(manifest)
        else:
            services, obligations = _default_registry_for(route), ObligationRegistry()
        if args.env_reset:
            env = {}
        outcome = execute(
            route,
            policy,
            services,
            obligations,
            env=env,
            default_effect="drop" if args.default_deny else "allow",
            limits=SolveLimits(args.depth_limit),
        )
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

    random.seed(args.seed)
    sizes = [int(x) for x in args.rules.split(",")]
    labels = [int(x) for x in args.labels.split(",")]
    rows = bench_decide(sizes, labels, trials=args.trials)
    text = bench_csv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--depth-limit", type=int, default=10000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="decision-point scaling benchmark")
    p.add_argument("--rules", default="100,500,1000,5000")
    p.add_argument("--labels", default="10")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, UnresolvedService) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
