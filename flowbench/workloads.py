"""The three workloads: inputs, expected outputs, set-up and one op each.

A workload is built in three phases with different clocks:

* ``__init__`` generates the inputs from the seed and computes every
  expected output with the reference model. Neither is timed.
* ``setup`` is the program-side set-up before the first timed op; the
  runner times it as ``setup_s``.
* ``run(i)`` is op ``i`` (timed); ``check(i, result)`` compares it with the
  reference outside the op's latency.

Every op goes through labelflow's public functions, looked up on their
modules at call time so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from pathlib import Path

import labelflow.cli
import labelflow.policy
import labelflow.policy_compiler
import labelflow.routes
import labelflow.runtime
from labelflow.terms import Atom, Int

import gen
import reference

lf = labelflow


def _echo(payload, props):
    return payload, props


class _Workload:
    trace_ops = 0  # ops in the traced run's fixed op list

    def __init__(self):
        self.handler = _echo
        self.setup_checks = 0
        self.setup_failures = 0
        self.raised = 0

    def attempt(self, i: int):
        """Op ``i``'s result, or None when it raised (a failed op)."""
        try:
            return self.run(i)
        except Exception:  # noqa: BLE001 - the run goes on and counts it
            if not self.raised:
                traceback.print_exc()
            self.raised += 1
            return None

    def ok(self, i: int, result) -> bool:
        return result is not None and self.check(i, result)

    def _setup_check(self, i: int) -> None:
        self.setup_checks += 1
        if not self.ok(i, self.attempt(i)):
            self.setup_failures += 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.input_texts():
            h.update(part.encode())
            h.update(b"\0")
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# enforce: runtime.execute per message.
# ---------------------------------------------------------------------------


def _props_terms(props: dict) -> dict:
    return {k: Int(v) if isinstance(v, int) else Atom(v) for k, v in props.items()}


class Enforce(_Workload):
    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__()
        self.inputs = gen.enforce_inputs(seed, scale)
        self.policy_text = self.inputs.policy.text()
        self.route_texts = [r.text() for r in self.inputs.routes]
        self.messages = [(r, _props_terms(p)) for r, p in self.inputs.messages]
        ref = reference.PolicyRef(self.inputs.policy)
        self.expected = []
        for r, props in self.inputs.messages:
            status, at, rule, labels = reference.enforce_outcome(
                self.inputs.routes[r], ref, props
            )
            texts = tuple(sorted(map(gen.label_text, labels))) if labels else None
            self.expected.append((status, at, rule, texts))
        n_routes = len(self.inputs.routes)
        self.trace_ops = min(len(self.messages), 10 * n_routes)
        self.warmup = [
            next(i for i, (r, _) in enumerate(self.messages) if r == route)
            for route in range(n_routes)
        ]

    def input_texts(self):
        yield self.policy_text
        yield from self.route_texts
        yield repr(self.inputs.messages)

    def setup(self) -> None:
        ast = lf.policy.parse_policy(self.policy_text)
        self.policy = lf.policy_compiler.compile_policy(ast)
        self.routes = [lf.routes.parse_route(t) for t in self.route_texts]
        self.services = lf.runtime.ServiceRegistry()
        for route in self.routes:
            for atom in route.service_atoms():
                self.services.register(atom, self._handle)
        self.obligations = lf.runtime.ObligationRegistry()
        for functor, arity in (("log", 2), ("notify", 1), ("escalate", 1)):
            ok = gen.OBLIGATION_OK[functor]
            self.obligations.register(functor, arity, lambda args, msg, ok=ok: ok)
        for i in self.warmup:
            self._setup_check(i)

    def _handle(self, payload, props):
        return self.handler(payload, props)

    def run(self, i: int):
        r, props = self.messages[i % len(self.messages)]
        return lf.runtime.execute(
            self.routes[r], self.policy, self.services, self.obligations, props=props
        )

    def check(self, i: int, outcome) -> bool:
        labels = None
        if outcome.status == "completed":
            labels = tuple(sorted(repr(l) for l in outcome.final_messages[0].labels))
        got = (outcome.status, outcome.at_statement, outcome.rule, labels)
        return got == self.expected[i % len(self.expected)]


# ---------------------------------------------------------------------------
# check_*: `labelflow check <route> <policy>` through the CLI, in process.
# ---------------------------------------------------------------------------


def parse_check_output(text: str) -> frozenset:
    """(rule, violating node) per rendered counterexample."""
    pairs = set()
    rule = node = None
    for line in text.splitlines():
        if line.startswith("This is forbidden by rule "):
            rule = line[len("This is forbidden by rule "):].strip()
        elif line == "|-- fail!":
            pairs.add((rule, node))
        elif line.startswith("|-- "):
            node = line.split()[1]
    return frozenset(pairs)


class Check(_Workload):
    def __init__(self, inputs: gen.CheckInputs, workdir: Path):
        super().__init__()
        self.inputs = inputs
        self.cases = []  # (argv, expected)
        self.texts = []
        policy_files: dict = {}
        refs: dict = {}
        for j, (route, policy) in enumerate(inputs.cases):
            key = id(policy)
            if key not in policy_files:
                text = policy.text()
                path = workdir / f"policy{len(policy_files)}.lucon"
                path.write_text(text, encoding="utf-8")
                policy_files[key] = str(path)
                refs[key] = reference.PolicyRef(policy)
                self.texts.append(text)
            route_text = route.text()
            route_path = workdir / f"route{j}.route"
            route_path.write_text(route_text, encoding="utf-8")
            self.texts.append(route_text)
            argv = ["check", str(route_path), policy_files[key]]
            self.cases.append((argv, reference.expected_check(route, refs[key])))
        self.trace_ops = len(self.cases)

    def input_texts(self):
        return self.texts

    def setup(self) -> None:
        for i in range(len(self.cases)):
            self._setup_check(i)

    def run(self, i: int):
        argv, _ = self.cases[i % len(self.cases)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lf.cli.main(argv)
        return code, out.getvalue()

    def check(self, i: int, result) -> bool:
        code, text = result
        return (code, parse_check_output(text)) == self.cases[i % len(self.cases)][1]


def make(name: str, seed: int, workdir: Path, scale: float = 1.0) -> _Workload:
    """Workload ``name`` with inputs from ``seed``; check inputs go in ``workdir``."""
    if name == "enforce":
        return Enforce(seed, scale)
    generate = {
        "check_deep_routes": gen.check_deep_inputs,
        "check_large_policy": gen.check_large_inputs,
    }[name]
    return Check(generate(seed, scale), workdir)


def fixture_golden_ok(root: Path) -> bool:
    """`labelflow check` on the sensor fixture prints the golden text."""
    fixtures = root / "tests" / "fixtures"
    expected = (fixtures / "expected_counterexample.txt").read_text(encoding="utf-8")
    argv = [
        "check",
        str(fixtures / "sensor.route"),
        str(fixtures / "dont_publish_raw.lucon"),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lf.cli.main(argv)
    return code == 1 and out.getvalue() == expected
