"""Tests of the benchmark itself: generator, reference, runner and tracer.

Run from the repository root:

    python3 -m pytest -q flowbench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GENERATORS = {
    "enforce": gen.enforce_inputs,
    "check_deep_routes": gen.check_deep_inputs,
    "check_large_policy": gen.check_large_inputs,
}


def _texts(inputs) -> list:
    if isinstance(inputs, gen.EnforceInputs):
        return [inputs.policy.text(), *(r.text() for r in inputs.routes), repr(inputs.messages)]
    return [t for route, policy in inputs.cases for t in (route.text(), policy.text())]


def _main(argv, scale):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv, scale=scale)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _args(workload, trace=0, seed=3):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace)]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = GENERATORS[name]
    assert _texts(make(5, 0.2)) == _texts(make(5, 0.2))
    assert _texts(make(5, 0.2)) != _texts(make(6, 0.2))


def test_enforce_reference_agrees_with_runtime(tmp_path):
    checked = 0
    for seed in range(8):
        w = workloads.make("enforce", seed, tmp_path, scale=0.1)
        w.setup()
        for i in range(len(w.messages)):
            assert w.check(i, w.run(i)), (seed, i)
            checked += 1
    assert checked >= 300


@pytest.mark.parametrize(
    "name, scale, seeds",
    [("check_deep_routes", 0.5, range(12)), ("check_large_policy", 0.05, range(25))],
)
def test_check_reference_agrees_with_cli(tmp_path, name, scale, seeds):
    verdicts = set()
    for seed in seeds:
        work = tmp_path / str(seed)
        work.mkdir()
        w = workloads.make(name, seed, work, scale=scale)
        for i, (_, expected) in enumerate(w.cases):
            assert w.check(i, w.run(i)), (seed, i)
            verdicts.add(expected[0])
    assert verdicts == {0, 1}


def test_enforce_takes_both_branches_of_every_choice():
    inputs = gen.enforce_inputs(1)
    ref = reference.PolicyRef(inputs.policy)
    taken = {r: set() for r in range(len(inputs.routes))}
    statuses = []
    for r, props in inputs.messages:
        statuses.append(reference.enforce_outcome(inputs.routes[r], ref, props, taken[r])[0])
    for r, route in enumerate(inputs.routes):
        for n, st in route.stmts.items():
            if st[0] == "choice":
                assert {(n, True), (n, False)} <= taken[r], (r, n)
    blocked = sum(s != "completed" for s in statuses) / len(statuses)
    assert 0.1 < blocked < 0.3


def test_parse_check_output_reads_the_golden_text():
    text = (ROOT / "tests" / "fixtures" / "expected_counterexample.txt").read_text()
    assert workloads.parse_check_output(text) == {("dontPublishRaw", "mqueue")}
    assert workloads.parse_check_output("Route r is valid.\n") == frozenset()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_runs_tiny_and_correct(name):
    code, result = _main(_args(name), scale=0.1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_calibration(tmp_path, monkeypatch):
    monkeypatch.setattr(calibrate, "calibration_s", lambda: 2 * calibrate.REFERENCE_S)
    w = workloads.make("enforce", 3, tmp_path, scale=0.1)
    scaled, raw, failed, cals = run.measure(w, 0.3)
    assert failed == 0 and len(cals) >= 3 * run.SETUP_REPEATS
    assert scaled.latencies == pytest.approx([x / 2 for x in raw.latencies])
    assert scaled.setups == pytest.approx([x / 2 for x in raw.setups])
    assert scaled.values()["ops_per_s"] == pytest.approx(2 * raw.values()["ops_per_s"])


def test_calibration_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert calibrate.calibration_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.calibration_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _corrupt_expectation(w):
    status, at, rule, labels = w.expected[0]
    w.expected[0] = (status, at, rule, ("not_a_label",))


def _raise_on_some_ops(w):
    run_op = w.run
    w.run = lambda i: run_op(i) if i % 7 else 1 / 0


@pytest.mark.parametrize("corrupt", [_corrupt_expectation, _raise_on_some_ops])
def test_wrong_or_raising_ops_fail_the_run(monkeypatch, corrupt):
    make = workloads.make

    def corrupted(*args, **kwargs):
        w = make(*args, **kwargs)
        corrupt(w)
        return w

    monkeypatch.setattr(workloads, "make", corrupted)
    code, result = _main(_args("enforce"), scale=0.1)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric_repeatably(name):
    code, first = _main(_args(name, trace=1), scale=0.1)
    assert code == 0 and first["correct"]
    assert list(first["metrics"]) == list(tracing.LAYER_METRICS)
    _, second = _main(_args(name, trace=1), scale=0.1)
    for key, unit in tracing.LAYER_METRICS.items():
        if unit == "count":
            assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tracer_restores_every_wrapped_function(tmp_path):
    import labelflow.pdp
    import labelflow.terms

    before = (labelflow.pdp.rule_matches, labelflow.terms.Tokenizer.next)
    w = workloads.make("check_large_policy", 1, tmp_path, scale=0.05)
    tracer = tracing.Tracer()
    tracer.install(w)
    try:
        assert labelflow.pdp.rule_matches is not before[0]
        w.run(0)
    finally:
        tracer.restore()
    assert labelflow.pdp.rule_matches is before[0]
    assert labelflow.terms.Tokenizer.next is before[1]
    assert tracer.metrics()["terms.tokens"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", *_args("enforce")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
