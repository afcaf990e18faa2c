#!/usr/bin/env python3
"""labelflow's benchmark: one seeded workload per invocation.

    python3 flowbench/run.py --workload enforce --seed 1 --seconds 30 --trace 0

Run from the root of a labelflow checkout; the program is imported from
``src/``. With ``--trace 0`` the workload runs in a closed loop (one client,
each op starting when the previous one returns) for ``--seconds`` and the
end-to-end metrics are reported, with every time scaled to a reference host
speed (see ``calibrate.py``). With ``--trace 1`` a fixed op list runs
once untraced and once under the per-layer tracer, and the per-layer
metrics are reported. Every output is checked against the reference model
and the fixture's golden counterexample; the last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 0 only when everything matched.

See ``flowbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
SETUP_REPEATS = 5
WINDOW_S = 0.1  # ops between two calibrations
TRACE_PASSES = 3
WORKLOADS = ("enforce", "check_deep_routes", "check_large_policy")

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad input)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="labelflow benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import labelflow from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "labelflow" / "__init__.py").is_file():
        raise BenchError(f"no labelflow sources under {src}")
    sys.path.insert(0, str(src))
    import labelflow

    if Path(labelflow.__file__).resolve().parent != src / "labelflow":
        raise BenchError(f"labelflow imported from {labelflow.__file__}, not {src}")
    return labelflow


def provenance(labelflow, workload) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "inputs_sha256": workload.digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "kernel": getattr(labelflow, "KERNEL_IMPLEMENTATION", "pure-python"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


class Timing:
    """Set-up times, op latencies and loop time of a run, in seconds.

    ``scaled`` holds them in reference seconds (see ``calibrate.py``),
    ``raw`` in wall seconds as measured.
    """

    def __init__(self):
        self.setups, self.latencies, self.loop_s = [], [], 0.0

    def add_setup(self, wall: float, scale: float) -> None:
        self.setups.append(wall * scale)

    def add_window(self, latencies, wall: float, scale: float) -> None:
        self.latencies.extend(x * scale for x in latencies)
        self.loop_s += wall * scale

    def values(self) -> dict:
        lat = sorted(self.latencies)
        return {
            "ops_per_s": len(lat) / self.loop_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p95_ms": nearest_rank(lat, 95) * 1e3,
            "setup_s": statistics.median(self.setups),
        }


def measure(workload, seconds: float):
    """(scaled timing, raw timing, failed ops, calibration times) of a run.

    The run is ``SETUP_REPEATS`` segments, each a timed set-up followed by
    its share of the closed loop, so the set-up samples are spread over the
    run like the ops are. The calibration loop runs before every set-up and
    after every window of ops (at least ``WINDOW_S`` long); each set-up or
    window is scaled by the mean of the two calibrations around it. ops/s
    is all ops over the summed time of the windows.
    """
    scaled, raw = Timing(), Timing()
    failed, i, cals = 0, 0, []

    def scale(before: float, after: float) -> float:
        return calibrate.REFERENCE_S / ((before + after) / 2)

    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = calibrate.calibration_s()
        t0 = perf_counter()
        workload.setup()
        wall = perf_counter() - t0
        after = calibrate.calibration_s()
        cals += [before, after]
        scaled.add_setup(wall, scale(before, after))
        raw.add_setup(wall, 1.0)
        gc.collect()
        before = calibrate.calibration_s()
        deadline = perf_counter() + seconds / SETUP_REPEATS
        done = False
        while not done:
            window, start = [], perf_counter()
            window_end = start + WINDOW_S
            while True:
                t0 = perf_counter()
                result = workload.attempt(i)
                t1 = perf_counter()
                window.append(t1 - t0)
                if not workload.ok(i, result):
                    failed += 1
                i += 1
                if t1 >= window_end:
                    break
            wall = perf_counter() - start
            done = perf_counter() >= deadline
            after = calibrate.calibration_s()
            cals.append(after)
            scaled.add_window(window, wall, scale(before, after))
            raw.add_window(window, wall, 1.0)
            before = after
    return scaled, raw, failed, cals


def traced_run(workload, out_dir: Path, label: str):
    """(per-layer metrics, attempted, failed) over the fixed trace op list.

    The set-ups and ``TRACE_PASSES`` passes over the op list run traced; each
    traced pass follows an untraced pass over the same list, and the
    overhead ratio is the median over these pairs.
    """
    from tracing import Tracer

    tracer = Tracer()

    def one_pass(traced: bool):
        failed = 0
        gc.collect()
        if traced:
            tracer.install(workload)
        t0 = perf_counter()
        try:
            for i in range(workload.trace_ops):
                if traced:
                    tracer.op = i
                if not workload.ok(i, workload.attempt(i)):
                    failed += 1
        finally:
            elapsed = perf_counter() - t0
            tracer.restore()
        return elapsed, failed

    tracer.install(workload)
    try:
        for _ in range(SETUP_REPEATS):
            workload.setup()
    finally:
        tracer.restore()
    ratios, failed = [], 0
    for _ in range(TRACE_PASSES):
        untraced_s, failed_plain = one_pass(False)
        traced_s, failed_traced = one_pass(True)
        # traced ops/s over untraced ops/s on the same op list
        ratios.append(untraced_s / traced_s)
        failed += failed_plain + failed_traced
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{label}.jsonl")
    return metrics, 2 * TRACE_PASSES * workload.trace_ops, failed


def run(args, scale: float = 1.0) -> tuple[dict, int]:
    """Run one workload; returns (result object, exit code)."""
    labelflow = import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import LAYER_METRICS

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, work, scale)
        golden_ok = workloads.fixture_golden_ok(ROOT)
        label = f"{args.workload}-seed{args.seed}"
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
        print("# provenance " + json.dumps(provenance(labelflow, w), sort_keys=True))
        if args.trace:
            layer, attempted, failed = traced_run(w, HERE / "_out", label)
            metrics = {
                k: {"value": layer[k], "unit": unit} for k, unit in LAYER_METRICS.items()
            }
        else:
            scaled, raw, failed, cals = measure(w, args.seconds)
            attempted = len(scaled.latencies)
            values = scaled.values()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
            lat = sorted(scaled.latencies)
            beyond = sum(1 for x in lat if x > nearest_rank(lat, 95))
            print(f"# latency samples {attempted}, {beyond} beyond p95")
            print(
                f"# calibration median {statistics.median(cals) * 1e3:.4g} ms"
                f" (reference {calibrate.REFERENCE_S * 1e3:.4g} ms) over {len(cals)} passes"
            )
            print("# unscaled wall-clock " + json.dumps(raw.values()))
        # Set-up ops and the golden fixture are checked too.
        attempted += w.setup_checks + 1
        failed += w.setup_failures + (0 if golden_ok else 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':30s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"# golden fixture counterexample: {'match' if golden_ok else 'MISMATCH'}")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, 0 if correct else 1


def main(argv=None, scale: float = 1.0) -> int:
    args = parse_args(argv)
    try:
        result, code = run(args, scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and frozenset iteration order decides how soon some loops stop,
        # so per-layer counts repeat exactly only under one fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
