"""Benchmark entry point: closed-loop solves of one workload, one process per solve.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client solves the workload again and again, each solve in a fresh
``solve.py`` process with BLAS pinned to one thread, and starts the next
solve only when the previous one has ended and the next is expected to end
within ``--seconds``. Every solve's error norms are checked against the
golden values. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over the untraced solves) with ``--trace 0``, the per-layer
metrics of one traced solve with ``--trace 1``. The line before it holds the
run's context. Exits 2 without a result when the checkout has no ``src/epe``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_golden, norm_mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every solve runs with these set, so BLAS uses one thread.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A run ends, with every child stopped, within this many seconds.
HARD_LIMIT_S = 170.0

#: Iterations of the pure-Python probe that times each CPU before a solve.
PROBE_ITERATIONS = 100_000

END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "loop_s": "s",
    "step_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit, as ``--trace 1`` reports them.
LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.cells": "count",
    "dofs.E_free": "count",
    "dofs.U_free": "count",
    "dofs.P_free": "count",
    "dofs.H": "count",
    "fem.assembly.operators_s": "s",
    "fem.assembly.matrix_calls": "count",
    "linalg.factor_s": "s",
    "linalg.lu_count": "count",
    "linalg.lu_fill": "count",
    "schemes.initial_s": "s",
    "fem.assembly.load_s": "s",
    "fem.assembly.load_calls": "count",
    "mms.source_s": "s",
    "mms.source_points": "count",
    "linalg.cg_solves": "count",
    "linalg.cg_iters": "count",
    "linalg.cg_s": "s",
    "linalg.cg_residual_max": "ratio",
    "linalg.saddle_solves": "count",
    "linalg.saddle_s": "s",
    "linalg.saddle_residual_max": "ratio",
    "linalg.lu_solves": "count",
    "linalg.lu_solve_s": "s",
    "linalg.lu_residual_max": "ratio",
    "schemes.step_self_s": "s",
    "mms.errors_s": "s",
    "linalg.failures": "count",
    "trace.overhead_s": "s",
}


def tail_groups(steps: int) -> int:
    """Groups whose last cut is the highest step-time quantile with 10 of a solve's steps above it.

    That cut is p75 at 40 steps and p97.5 at 400; below 20 steps it is the median.
    """
    return max(2, steps // 10)


def quietest_cpu(cpus: list[int]) -> int:
    """The CPU on which a few milliseconds of pure-Python work run fastest.

    Host neighbours slow one vCPU or the other by up to 1.4x for seconds at
    a time, independently of each other; a solve pinned to the quieter one
    sees less of that noise.
    """
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        times[cpu] = time.perf_counter() - start
    return min(times, key=times.get)


def run_solve(workload: str, trace: bool, timeout: float) -> dict:
    """One solve in a fresh process; returns its JSON report, with ``error`` set on failure."""
    cmd = [sys.executable, str(HERE / "solve.py"), "--workload", workload]
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **BLAS_ENV},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"solve exceeded {timeout:.0f} s", "wall_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"error": f"exit {proc.returncode}, no report: {proc.stderr.strip()[-500:]}"}
    if proc.returncode != 0 and "error" not in report:
        report["error"] = f"exit {proc.returncode}"
    report["wall_s"] = time.perf_counter() - start
    return report


def check(report: dict, golden: dict) -> str | None:
    """Why a solve failed (raised, or a norm off its golden value), or None."""
    if "error" in report:
        return report["error"]
    bad = norm_mismatches(report["norms"], golden)
    return f"norms off golden: {', '.join(bad)}" if bad else None


def end_to_end(reports: list[dict], steps: int) -> dict[str, float]:
    """Medians over the solves; each solve gives its own median and tail step gap."""
    per_solve = {name: [r[name] for r in reports] for name in ("total_s", "setup_s", "loop_s", "peak_rss_mb")}
    per_solve["step_p50_s"] = [statistics.median(r["step_s"]) for r in reports]
    per_solve["step_tail_s"] = [
        statistics.quantiles(r["step_s"], n=tail_groups(steps), method="inclusive")[-1] for r in reports
    ]
    return {name: statistics.median(values) for name, values in per_solve.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are deterministic")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epe" / "__init__.py").is_file():
        print(f"perfbench: no epe package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = load_golden()[workload.name]

    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    deadline = min(start + args.seconds, hard_deadline)
    traced = None
    reports, failures = [], []

    cpus = sorted(os.sched_getaffinity(0))
    chosen = []

    def attempt(trace: bool) -> dict | None:
        # The solve process inherits this process's CPU affinity.
        chosen.append(quietest_cpu(cpus))
        os.sched_setaffinity(0, {chosen[-1]})
        report = run_solve(workload.name, trace, hard_deadline - time.perf_counter())
        why = check(report, golden)
        if why is not None:
            failures.append(why)
            print(f"perfbench: {workload.name} solve failed: {why}", file=sys.stderr)
            return None
        return report

    if args.trace:
        traced = attempt(trace=True)
    while True:
        report = attempt(trace=False)
        if report is None:
            break
        reports.append(report)
        if time.perf_counter() + report["wall_s"] > deadline:
            break

    attempted = len(reports) + len(failures) + (1 if traced is not None else 0)
    metrics, step_p50_s = {}, None
    if args.trace and traced is not None and reports:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["total_s"] - statistics.median(r["total_s"] for r in reports)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    elif not args.trace and reports:
        values = end_to_end(reports, workload.steps)
        step_p50_s = {"value": values["step_p50_s"], "unit": "s"}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    first = traced or (reports[0] if reports else {})
    steps = workload.steps
    context = {
        "workload": workload.name,
        "scheme": workload.scheme,
        "n": workload.n,
        "tau": workload.tau,
        "T": workload.T,
        "steps": steps,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solves": len(reports),
        "total_s_per_solve": [r["total_s"] for r in reports],
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "cpu_per_solve": chosen,
        "blas_env": BLAS_ENV,
        "versions": first.get("versions"),
        "sizes": first.get("sizes"),
        "step_tail_quantile": 1.0 - 1.0 / tail_groups(steps),
        "step_tail_samples": steps,
        "step_p50_s": step_p50_s,
        "absent": first.get("absent", []),
        "failures": failures,
        "baseline": json.loads((HERE / "baseline.json").read_text()).get(workload.name),
    }
    print(json.dumps({"context": context}))
    ok = bool(metrics) and not failures
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
