"""Convergence studies, scheme benchmarking, and report emission.

Spatial studies measure errors against the exact manufactured solution at
the final time; temporal studies measure against a fine-step discrete
reference on the same mesh (the spatial error floor would otherwise mask
the O(tau) splitting error). Benchmarks run both schemes serially on a
shared mesh with identical tolerances and record per-phase wall times,
the medians over ``BENCH_SOLVES`` solves.

Reports are data: each is emitted as CSV (fixed schema) and as an aligned
markdown table of the same rows, and plotting is left to the reader's tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from epe.core import SCHEMES, RunConfig, grid_for_step
from epe.mesh import build_unit_cube_mesh
from epe.mms import ErrorNorms, error_norms, example61
from epe.schemes import Discretization, PhaseTimings, Sources, run

ERROR_FIELDS = ("E_L2", "H_L2", "u_L2", "u_H1", "p_L2")

#: Steps of the default temporal study, and its reference step.
DEFAULT_TAUS = (1 / 40, 1 / 80, 1 / 160)
DEFAULT_TAU_REF = 1 / 1280

TIMING_FIELDS = ("assemble", "factorize", "initial", "loop", "total")

#: Solves per benchmark row; the row reports the median of each phase.
BENCH_SOLVES = 3

CSV_HEADER = (
    "scheme,n,h,tau,"
    "err_E_L2,err_H_L2,err_u_L2,err_u_H1,err_p_L2,"
    "ord_E_L2,ord_H_L2,ord_u_L2,ord_u_H1,ord_p_L2,"
    "t_assemble_s,t_factor_s,t_initial_s,t_loop_s,t_total_s"
)


@dataclass
class StudyRow:
    scheme: str
    n: int
    h: float
    tau: float
    errors: dict
    orders: dict          # empty on the first row of a scheme group
    timings: dict         # assemble / factorize / initial / loop / total seconds


@dataclass
class StudyReport:
    kind: str             # spatial | temporal | benchmark
    rows: list
    x_field: str          # 'h' or 'tau': abscissa of the orders

    def scheme_rows(self, scheme: str) -> list:
        return [r for r in self.rows if r.scheme == scheme]


def convergence_order(e_prev: float, e_curr: float, x_prev: float, x_curr: float) -> float:
    """Two-point order log(e_prev/e_curr) / log(x_prev/x_curr); nan when an error is zero."""
    if e_prev == 0.0 or e_curr == 0.0:
        return math.nan
    return math.log(e_prev / e_curr) / math.log(x_prev / x_curr)


def _attach_orders(rows, x_field: str) -> None:
    by_scheme: dict = {}
    for row in rows:
        prev = by_scheme.get(row.scheme)
        if prev is not None:
            row.orders = {
                f: convergence_order(
                    prev.errors[f], row.errors[f], getattr(prev, x_field), getattr(row, x_field)
                )
                for f in ERROR_FIELDS
            }
        by_scheme[row.scheme] = row


def distinct(values: list, what: str) -> list:
    """``values``, refused with ValueError when one repeats: two rows at one h or tau have no order."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated {what} {repeated}: give each value once")
    return values


def _row(config: RunConfig, errors: ErrorNorms, timings: PhaseTimings) -> StudyRow:
    """The report row of one run of ``config``, with that run's phase timings."""
    return StudyRow(
        scheme=config.scheme,
        n=config.mesh_n,
        h=1.0 / config.mesh_n,
        tau=config.grid.tau,
        errors=errors.as_dict(),
        orders={},
        timings={k: getattr(timings, k) for k in TIMING_FIELDS},
    )


def exact_row(config: RunConfig, mesh, observers=()) -> StudyRow:
    """Run example 6.1 with ``config`` on ``mesh``, calling ``observers`` as ``run`` does; errors
    against the exact solution at T."""
    exact = example61(config.params)
    result = run(config, Sources(j=exact.j, f=exact.f, g=exact.g), exact, observers=observers, mesh=mesh)
    errs = error_norms(result.state, exact, config.grid.T, mesh, config.quad_error)
    return _row(config, errs, result.timings)


def spatial_convergence(n_values, config: RunConfig) -> StudyReport:
    """One run per mesh size at the fixed time grid of ``config``.

    Errors are measured against the exact solution at t = T; the reported
    mesh parameter h is 1/n (the customary labeling for this mesh family;
    the actual cell diameter is sqrt(3)/n, which changes no order). A
    repeated mesh size is refused before any run.
    """
    rows = []
    for n in distinct([int(n) for n in n_values], "mesh size"):
        cfg = replace(config, mesh_n=n)
        rows.append(exact_row(cfg, build_unit_cube_mesh(n)))
    _attach_orders(rows, "h")
    return StudyReport(kind="spatial", rows=rows, x_field="h")


def _zero_fields(t, pts):
    """The (E, H, u, grad u, p) values of the zero solution, shaped as ``ExactSolution.fields``."""
    return tuple(np.zeros((len(pts), *shape)) for shape in ((3,), (3,), (3,), (3, 3), ()))


def temporal_convergence(mesh_n: int, tau_values, config: RunConfig, tau_ref: float) -> StudyReport:
    """Step-size study against a fine-step reference on the same mesh.

    The reference step must satisfy tau_ref <= min(tau)/8 so the reference
    is effectively converged in time relative to the coarser runs, and every
    step must divide T into whole steps, as ``epe run`` requires; a repeated
    step is refused. Field differences are measured by ``error_norms``, as
    the error of the difference state against zero fields. Each row carries
    the phase timings of its own run; the runs share one discretization, so
    their ``assemble`` phase is close to 0 s.
    """
    tau_values = distinct(sorted(float(t) for t in tau_values), "step tau")
    if not tau_values or tau_values[0] <= 0.0:
        raise ValueError(f"every step tau must be positive, got {tau_values!r}")
    if not tau_ref > 0.0:
        raise ValueError(f"reference step tau_ref must be positive, got {tau_ref!r}")
    if tau_ref > min(tau_values) / 8.0:
        raise ValueError(
            f"reference step {tau_ref!r} must be at most min(tau)/8 = {min(tau_values) / 8.0!r}"
        )
    # every step is checked before the reference run, so a refused one costs no solve
    configs = {
        tau: replace(config, mesh_n=mesh_n, grid=grid_for_step(config.grid.T, tau))
        for tau in (tau_ref, *tau_values)
    }
    exact = example61(config.params)
    sources = Sources(j=exact.j, f=exact.f, g=exact.g)
    disc = Discretization(build_unit_cube_mesh(mesh_n), config.params)
    ref = run(configs[tau_ref], sources, exact, disc=disc).state
    zero = replace(exact, fields=_zero_fields)

    rows = []
    for tau in sorted(tau_values, reverse=True):
        cfg = configs[tau]
        result = run(cfg, sources, exact, disc=disc)
        state = result.state
        diff = replace(state, **{f: getattr(state, f) - getattr(ref, f) for f in "EHup"})
        errs = error_norms(diff, zero, cfg.grid.T, disc.mesh, cfg.quad_error)
        rows.append(_row(cfg, errs, result.timings))
    _attach_orders(rows, "tau")
    return StudyReport(kind="temporal", rows=rows, x_field="tau")


def benchmark(n_values, config: RunConfig) -> StudyReport:
    """Serial timing comparison of the two schemes on shared meshes.

    Rows run strictly serially (timing integrity); both schemes of one mesh
    share the mesh object, and their configurations differ in the scheme
    alone (same sources, quadrature degrees and tolerances). Each row is
    solved ``BENCH_SOLVES`` times, the two schemes taking turns, and reports
    the median of every phase, with their sum as its total. The solves are
    deterministic, so the error norms are those of any one of them. A
    repeated mesh size is refused before any solve.
    """
    rows = []
    for n in distinct([int(n) for n in n_values], "mesh size"):
        mesh = build_unit_cube_mesh(n)
        configs = [replace(config, mesh_n=n, scheme=s) for s in SCHEMES]
        solves = [[exact_row(cfg, mesh) for cfg in configs] for _ in range(BENCH_SOLVES)]
        for runs in zip(*solves):
            phases = {k: float(np.median([r.timings[k] for r in runs])) for k in TIMING_FIELDS[:-1]}
            rows.append(replace(runs[0], timings={**phases, "total": sum(phases.values())}))
    rows.sort(key=lambda r: (r.scheme, r.n))
    return StudyReport(kind="benchmark", rows=rows, x_field="h")


def speedups(report: StudyReport) -> dict:
    """Benchmark ratio monolithic/splitting total time per mesh size."""
    split = {r.n: r.timings["total"] for r in report.scheme_rows("splitting")}
    mono = {r.n: r.timings["total"] for r in report.scheme_rows("monolithic")}
    return {n: mono[n] / split[n] for n in sorted(split) if n in mono and split[n] > 0}


# Report emission --------------------------------------------------------------


def report_csv(report: StudyReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        cells = [r.scheme, str(r.n), f"{r.h:.15e}", f"{r.tau:.15e}"]
        cells += [f"{r.errors[f]:.15e}" for f in ERROR_FIELDS]
        cells += [f"{r.orders[f]:.6f}" if f in r.orders else "" for f in ERROR_FIELDS]
        cells += [f"{r.timings[k]:.15e}" for k in TIMING_FIELDS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_markdown(report: StudyReport) -> str:
    if report.kind == "benchmark":
        return _benchmark_markdown(report)
    head = ["h" if report.x_field == "h" else "tau"]
    for f in ERROR_FIELDS:
        head += [f"err {f}", "order"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for r in report.rows:
        x = getattr(r, report.x_field)
        cells = [f"{x:.6g}"]
        for f in ERROR_FIELDS:
            cells.append(f"{r.errors[f]:.4e}")
            cells.append(f"{r.orders[f]:.4f}" if f in r.orders else "-")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _benchmark_markdown(report: StudyReport) -> str:
    ratios = speedups(report)
    split = {r.n: r for r in report.scheme_rows("splitting")}
    mono = {r.n: r for r in report.scheme_rows("monolithic")}
    lines = [
        "| h | splitting total (s) | monolithic total (s) | speedup |",
        "|---|---|---|---|",
    ]
    for n in sorted(split):
        s, m = split[n], mono.get(n)
        mono_t = f"{m.timings['total']:.3f}" if m else "-"
        ratio = f"{ratios[n]:.2f}" if n in ratios else "-"
        lines.append(f"| 1/{n} | {s.timings['total']:.3f} | {mono_t} | {ratio} |")
    return "\n".join(lines) + "\n"


def emit_report(report: StudyReport, out_dir, stem: str):
    """Write ``stem``.csv and ``stem``.md; return their paths."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out / f"{stem}.csv", "md": out / f"{stem}.md"}
    paths["csv"].write_text(report_csv(report))
    paths["md"].write_text(report_markdown(report))
    return paths
