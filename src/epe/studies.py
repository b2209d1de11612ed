"""Convergence studies, scheme benchmarking, and report emission.

Spatial studies measure errors against the exact manufactured solution at
the final time; temporal studies measure against a fine-step discrete
reference on the same mesh (the spatial error floor would otherwise mask
the O(tau) splitting error). Benchmarks run both schemes serially on a
shared mesh with identical tolerances and record per-phase wall times.

Reports are emitted as CSV (fixed schema), an aligned markdown table, and
a hand-rolled log-log SVG with slope-1 and slope-2 guide lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from epe.core import RunConfig, make_time_grid
from epe.fem.assembly import assemble_matrix
from epe.fem.dofs import make_layouts
from epe.mesh import build_unit_cube_mesh
from epe.mms import ErrorNorms, error_norms, example61
from epe.schemes import Discretization, Sources, run

ERROR_FIELDS = ("E_L2", "H_L2", "u_L2", "u_H1", "p_L2")

#: Steps of the default temporal study, and its reference step.
DEFAULT_TAUS = (1 / 40, 1 / 80, 1 / 160)
DEFAULT_TAU_REF = 1 / 1280

TIMING_FIELDS = ("assemble", "factorize", "initial", "loop", "total")

CSV_HEADER = (
    "scheme,n,h,tau,"
    "err_E_L2,err_H_L2,err_u_L2,err_u_H1,err_p_L2,"
    "ord_E_L2,ord_H_L2,ord_u_L2,ord_u_H1,ord_p_L2,"
    "t_assemble_s,t_factor_s,t_initial_s,t_loop_s,t_total_s"
)


class IoError(OSError):
    """Report files could not be written."""


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
    x_field: str          # 'h' or 'tau': abscissa of orders and plots

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


def _row(config: RunConfig, errors: ErrorNorms, timings: dict) -> StudyRow:
    """The report row of one run of ``config``."""
    return StudyRow(
        scheme=config.scheme,
        n=config.mesh_n,
        h=1.0 / config.mesh_n,
        tau=config.grid.tau,
        errors=errors.as_dict(),
        orders={},
        timings=timings,
    )


def _exact_row(config: RunConfig, mesh) -> StudyRow:
    """Run example 6.1 with ``config`` on ``mesh``; errors against the exact solution at T."""
    exact = example61(config.params)
    result = run(config, Sources(j=exact.j, f=exact.f, g=exact.g), exact, mesh=mesh)
    errs = error_norms(result.state, exact, config.grid.T, mesh, config.quad_error)
    return _row(config, errs, {k: getattr(result.timings, k) for k in TIMING_FIELDS})


def spatial_convergence(n_values, config: RunConfig) -> StudyReport:
    """One run per mesh size at the fixed time grid of ``config``.

    Errors are measured against the exact solution at t = T; the reported
    mesh parameter h is 1/n (the customary labeling for this mesh family;
    the actual cell diameter is sqrt(3)/n, which changes no order).
    """
    rows = []
    for n in n_values:
        cfg = replace(config, mesh_n=int(n))
        rows.append(_exact_row(cfg, build_unit_cube_mesh(cfg.mesh_n)))
    _attach_orders(rows, "h")
    return StudyReport(kind="spatial", rows=rows, x_field="h")


def temporal_convergence(mesh_n: int, tau_values, config: RunConfig, tau_ref: float) -> StudyReport:
    """Step-size study against a fine-step reference on the same mesh.

    The reference step must satisfy tau_ref <= min(tau)/8 so the reference
    is effectively converged in time relative to the coarser runs. Field
    differences are discrete L2 (and H1 for u) norms of coefficient
    differences via the assembled mass/stiffness matrices.
    """
    tau_values = sorted(float(t) for t in tau_values)
    if tau_ref > min(tau_values) / 8.0:
        raise ValueError(
            f"reference step {tau_ref!r} must be at most min(tau)/8 = {min(tau_values) / 8.0!r}"
        )
    exact = example61(config.params)
    sources = Sources(j=exact.j, f=exact.f, g=exact.g)
    mesh = build_unit_cube_mesh(mesh_n)
    layouts = make_layouts(mesh)
    disc = Discretization(mesh, layouts, config.params)
    K_U = assemble_matrix(mesh, layouts.U, layouts.U, "ELASTICITY", (0.0, 1.0))

    T = config.grid.T

    def config_at(tau: float) -> RunConfig:
        return replace(config, mesh_n=mesh_n, grid=make_time_grid(T, round(T / tau)))

    ref = run(config_at(tau_ref), sources, exact, disc=disc).state

    def mass_norm(M, d):
        return float(np.sqrt(max(d @ (M @ d), 0.0)))

    rows = []
    for tau in sorted(tau_values, reverse=True):
        cfg = config_at(tau)
        state = run(cfg, sources, exact, disc=disc).state
        dE, dH = state.E - ref.E, state.H - ref.H
        du, dp = state.u - ref.u, state.p - ref.p
        u_l2 = mass_norm(disc.M_U, du)
        errs = ErrorNorms(
            E_L2=mass_norm(disc.M_E, dE),
            H_L2=mass_norm(disc.M_H, dH),
            u_L2=u_l2,
            u_H1=float(np.sqrt(u_l2**2 + du @ (K_U @ du))),
            p_L2=mass_norm(disc.M_P, dp),
        )
        rows.append(_row(cfg, errs, dict.fromkeys(TIMING_FIELDS, 0.0)))
    _attach_orders(rows, "tau")
    return StudyReport(kind="temporal", rows=rows, x_field="tau")


def benchmark(n_values, config: RunConfig) -> StudyReport:
    """Serial timing comparison of the two schemes on shared meshes.

    Rows run strictly serially (timing integrity); both schemes of one mesh
    share the mesh object, and their configurations differ in the scheme
    alone (same sources, quadrature degrees and tolerances).
    """
    rows = []
    for n in n_values:
        mesh = build_unit_cube_mesh(int(n))
        for scheme in ("splitting", "monolithic"):
            rows.append(_exact_row(replace(config, mesh_n=int(n), scheme=scheme), mesh))
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


def report_svg(report: StudyReport) -> str:
    """Log-log error plot: one polyline per error field + 2 slope guides.

    A zero error has no place on a log axis, so its point is left out.
    """
    width, height = 640, 480
    rows = report.rows
    xs = np.array([getattr(r, report.x_field) for r in rows], dtype=float)
    pad, legend_w = 50.0, 120.0
    x0, x1 = math.log10(xs.min()), math.log10(xs.max())
    all_errs = np.array([[r.errors[f] for f in ERROR_FIELDS] for r in rows])
    all_errs = all_errs[all_errs > 0.0]
    y0, y1 = (math.log10(all_errs.min()), math.log10(all_errs.max())) if all_errs.size else (0.0, 0.0)
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0

    def to_px(lx, ly):
        px = pad + (lx - x0) / (x1 - x0) * (width - 2 * pad - legend_w)
        py = height - pad - (ly - y0) / (y1 - y0) * (height - 2 * pad)
        return px, py

    colors = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for fname, color in zip(ERROR_FIELDS, colors):
        pts = " ".join(
            "{:.2f},{:.2f}".format(*to_px(math.log10(getattr(r, report.x_field)),
                                          math.log10(r.errors[fname])))
            for r in rows
            if r.errors[fname] > 0.0
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    # slope guides anchored near the data's lower-right corner
    for slope, dash in ((1, "6,3"), (2, "2,3")):
        ly_end = y0 + 0.15 * (y1 - y0)
        ly_start = ly_end - slope * (x1 - x0)
        pts = "{:.2f},{:.2f} {:.2f},{:.2f}".format(
            *to_px(x0, ly_start), *to_px(x1, ly_end)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#888888" '
            f'stroke-width="1" stroke-dasharray="{dash}"/>'
        )
    for i, (fname, color) in enumerate(zip(ERROR_FIELDS, colors)):
        ypix = pad + 16 * i
        parts.append(
            f'<text x="{width - legend_w}" y="{ypix}" fill="{color}" '
            f'font-size="12" font-family="sans-serif">{fname}</text>'
        )
    label = report.x_field
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" fill="#000" font-size="12" '
        f'font-family="sans-serif">log10({label})</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: StudyReport, out_dir, stem: str):
    """Write ``stem``.csv, ``stem``.md and, unless a benchmark, ``stem``.svg; return their paths."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {"csv": out / f"{stem}.csv", "md": out / f"{stem}.md"}
        paths["csv"].write_text(report_csv(report))
        paths["md"].write_text(report_markdown(report))
        if report.kind != "benchmark":
            paths["svg"] = out / f"{stem}.svg"
            paths["svg"].write_text(report_svg(report))
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc
    return paths
