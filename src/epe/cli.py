"""Command-line interface: batch runs, studies, benchmarks, self checks.

Exit codes: 0 success, 1 validation error (flags, parameters, coupling
bound), 2 numerical failure (solver non-convergence), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from epe import core
from epe.core import (
    PARAM_NAMES,
    ConfigError,
    InvalidGrid,
    ParameterError,
    build_config,
    parse_config_file,
)
from epe.fem.assembly import curl_dof_operator
from epe.fem.dofs import make_layouts
from epe.linalg import LuSolver, NotConverged, SingularSystem
from epe.mesh import InvalidSubdivision, build_unit_cube_mesh, euler_characteristic, mesh_stats
from epe.mms import error_norms, example61
from epe.schemes import BhOperator, Discretization, Sources, State, run
from epe.studies import (
    DEFAULT_TAU_REF,
    DEFAULT_TAUS,
    IoError,
    benchmark,
    emit_report,
    report_markdown,
    spatial_convergence,
    speedups,
    temporal_convergence,
)
from epe.vtkio import VtkObserver

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc


def _add_common(parser: _Parser) -> None:
    g = parser.add_argument_group("model parameters (defaults: headline study values)")
    for name in PARAM_NAMES:
        g.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name, default=None)
    g.add_argument(
        "--allow-decoupled",
        action="store_const",
        const=True,
        default=None,
        dest="allow_decoupled",
        help="permit L = 0 (decoupled smoke tests)",
    )
    o = parser.add_argument_group("run options")
    o.add_argument("--config", default=None, help="key = value configuration file")
    o.add_argument("--T", type=float, default=None, help="final time (default 0.1)")
    o.add_argument("--tau", type=float, default=None, help="time step (default 0.0025)")
    o.add_argument("--scheme", choices=("splitting", "monolithic"), default=None)
    o.add_argument("--spd-tol", type=float, dest="spd_tol", default=None)
    o.add_argument("--saddle-tol", type=float, dest="saddle_tol", default=None)
    o.add_argument("--quad-error", type=int, dest="quad_error", default=None)
    o.add_argument("--out", default=None, help="output directory (default report)")


def build_parser() -> _Parser:
    parser = _Parser(prog="epe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", parents=[], help="print mesh statistics")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="subdivisions per cube edge")
    p.add_argument("--csv", action="store_true", help="also print one CSV row (n,V,E,F,C,h)")

    p = sub.add_parser("run", help="single simulation with the built-in manufactured data")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="subdivisions per cube edge")
    p.add_argument(
        "--vtk-every", type=int, dest="vtk_every", default=None, help="dump VTK every k steps"
    )

    p = sub.add_parser("convergence", help="spatial convergence study (errors vs h)")
    _add_common(p)
    p.add_argument("--n", type=_int_list, default=None, help="comma list of mesh sizes (default 4,8,12)")
    p.add_argument("--full", action="store_true", help="extend the sweep to n=15,18")

    p = sub.add_parser("convergence-time", help="temporal convergence study (errors vs tau)")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="fixed mesh size (default 8)")
    p.add_argument(
        "--taus", type=_float_list, default=None, help="comma list of steps (default 1/40,1/80,1/160)"
    )
    p.add_argument(
        "--tau-ref", type=float, dest="tau_ref", default=None, help="reference step (default 1/1280)"
    )

    p = sub.add_parser("bench", help="splitting vs monolithic timing comparison")
    _add_common(p)
    p.add_argument("--n", type=_int_list, default=None, help="comma list of mesh sizes (default 4,8,12)")
    p.add_argument("--full", action="store_true", help="extend the sweep to n=15")

    p = sub.add_parser("self-check", help="fast invariant suite; exit 0 only if all pass")
    _add_common(p)

    return parser


def _config_from_args(args) -> core.RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {
        key: getattr(args, key)
        for key in core.CONFIG_KEYS
        if hasattr(args, key) and getattr(args, key) is not None
    }
    n = getattr(args, "n", None)
    if isinstance(n, int):
        overrides["mesh_n"] = n
    return build_config(file_values, overrides)


def _cmd_mesh_info(args) -> int:
    config = _config_from_args(args)
    mesh = build_unit_cube_mesh(config.mesh_n)
    s = mesh_stats(mesh)
    rows = [
        ("subdivisions n", s.n),
        ("vertices", s.V),
        ("edges", s.E),
        ("faces", s.F),
        ("cells", s.C),
        ("euler characteristic", euler_characteristic(mesh)),
        ("mesh size h", f"{s.h:.12g}"),
        ("boundary vertices", s.boundary_vertices),
        ("boundary edges", s.boundary_edges),
        ("boundary faces", s.boundary_faces),
        ("min cell volume", f"{s.min_cell_volume:.12g}"),
        ("max cell volume", f"{s.max_cell_volume:.12g}"),
        ("total volume", f"{s.total_volume:.12g}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    if args.csv:
        print("n,V,E,F,C,h")
        print(f"{s.n},{s.V},{s.E},{s.F},{s.C},{s.h:.15e}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    exact = example61(config.params)
    sources = Sources(j=exact.j, f=exact.f, g=exact.g)
    mesh = build_unit_cube_mesh(config.mesh_n)
    observers = []
    if args.vtk_every is not None:
        observers.append(VtkObserver(config.out, mesh, every=args.vtk_every))
    result = run(config, sources, exact, observers=observers, mesh=mesh)
    errs = error_norms(result.state, exact, config.grid.T, mesh, config.quad_error)
    print(
        f"scheme={config.scheme} n={config.mesh_n} tau={config.grid.tau:.6g} "
        f"T={config.grid.T:.6g} steps={config.grid.N}"
    )
    for name, val in errs.as_dict().items():
        print(f"err_{name} = {val:.6e}")
    t = result.timings
    print(
        f"wall seconds: assemble={t.assemble:.3f} factorize={t.factorize:.3f} "
        f"initial={t.initial:.3f} loop={t.loop:.3f} total={t.total:.3f}"
    )
    return EXIT_OK


def _emit(report, out_dir, stem: str, notes=()) -> int:
    """Write the report files, print the markdown table and ``notes``, then what was written."""
    paths = emit_report(report, out_dir, stem)
    sys.stdout.write(report_markdown(report))
    for line in notes:
        print(line)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _config_from_args(args)
    n_values = args.n if args.n else [4, 8, 12]
    if args.full:
        n_values = sorted(set(n_values) | {15, 18})
    return _emit(spatial_convergence(n_values, config), config.out, "convergence")


def _cmd_convergence_time(args) -> int:
    config = _config_from_args(args)
    mesh_n = args.n if args.n else 8
    taus = args.taus if args.taus else DEFAULT_TAUS
    tau_ref = args.tau_ref if args.tau_ref else DEFAULT_TAU_REF
    report = temporal_convergence(mesh_n, taus, config, tau_ref)
    return _emit(report, config.out, "convergence_time")


def _cmd_bench(args) -> int:
    config = _config_from_args(args)
    n_values = args.n if args.n else [4, 8, 12]
    if args.full:
        n_values = sorted(set(n_values) | {15})
    report = benchmark(n_values, config)
    notes = [f"speedup at n={n}: {ratio:.2f}x" for n, ratio in speedups(report).items()]
    return _emit(report, config.out, "bench", notes)


def _cmd_self_check(args) -> int:
    config = _config_from_args(args)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures += 1

    rng = np.random.default_rng(1234)
    for n in (1, 2):
        mesh = build_unit_cube_mesh(n)
        s = mesh_stats(mesh)
        check(
            f"mesh n={n}: euler characteristic 1 and unit volume",
            euler_characteristic(mesh) == 1 and abs(s.total_volume - 1.0) < 1e-12,
        )
        # the edge coefficients p_b - p_a of a P1 field are its gradient, which W must map to zero
        p = rng.standard_normal(mesh.num_vertices)
        curl = curl_dof_operator(mesh) @ (p[mesh.edges[:, 1]] - p[mesh.edges[:, 0]])
        dev = float(np.abs(curl).max())
        check(f"mesh n={n}: discrete curl of a P1 gradient vanishes (max {dev:.2e})", dev < 1e-12)

    sym_worst, mono_worst = 0.0, float("inf")
    for bh_n in (2, 3):  # n=2 per contract; n=3 has a nontrivial coupling block
        m = build_unit_cube_mesh(bh_n)
        lay = make_layouts(m)
        bh = BhOperator(Discretization(m, lay, config.params))
        for _ in range(5):
            p_vec = lay.P.extend(rng.standard_normal(lay.P.num_free))
            q_vec = lay.P.extend(rng.standard_normal(lay.P.num_free))
            sym_worst = max(sym_worst, abs(bh.inner(p_vec, q_vec) - bh.inner(q_vec, p_vec)))
            mono_worst = min(mono_worst, bh.inner(p_vec, p_vec))
    check(f"pressure-to-dilation operator symmetric (dev {sym_worst:.2e})", sym_worst < 1e-9)
    check(f"pressure-to-dilation operator monotone (min {mono_worst:.2e})", mono_worst > -1e-12)

    # n=3, where u enters the energy; u starts in mechanical equilibrium with p
    # (a(u, v) = (p, alpha div v)), which is what (Bh p, p) stands for
    mesh = build_unit_cube_mesh(3)
    layouts = make_layouts(mesh)
    disc = Discretization(mesh, layouts, config.params)
    p_free = rng.standard_normal(layouts.P.num_free)
    u_free, _ = LuSolver(disc.A_el_ff).solve(disc.B_ff.T @ p_free)
    state = State(
        E=layouts.E.extend(rng.standard_normal(layouts.E.num_free)),
        H=rng.standard_normal(layouts.H.count),
        u=layouts.U.extend(u_free),
        p=layouts.P.extend(p_free),
        n=0,
        t=0.0,
    )
    cfg = replace(config, mesh_n=3, grid=core.make_time_grid(0.2, 20))
    result = run(cfg, Sources(), None, disc=disc, start_state=state, track_energy=True)
    trace = result.energy_trace
    increases = float(np.max(trace[1:] / trace[:-1])) if trace.size > 1 else 0.0
    check(
        f"discrete energy non-increasing under zero forcing (max ratio {increases:.12f})",
        increases <= 1.0 + 1e-12,
    )

    print("self-check:", "OK" if failures == 0 else f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


_COMMANDS = {
    "mesh-info": _cmd_mesh_info,
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "convergence-time": _cmd_convergence_time,
    "bench": _cmd_bench,
    "self-check": _cmd_self_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, ConfigError, InvalidGrid, InvalidSubdivision, ValueError) as exc:
        print(f"epe: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotConverged, SingularSystem) as exc:
        print(f"epe: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IoError, OSError) as exc:
        print(f"epe: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
