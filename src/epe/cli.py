"""Command-line interface: batch runs, studies, benchmarks, mesh statistics.

Exit codes: 0 success, 1 validation error (flags, parameters, coupling
bound), 2 numerical failure (solver non-convergence), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from epe import core
from epe.core import PARAM_NAMES, build_config, parse_config_file
from epe.linalg import NotConverged, SingularSystem
from epe.mesh import build_unit_cube_mesh
from epe.studies import (
    DEFAULT_TAU_REF,
    DEFAULT_TAUS,
    benchmark,
    emit_report,
    exact_row,
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


def _comma_list(convert, kind: str):
    """Argument type: a nonempty comma list of ``convert`` values."""

    def parse(text: str):
        try:
            values = [convert(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
        return values

    return parse


_int_list = _comma_list(int, "integers")
_float_list = _comma_list(float, "reals")


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
    o.add_argument("--scheme", choices=core.SCHEMES, default=None)
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
    p.add_argument("--csv", action="store_true", help="also print one CSV row (n,V,E,C,h)")

    p = sub.add_parser("run", help="single simulation with the built-in manufactured data")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="subdivisions per cube edge")
    p.add_argument(
        "--vtk-every", type=int, dest="vtk_every", default=None, help="dump VTK every k steps"
    )

    p = sub.add_parser("convergence", help="spatial convergence study (errors vs h)")
    _add_common(p)
    p.add_argument("--n", type=_int_list, default=None, help="comma list of mesh sizes (default 4,8,12)")

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
    _, vols = mesh.cell_geometry()
    rows = [
        ("subdivisions n", mesh.n),
        ("vertices", mesh.num_vertices),
        ("edges", mesh.num_edges),
        ("cells", mesh.num_cells),
        ("mesh size h", f"{mesh.h:.12g}"),
        ("boundary vertices", int(mesh.boundary_vertex.sum())),
        ("boundary edges", int(mesh.boundary_edge.sum())),
        ("min cell volume", f"{vols.min():.12g}"),
        ("max cell volume", f"{vols.max():.12g}"),
        ("total volume", f"{vols.sum():.12g}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    if args.csv:
        print("n,V,E,C,h")
        print(f"{mesh.n},{mesh.num_vertices},{mesh.num_edges},{mesh.num_cells},{mesh.h:.15e}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    if args.out is not None and args.vtk_every is None:
        raise ValueError("epe run writes only VTK snapshots: --out needs --vtk-every")
    mesh = build_unit_cube_mesh(config.mesh_n)
    observers = []
    if args.vtk_every is not None:
        observers.append(VtkObserver(config.out, mesh, every=args.vtk_every))
    row = exact_row(config, mesh, observers)
    print(
        f"scheme={config.scheme} n={config.mesh_n} tau={config.grid.tau:.6g} "
        f"T={config.grid.T:.6g} steps={config.grid.N}"
    )
    for name, val in row.errors.items():
        print(f"err_{name} = {val:.6e}")
    t = row.timings
    print(
        f"wall seconds: assemble={t['assemble']:.3f} factorize={t['factorize']:.3f} "
        f"initial={t['initial']:.3f} loop={t['loop']:.3f} total={t['total']:.3f}"
    )
    return EXIT_OK


def _emit(report, out_dir, stem: str, notes=()) -> int:
    """Write the report files, print the markdown table and ``notes``, then what was written."""
    try:
        paths = emit_report(report, out_dir, stem)
    except OSError as exc:
        # a failed write or close (ENOSPC, EIO) names no file; name the report directory
        if exc.filename is None:
            exc.filename = str(out_dir)
        raise
    sys.stdout.write(report_markdown(report))
    for line in notes:
        print(line)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _config_from_args(args)
    n_values = [4, 8, 12] if args.n is None else args.n
    return _emit(spatial_convergence(n_values, config), config.out, "convergence")


def _cmd_convergence_time(args) -> int:
    config = _config_from_args(args)
    mesh_n = 8 if args.n is None else args.n
    taus = DEFAULT_TAUS if args.taus is None else args.taus
    tau_ref = DEFAULT_TAU_REF if args.tau_ref is None else args.tau_ref
    report = temporal_convergence(mesh_n, taus, config, tau_ref)
    return _emit(report, config.out, "convergence_time")


def _cmd_bench(args) -> int:
    config = _config_from_args(args)
    n_values = [4, 8, 12] if args.n is None else args.n
    report = benchmark(n_values, config)
    notes = [f"speedup at n={n}: {ratio:.2f}x" for n, ratio in speedups(report).items()]
    return _emit(report, config.out, "bench", notes)


_COMMANDS = {
    "mesh-info": _cmd_mesh_info,
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "convergence-time": _cmd_convergence_time,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"epe: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotConverged, SingularSystem) as exc:
        print(f"epe: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"epe: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
