"""One solve of a benchmark workload, the way ``epe run`` does it.

Run as ``python3 perfbench/solve.py --workload NAME [--trace]`` from the root
of a checkout; ``run.py`` starts one such process per solve. It imports
``epe`` from the checkout's ``src/``, times each phase from outside through
the public observer hook of ``run()``, and prints one JSON object. With
``--trace`` it also wraps the public functions of each layer (see
``tracing.py``); without it, no wrapper is imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS, Workload  # noqa: E402


def import_epe():
    """Import ``epe`` from the checkout's ``src/``, never from an installed copy."""
    if not (SRC / "epe" / "__init__.py").is_file():
        raise FileNotFoundError(f"no epe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import epe

    if Path(epe.__file__).resolve().parent != SRC / "epe":
        raise ImportError(f"epe imported from {epe.__file__}, not from {SRC}")
    return epe


def solve(workload: Workload, tracer=None) -> dict:
    """Solve one workload and return its phase times, error norms and sizes.

    ``tracer`` is a ``tracing.Tracer`` whose wrappers are installed, or None.
    """
    import numpy as np

    from epe.core import build_config
    from epe.fem.dofs import make_layouts
    from epe.mesh import build_unit_cube_mesh
    from epe.mms import error_norms, example61
    from epe.schemes import Sources, run

    config = build_config(
        None, {"mesh_n": workload.n, "tau": workload.tau, "T": workload.T, "scheme": workload.scheme}
    )
    exact = example61(config.params)
    j, f, g = exact.j, exact.f, exact.g
    observers = []
    stamps: list[float] = []
    observers.append(lambda *_: stamps.append(time.perf_counter()))
    if tracer is not None:
        j, f, g = tracer.source(j), tracer.source(f), tracer.source(g)
        observers.append(tracer.observer)
    sources = Sources(j=j, f=f, g=g)

    t0 = time.perf_counter()
    mesh = build_unit_cube_mesh(config.mesh_n)
    t_mesh = time.perf_counter()
    result = run(config, sources, exact, observers=observers, mesh=mesh)
    t_run = time.perf_counter()
    errs = error_norms(result.state, exact, config.grid.T, mesh, config.quad_error)
    t_end = time.perf_counter()

    layouts = make_layouts(mesh)
    out = {
        "total_s": t_end - t0,
        "setup_s": stamps[0] - t0,
        "loop_s": stamps[-1] - stamps[0],
        "step_s": np.diff(stamps).tolist(),
        "mesh_s": t_mesh - t0,
        "errors_s": t_end - t_run,
        "program_loop_s": result.timings.loop,
        "steps": result.state.n,
        "norms": {k: float(v) for k, v in errs.as_dict().items()},
        "sizes": {
            "mesh.cells": mesh.num_cells,
            "dofs.E_free": layouts.E.num_free,
            "dofs.U_free": layouts.U.num_free,
            "dofs.P_free": layouts.P.num_free,
            "dofs.H": layouts.H.count,
        },
    }
    if tracer is not None:
        out["layers"] = {
            **tracer.layer_metrics(out["loop_s"]),
            **out["sizes"],
            "mesh.build_s": out["mesh_s"],
            "mms.errors_s": out["errors_s"],
        }
        out["absent"] = list(tracer.absent)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="wrap each layer's public functions")
    args = parser.parse_args(argv)

    try:
        epe = import_epe()
        import numpy as np
        import scipy

        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                out = solve(WORKLOADS[args.workload], tracer)
        else:
            out = solve(WORKLOADS[args.workload])
        out["versions"] = {"epe": epe.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
    except Exception as exc:  # a failed solve is reported, not crashed on
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
