"""Per-layer tracing by wrapping the public functions of each ``epe`` layer.

Only the traced solve imports this module. Each wrapper records time and
counts around one public name; a name that no longer exists is listed in
``Tracer.absent`` and its metrics read 0, so a refactor that removes it does
not crash the benchmark. Solver and load metrics count only calls made
inside the time loop (after the n = 0 observer call).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Metrics the wrappers record. The solve itself times the mesh build and the
#: error norms and counts the sizes; ``run.py`` adds the tracing overhead.
WRAPPED = (
    "fem.assembly.operators_s",
    "fem.assembly.matrix_calls",
    "linalg.factor_s",
    "linalg.lu_count",
    "linalg.lu_fill",
    "schemes.initial_s",
    "fem.assembly.load_s",
    "fem.assembly.load_calls",
    "mms.source_s",
    "mms.source_points",
    "linalg.cg_solves",
    "linalg.cg_iters",
    "linalg.cg_s",
    "linalg.cg_residual_max",
    "linalg.saddle_solves",
    "linalg.saddle_s",
    "linalg.saddle_residual_max",
    "linalg.lu_solves",
    "linalg.lu_solve_s",
    "linalg.lu_residual_max",
    "linalg.failures",
)

#: Loop-phase children of the time step; the rest of the step is its self time.
LOOP_CHILDREN = ("fem.assembly.load_s", "linalg.cg_s", "linalg.saddle_s", "linalg.lu_solve_s")


class Tracer:
    """Installs the layer wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.in_loop = False
        self._saved: list[tuple[object, str, object]] = []
        self._lu_solvers: list = []
        self._failures: tuple[type, ...] = ()

    # -- installation ---------------------------------------------------

    def __enter__(self):
        failures = (self._lookup("epe.linalg", name) for name in ("NotConverged", "SingularSystem"))
        self._failures = tuple(exc for exc in failures if exc is not None)
        self._patch("epe.schemes", "assemble_matrix", self._count("fem.assembly.matrix_calls"))
        self._patch("epe.schemes", "Discretization.__init__", self._timed("fem.assembly.operators_s"))
        self._patch(
            "epe.schemes",
            "Discretization.load",
            lambda fn: self._in_loop(fn, "fem.assembly.load_s", "fem.assembly.load_calls", lambda args: 1),
        )
        self._patch("epe.schemes", "make_scheme", self._timed("linalg.factor_s"))
        self._patch("epe.schemes", "initial_state", self._timed("schemes.initial_s"))
        self._patch("epe.linalg", "LuSolver.__init__", self._lu_init)
        self._patch("epe.linalg", "SpdSolver.solve", self._solve("cg"))
        self._patch("epe.linalg", "SaddleSolver.solve", self._solve("saddle"))
        self._patch("epe.linalg", "LuSolver.solve", self._solve("lu", time_key="linalg.lu_solve_s"))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    @staticmethod
    def _lookup(module: str, path: str):
        try:
            obj = importlib.import_module(module)
        except ImportError:
            return None
        for part in filter(None, path.split(".")):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner_path, _, attr = path.rpartition(".")
        owner = self._lookup(module, owner_path)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{module}.{path}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    # -- wrappers -------------------------------------------------------

    def _call(self, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except self._failures:
            self.stats["linalg.failures"] += 1
            raise

    def _count(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.stats[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _timed(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return self._call(fn, args, kwargs)
                finally:
                    self.stats[key] += time.perf_counter() - start

            return wrapper

        return make

    def _in_loop(self, fn, time_key, count_key, count):
        """Wrap ``fn`` to add its time and ``count(args)`` to the stats, for calls inside the loop."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.in_loop:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats[time_key] += time.perf_counter() - start
                self.stats[count_key] += count(args)

        return wrapper

    def _lu_init(self, fn):
        def wrapper(solver, *args, **kwargs):
            self._call(fn, (solver,) + args, kwargs)
            self._lu_solvers.append(solver)

        return wrapper

    def _solve(self, kind, time_key=None):
        time_key = time_key or f"linalg.{kind}_s"

        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = self._call(fn, args, kwargs)
                if self.in_loop:
                    self.stats[time_key] += time.perf_counter() - start
                    self.stats[f"linalg.{kind}_solves"] += 1
                    report = result[1]
                    if kind == "cg":
                        self.stats["linalg.cg_iters"] += report.iterations
                    key = f"linalg.{kind}_residual_max"
                    self.stats[key] = max(self.stats[key], report.relative_residual)
                return result

            return wrapper

        return make

    # -- sources and phases ---------------------------------------------

    def source(self, fn):
        """Wrap a j/f/g evaluator (t, pts) to time it and count its points in the loop."""
        return self._in_loop(fn, "mms.source_s", "mms.source_points", lambda args: len(args[1]))

    def observer(self, n, t, state, energy, wall):
        """``run()`` observer: the loop starts at the n = 0 call and lasts to the last."""
        self.in_loop = True

    def layer_metrics(self, loop_s: float) -> dict[str, float]:
        """What the wrappers recorded, with ``schemes.step_self_s``: ``loop_s`` minus the loop children."""
        # Reading L and U copies the factors, so the fill is counted here,
        # after the solve, not inside the timed factorisation.
        for solver in self._lu_solvers:
            self.stats["linalg.lu_count"] += 1
            lu = getattr(solver, "lu", None)
            if lu is not None:
                self.stats["linalg.lu_fill"] += lu.L.nnz + lu.U.nnz
        self._lu_solvers.clear()
        out = {key: float(self.stats.get(key, 0.0)) for key in WRAPPED}
        out["schemes.step_self_s"] = loop_s - sum(out[key] for key in LOOP_CHILDREN)
        return out
