"""Backward-Euler time stepping: operator-splitting and monolithic engines.

Both schemes share one Discretization (assembled operators; coefficients
are time-independent, so every matrix is built once per run and factorized
once). W is the discrete curl (``curl_dof_operator``) and M_H the H mass.
The splitting scheme advances each step in two sub-steps:

  A (electromagnetic): eliminate the cellwise-constant H exactly
     (H^n = H^{n-1} - (tau/mu) W E^n, exact because curl E_h is cellwise
     constant at lowest order) and solve one SPD system for E^n:
       (eps + tau*sigma) M_E E + (tau^2/mu) W^T M_H W E
         = eps M_E E^{n-1} + tau (M_H W)^T H^{n-1} + tau L G_pe p^{n-1} + tau (j(t_n), .)
  B (Biot): solve the symmetric indefinite saddle system
       a(u, v) - (p, alpha div v)            = (f(t_n), v)
       (c0 p + alpha div u, q) + tau kappa (grad p, grad q)
         = (c0 p^{n-1} + alpha div u^{n-1}, q) + tau L (E^n, grad q) + tau (g(t_n), q)

The monolithic reference solves all four equations coupled, with the
pressure coupling taken implicitly. It eliminates H exactly, as sub-step A
does, and factors the resulting 3-block system in (E, u, p) once per run;
H is recovered from E^n by the same update. Its u rows (and their
right-hand side) are negated, which makes the matrix symmetric; it is then
quasi-definite in {E, p} | {u}, because the {E, p} block's Schur complement
is at least c0 M_P + tau (kappa - tau L^2/(eps + tau sigma)) K_P, SPD
whenever L^2 < sigma kappa. Both schemes build the same history right-hand
side (``BackwardEuler.history``: one precomputed operator applied to the
stacked state, plus the loads); the splitting step adds its explicit
pressure couplings on top.

Every direct factorization is a quasi-definite LDL^T, ordered by nested
dissection of its unknowns' lattice locations (``Discretization.order``):
the Biot saddle system, the elasticity block and the monolithic system.

Time-separable sources (``mms.SeparableSource``) have their spatial load
vectors assembled once, when a scheme is built; a step then combines them
with the time factors instead of running a quadrature pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from epe.core import PhysicalParams, RunConfig
from epe.fem.assembly import assemble_load, assemble_matrix, curl_dof_operator
from epe.fem.dofs import Layouts, free_dof_points, make_layouts, reduce_matrix
from epe.linalg import LuSolver, SaddleSolver, SpdSolver, nested_dissection, spd_solve
from epe.mesh import TetMesh, build_unit_cube_mesh
from epe.mms import zero_scalar_source, zero_vector_source


@dataclass(frozen=True)
class State:
    """Coefficient vectors of one time level (full DOF sets, zeros on boundary)."""

    E: np.ndarray
    H: np.ndarray
    u: np.ndarray
    p: np.ndarray
    n: int
    t: float


@dataclass(frozen=True)
class Sources:
    """Right-hand sides j (electric), f (elastic), g (pressure).

    Each is a (t, pts) evaluator. A source with a ``terms`` attribute (see
    ``mms.SeparableSource``) is loaded from load vectors assembled once per
    discretization; any other callable is assembled by quadrature at every
    step.
    """

    j: Callable = zero_vector_source
    f: Callable = zero_vector_source
    g: Callable = zero_scalar_source


class Discretization:
    """Assembled full-space operators for one mesh and parameter set."""

    def __init__(self, mesh: TetMesh, layouts: Layouts, params: PhysicalParams):
        self.mesh = mesh
        self.layouts = layouts
        self.params = params
        L = layouts

        # forms on one pair of cell index maps share a CSR pattern, dropped once assembled
        form = partial(assemble_matrix, mesh, patterns={})
        self.M_E = form(L.E, L.E, "MASS_E")
        self.M_H = form(L.H, L.H, "H_MASS")
        self.W = curl_dof_operator(mesh)
        self.G_pe = form(L.E, L.P, "GRAD_P_TO_E")
        self.A_el = form(L.U, L.U, "ELASTICITY", (params.lambda_c, params.G))
        self.B_div = form(L.P, L.U, "DIV_COUPLING", params.alpha)
        self.M_P = form(L.P, L.P, "P_MASS")
        self.K_P = form(L.P, L.P, "P_STIFF")
        self.M_U = form(L.U, L.U, "U_MASS")

        self.M_E_ff = reduce_matrix(self.M_E, L.E, L.E)
        self.G_ff = reduce_matrix(self.G_pe, L.E, L.P)
        self.A_el_ff = reduce_matrix(self.A_el, L.U, L.U)
        self.B_ff = reduce_matrix(self.B_div, L.P, L.U)
        self.M_P_ff = reduce_matrix(self.M_P, L.P, L.P)
        self.K_P_ff = reduce_matrix(self.K_P, L.P, L.P)
        # W restricted to free E columns. M_H is diagonal, so the curl-curl
        # block W^T M_H W stays sparse.
        W_f = self.W.tocsc()[:, L.E.free].tocsr()
        self.K_curl_ff = (W_f.T @ self.M_H @ W_f).tocsr()
        self._term_loads: dict[tuple[str, Callable], np.ndarray] = {}

    def order(self, *spaces: str) -> list[np.ndarray]:
        """Nested-dissection blocks of the free DOFs of ``spaces``, stacked in that order."""
        points = [free_dof_points(self.mesh, getattr(self.layouts, s)) for s in spaces]
        return nested_dissection(np.vstack(points))

    def load(self, space: str, fn, t: float) -> np.ndarray:
        """Load vector (fn(t, .), basis_i) for every DOF of ``space``."""
        terms = getattr(fn, "terms", None)
        if terms is None:
            layout = getattr(self.layouts, space)
            return assemble_load(self.mesh, layout, fn, t)
        return sum(a(t) * self._term_load(space, phi) for a, phi in terms)

    def prepare_loads(self, sources: Sources) -> None:
        """Assemble the spatial load vector of every separable source term."""
        for space, fn in (("E", sources.j), ("U", sources.f), ("P", sources.g)):
            for _, phi in getattr(fn, "terms", ()):
                self._term_load(space, phi)

    def _term_load(self, space: str, phi: Callable) -> np.ndarray:
        key = (space, phi)
        if key not in self._term_loads:
            layout = getattr(self.layouts, space)
            self._term_loads[key] = assemble_load(
                self.mesh, layout, lambda t, pts: phi(pts), 0.0
            )
        return self._term_loads[key]


def initial_state(disc: Discretization, fields, spd_tol: float = 1e-12) -> State:
    """L2-orthogonal projection of the initial fields onto the four spaces.

    ``fields`` provides evaluators E, H, u, p taking (t, pts); they are
    sampled at t = 0. Each projection solves the unconstrained mass system,
    then the boundary constraints are imposed (exact zeros) on E, u, p.
    """
    L = disc.layouts
    bE, _ = spd_solve(disc.M_E, disc.load("E", fields.E, 0.0), tol=spd_tol)
    bH = disc.load("H", fields.H, 0.0) / disc.M_H.diagonal()
    bU, _ = spd_solve(disc.M_U, disc.load("U", fields.u, 0.0), tol=spd_tol)
    bP, _ = spd_solve(disc.M_P, disc.load("P", fields.p, 0.0), tol=spd_tol)
    bE[L.E.constrained] = 0.0
    bU[L.U.constrained] = 0.0
    bP[L.P.constrained] = 0.0
    return State(E=bE, H=bH, u=bU, p=bP, n=0, t=0.0)


class BhOperator:
    """Discrete pressure-to-dilation map: p -> alpha div u with a(u, v) = (p, alpha div v).

    Self-adjoint and monotone on the constrained pressure space; the inner
    product (Bh p, q) equals q^T B A^{-1} B^T p on free DOFs.
    """

    def __init__(self, disc: Discretization):
        self.disc = disc
        self._lu_A = (
            LuSolver(disc.A_el_ff, tol=1e-8, order=disc.order("U"))
            if disc.A_el_ff.shape[0]
            else None
        )

    def inner(self, p_full: np.ndarray, q_full: np.ndarray) -> float:
        """(Bh p, q) in L2."""
        if self._lu_A is None:
            return 0.0
        L = self.disc.layouts.P
        u_free, _ = self._lu_A.solve(self.disc.B_ff.T @ L.reduce(p_full))
        return float(L.reduce(q_full) @ (self.disc.B_ff @ u_free))


def discrete_energy(
    state: State, params: PhysicalParams, tau: float, disc: Discretization, bh: BhOperator
) -> float:
    """Energy eps||E||^2 + mu||H||^2 + ((c0 + Bh) p, p) + tau kappa ||grad p||^2."""
    S = params.epsilon * float(state.E @ (disc.M_E @ state.E))
    S += params.mu * float(state.H @ (disc.M_H @ state.H))
    S += params.c0 * float(state.p @ (disc.M_P @ state.p))
    S += bh.inner(state.p, state.p)
    S += tau * params.kappa * float(state.p @ (disc.K_P @ state.p))
    return S


class BackwardEuler:
    """What both schemes share: the sources, the pressure block and the history terms."""

    def __init__(self, disc: Discretization, tau: float, sources: Sources):
        self.disc = disc
        self.tau = tau
        self.sources = sources
        disc.prepare_loads(sources)
        p, L = disc.params, disc.layouts
        self._C_p = p.c0 * disc.M_P_ff + tau * p.kappa * disc.K_P_ff
        # the stacked state (E, H, u, p) -> the history part of the free right-hand
        # side (E, u, p); the u rows are empty
        fE, fP = L.E.free, L.P.free
        self._history = sp.bmat(
            [
                [p.epsilon * disc.M_E[fE], tau * (disc.M_H @ disc.W).T.tocsr()[fE], None, None],
                [sp.csr_matrix((L.U.num_free, L.E.count)), None, None, None],
                [None, None, disc.B_div[fP], p.c0 * disc.M_P[fP]],
            ],
            format="csr",
        )
        self._ends = np.cumsum([L.E.num_free, L.U.num_free])

    def history(self, state: State) -> np.ndarray:
        """The stacked free-DOF right-hand side (E, u, p) that both schemes share.

        E: eps M_E E + tau j + tau (M_H W)^T H; u: f; p: c0 M_P p + B u + tau g,
        with the sources taken at the new time level.
        """
        disc, tau, L = self.disc, self.tau, self.disc.layouts
        t_new = state.t + tau
        rhs = self._history @ np.concatenate([state.E, state.H, state.u, state.p])
        loads = (("E", self.sources.j, tau), ("U", self.sources.f, 1.0), ("P", self.sources.g, tau))
        for (space, fn, scale), part in zip(loads, np.split(rhs, self._ends)):
            part += scale * disc.load(space, fn, t_new)[getattr(L, space).free]
        return rhs

    def advance(self, state: State, E_free, u_free, p_free) -> State:
        """The next time level from the free DOFs of E, u and p; H follows from E exactly."""
        L = self.disc.layouts
        E = L.E.extend(E_free)
        return State(
            E=E,
            H=state.H - (self.tau / self.disc.params.mu) * (self.disc.W @ E),
            u=L.U.extend(u_free),
            p=L.P.extend(p_free),
            n=state.n + 1,
            t=state.t + self.tau,
        )


class SplittingScheme(BackwardEuler):
    """EM sub-step (H-condensed SPD solve) followed by the Biot sub-step."""

    name = "splitting"

    def __init__(
        self,
        disc: Discretization,
        tau: float,
        sources: Sources,
        spd_tol: float = 1e-10,
        saddle_tol: float = 1e-9,
    ):
        super().__init__(disc, tau, sources)
        self._G_ff_T = disc.G_ff.T.tocsr()
        p = disc.params
        A0 = (p.epsilon + tau * p.sigma) * disc.M_E_ff
        self._em = SpdSolver(A0 + (tau**2 / p.mu) * disc.K_curl_ff, tol=spd_tol)
        self._saddle = SaddleSolver(
            disc.A_el_ff,
            disc.B_ff,
            self._C_p,
            tol=saddle_tol,
            order=disc.order("U", "P"),
        )

    def step(self, state: State) -> State:
        coupling = self.tau * self.disc.params.L
        P_free = self.disc.layouts.P.free
        rhs_E, f_u, f_p = np.split(self.history(state), self._ends)
        # sub-step A: electromagnetic fields, pressure coupling explicit
        E_free, _ = self._em.solve(rhs_E + coupling * (self.disc.G_ff @ state.p[P_free]))
        # sub-step B: Biot consolidation, driven by the new E
        (u_free, p_free), _ = self._saddle.solve(f_u, f_p + coupling * (self._G_ff_T @ E_free))
        return self.advance(state, E_free, u_free, p_free)


class MonolithicScheme(BackwardEuler):
    """One coupled backward-Euler solve per step for (E, u, p), with H eliminated exactly.

    The system is factored with its u rows negated,
        [[A_em, 0, -G], [0, -A_el, B^T], [-G^T, B, C_p]],
    which is symmetric and quasi-definite in {E, p} | {u} since L^2 < sigma kappa
    (see the module docstring); each step negates the u right-hand side to match.
    """

    name = "monolithic"

    def __init__(
        self,
        disc: Discretization,
        tau: float,
        sources: Sources,
        saddle_tol: float = 1e-9,
    ):
        super().__init__(disc, tau, sources)
        p = disc.params
        A_em = (p.epsilon + tau * p.sigma) * disc.M_E_ff + (tau**2 / p.mu) * disc.K_curl_ff
        G = tau * p.L * disc.G_ff
        K = sp.bmat(
            [
                [A_em, None, -G],
                [None, -disc.A_el_ff, disc.B_ff.T],
                [-G.T, disc.B_ff, self._C_p],
            ],
            format="csc",
        )
        self._lu = LuSolver(K, tol=saddle_tol, order=disc.order("E", "U", "P"))

    def step(self, state: State) -> State:
        rhs = self.history(state)
        rhs[self._ends[0] : self._ends[1]] *= -1.0
        x, _ = self._lu.solve(rhs)
        return self.advance(state, *np.split(x, self._ends))


@dataclass(frozen=True)
class StepRecord:
    n: int
    t: float
    wall_time: float
    energy: float | None = None


@dataclass(frozen=True)
class PhaseTimings:
    """Wall seconds of each phase of ``run()``.

    ``factorize`` covers all scheme construction: the factorizations and
    the one-off assembly of the separable source loads. ``initial`` is the
    L2 projection of the initial fields.
    """

    assemble: float
    factorize: float
    initial: float
    loop: float

    @property
    def total(self) -> float:
        return self.assemble + self.factorize + self.initial + self.loop


@dataclass(frozen=True)
class RunResult:
    state: State
    timings: PhaseTimings
    steps: tuple[StepRecord, ...]

    @property
    def energy_trace(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps if s.energy is not None])


def make_scheme(disc: Discretization, sources: Sources, config: RunConfig):
    """The scheme named by ``config.scheme``, with its time step and tolerances."""
    tau = config.grid.tau
    if config.scheme == "splitting":
        return SplittingScheme(
            disc, tau, sources, spd_tol=config.spd_tol, saddle_tol=config.saddle_tol
        )
    if config.scheme == "monolithic":
        return MonolithicScheme(disc, tau, sources, saddle_tol=config.saddle_tol)
    raise ValueError(f"unknown scheme {config.scheme!r}")


def run(
    config: RunConfig,
    sources: Sources,
    initial,
    observers: Sequence[Callable] = (),
    track_energy: bool = False,
    mesh: TetMesh | None = None,
    disc: Discretization | None = None,
    start_state: State | None = None,
) -> RunResult:
    """Advance the N backward-Euler steps of ``config`` and report per-phase wall times.

    ``initial`` provides the exact initial fields (projected in the L2
    sense) unless ``start_state`` passes explicit coefficients. Observers
    are called as obs(n, t, state, energy, step_wall_time) after every
    step, including the initial one at n = 0.
    """
    t0 = time.perf_counter()
    if disc is None:
        if mesh is None:
            mesh = build_unit_cube_mesh(config.mesh_n)
        disc = Discretization(mesh, make_layouts(mesh), config.params)
    t_assemble = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = make_scheme(disc, sources, config)
    bh = BhOperator(disc) if track_energy else None
    t_factorize = time.perf_counter() - t0

    t0 = time.perf_counter()
    if start_state is not None:
        state = start_state
    else:
        state = initial_state(disc, initial, spd_tol=min(config.spd_tol, 1e-12))
    t_initial = time.perf_counter() - t0

    records = []

    def record(n: int, t: float, state: State, wall: float) -> None:
        energy = None
        if track_energy:
            energy = discrete_energy(state, config.params, config.grid.tau, disc, bh)
        records.append(StepRecord(n, t, wall, energy))
        for obs in observers:
            obs(n, t, state, energy, wall)

    t0 = time.perf_counter()
    record(0, 0.0, state, 0.0)
    for n in range(1, config.grid.N + 1):
        ts = time.perf_counter()
        state = engine.step(state)
        record(n, state.t, state, time.perf_counter() - ts)
    t_loop = time.perf_counter() - t0

    return RunResult(
        state=state,
        timings=PhaseTimings(
            assemble=t_assemble, factorize=t_factorize, initial=t_initial, loop=t_loop
        ),
        steps=tuple(records),
    )
