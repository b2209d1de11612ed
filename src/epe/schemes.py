"""Backward-Euler time stepping: operator-splitting and monolithic engines.

Both schemes share one Discretization (assembled operators; coefficients
are time-independent, so every matrix is built once per run and factorized
once). W is the discrete curl (``curl_dof_operator``); the H mass M_H is
diagonal and held as its diagonal m_H. A Discretization holds what a time
step reads: the full M_E, m_H, the curl on the free edges W_f (its columns
of W), and the free-DOF blocks G_ff, B_ff and M_P_ff. It also holds the free
block K_P_ff, which only the saddle factorization reads, at setup. E, u and
p vanish on the constrained DOFs, so the free columns and blocks suffice.
G_ff, the pressure-gradient coupling, is the product of the free blocks of
M_E and of the edge-vertex incidence D (``fem.assembly``); it is only
applied, never factored, so the cancellation residues the product stores
where the exact coupling is zero (about 1e-16 relative) change no factor.
What a factorization reads once (the elasticity block, the EM matrix) is
assembled for it and dropped before its LDL^T starts; ``run()`` projects the
initial state (with U and P masses of its own) before it factors. A scheme
hands its K to ``linalg.LuSolver``, which keeps only K's lower triangle T in
the factor's numbering, and drops K before ``factor`` runs: through the
factorization T is the one copy of K alive. Both schemes build the EM matrix
after the saddle factor (``Discretization.em_matrix``). At n = 16 its build
lifts the traced heap peak of a splitting setup from 37.5 to 45.9 MiB, past
the saddle LDL^T's 44.2, but not the process peak RSS: it reuses freed pages.

A Discretization owns the setup tables of ``fem.assembly`` (``setup_tables``:
the CellPatterns, the cell geometry, the gradient Gram matrices and the load
rule's point table, with ``mms``'s sin/cos table of those points), and only
it: its operators, the initial projection, the source loads and the
elasticity block all read them, so a run builds each table once. The edge
pattern, which only M_E reads, dies with a copy of the tables in the
constructor. Setup ends at ``order``, which every factorization calls just
before its LDL^T: it clears the tables, the geometry with them.

The splitting scheme advances each step in two sub-steps:

  A (electromagnetic): eliminate the cellwise-constant H exactly
     (H^n = H^{n-1} - (tau/mu) W E^n, exact because curl E_h is cellwise
     constant at lowest order) and solve one SPD system for E^n:
       (eps + tau*sigma) M_E E + (tau^2/mu) W^T M_H W E
         = eps M_E E^{n-1} + tau (M_H W)^T H^{n-1} + tau L G p^{n-1} + tau (j(t_n), .)
     with G the (grad p, E) coupling
  B (Biot): solve the symmetric indefinite saddle system
       a(u, v) - (p, alpha div v)            = (f(t_n), v)
       (c0 p + alpha div u, q) + tau kappa (grad p, grad q)
         = (c0 p^{n-1} + alpha div u^{n-1}, q) + tau L (E^n, grad q) + tau (g(t_n), q)

The monolithic reference solves all four equations coupled, with the
pressure coupling taken implicitly. It eliminates H exactly, as sub-step A
does, and then E, also exactly: Nedelec and P1 form an exact sequence, so
the EM matrix maps the discrete gradient D (``gradient_operator``) onto
(eps + tau sigma) G, and E^n = y + (tau L/(eps + tau sigma)) D p^n with y the
EM solve without pressure coupling. What is left is sub-step B driven by y,
with kappa reduced to kappa - tau L^2/(eps + tau sigma), still positive when
L^2 < sigma kappa (``MonolithicScheme``). Both schemes build the same
history right-hand side (``BackwardEuler.history``: the held operators
applied to the state, plus the loads); the splitting step adds its explicit
pressure coupling on top.

Every direct factorization is a quasi-definite LDL^T, ordered by nested
dissection of its unknowns' lattice locations (``Discretization.order``):
the Biot saddle of both schemes and the monolithic scheme's EM matrix, an
SPD matrix whose LDL^T is a Cholesky factor. The schemes build, sign and
stack the saddle in one place (``BackwardEuler._saddle_solver``) and split
its solution; ``linalg`` only factors and solves K x = b. The saddle
negates its p rows: the factor pivots on each front's positive-diagonal
unknowns first, and in the low-storage, low-permeability limit the pressure
block is nearly zero, so the fronts pivot on the elasticity block
(Vanderbei, SIAM J. Optim. 5(1), 1995). A large factor is stored in
float32, every solve refines in float64 against T, the lower triangle of
K, and a solve on a float32 factor starts from the solver's own earlier
solutions: ``linalg``'s module docstring gives the sizes, the fallback and
the start, and the schemes call ``solve`` as on any factor.

Time-separable sources (``mms.SeparableSource``) have their spatial load
vectors assembled once, when a scheme is built; a step then combines them
with the time factors instead of running a quadrature pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from epe.core import PhysicalParams, RunConfig
from epe.fem.assembly import assemble_load, assemble_matrix, curl_dof_operator, gradient_operator, h_mass
from epe.fem.dofs import free_dof_points, make_layouts, reduce_matrix
from epe.linalg import LuSolver, SaddleSolver, SpdSolver, nested_dissection
from epe.mesh import TetMesh, build_unit_cube_mesh


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

    Each is a (t, pts) evaluator, or None (the default) for no forcing: a
    step then loads nothing for it. A source with a ``terms`` attribute (see
    ``mms.SeparableSource``) is loaded from load vectors assembled once per
    discretization; any other callable is assembled by quadrature at every
    step.
    """

    j: Callable | None = None
    f: Callable | None = None
    g: Callable | None = None


class Discretization:
    """Assembled operators for one mesh and parameter set (see the module docstring).

    Holds the mesh's DOF ``layouts`` (built here), the operators a time step
    applies (M_E, the diagonal m_H of M_H, W_f, G_ff, B_ff and M_P_ff) and
    K_P_ff, which only the saddle factorization reads. A factorization's
    other one-off blocks are assembled on request (``form``), from the
    ``setup_tables`` that every assembly on this mesh shares until ``order``
    ends setup.
    """

    def __init__(self, mesh: TetMesh, params: PhysicalParams):
        self.mesh = mesh
        self.layouts = L = make_layouts(mesh)
        self.params = params
        self.setup_tables: dict = {}
        self.B_ff = reduce_matrix(self.form("DIV_COUPLING", params.alpha), L.P, L.U)
        self.M_P_ff = reduce_matrix(self.form("P_MASS"), L.P, L.P)
        self.K_P_ff = reduce_matrix(self.form("P_STIFF"), L.P, L.P)
        self.m_H = h_mass(mesh, self.setup_tables)
        self.W_f = curl_dof_operator(mesh, self.setup_tables)[:, L.E.free]
        self._term_loads: dict[tuple[str, Callable], np.ndarray] = {}
        # the edge pattern, read by M_E alone, dies with this copy of the tables
        self.M_E = assemble_matrix(mesh, "MASS_E", 1.0, dict(self.setup_tables))
        self.G_ff = reduce_matrix(self.M_E, L.E, L.E) @ reduce_matrix(gradient_operator(mesh), L.E, L.P)

    def form(self, name: str, coeff=1.0) -> sp.csr_matrix:
        """The full matrix of the form ``name`` (``fem.assembly.FORM_SPACES``), from the setup tables."""
        return assemble_matrix(self.mesh, name, coeff, self.setup_tables)

    def elasticity(self) -> sp.csr_matrix:
        """The elasticity block A_el on the free U DOFs, assembled anew on every call."""
        p, L = self.params, self.layouts
        return reduce_matrix(self.form("ELASTICITY", (p.lambda_c, p.G)), L.U, L.U)

    def em_matrix(self, tau: float) -> sp.csr_matrix:
        """(eps + tau sigma) M_E + (tau^2 / mu) W_f^T M_H W_f on the free E DOFs, as scipy's sum of
        the two scaled terms. Run after the saddle factor, the build holds both terms and the sum
        (whose arrays keep scipy's slack) in the pages the factorization freed (module doc)."""
        p, L = self.params, self.layouts
        M = reduce_matrix(self.M_E, L.E, L.E)
        M.data *= p.epsilon + tau * p.sigma
        K = (self.W_f.T @ sp.diags(self.m_H) @ self.W_f).tocsr()
        K.data *= tau**2 / p.mu
        return M + K

    def order(self, *spaces: str) -> list[np.ndarray]:
        """Nested-dissection blocks of the free DOFs of ``spaces``, in order; ends setup (module doc)."""
        self.setup_tables.clear()
        points = [free_dof_points(self.mesh, getattr(self.layouts, s)) for s in spaces]
        return nested_dissection(np.vstack(points))

    def load(self, space: str, fn, t: float) -> np.ndarray:
        """Load vector (fn(t, .), basis_i) for every DOF of ``space``."""
        terms = getattr(fn, "terms", None)
        if terms is None:
            layout = getattr(self.layouts, space)
            return assemble_load(self.mesh, layout, fn, t, tables=self.setup_tables)
        return sum(a(t) * self._term_load(space, phi) for a, phi in terms)

    def prepare_loads(self, sources: Sources) -> None:
        """Assemble the spatial load vector of every separable source term."""
        for space, fn in (("E", sources.j), ("U", sources.f), ("P", sources.g)):
            for _, phi in getattr(fn, "terms", ()):
                self._term_load(space, phi)

    def _term_load(self, space: str, phi: Callable) -> np.ndarray:
        key = (space, phi)
        if key not in self._term_loads:
            self._term_loads[key] = self.load(space, lambda t, pts: phi(pts), 0.0)
        return self._term_loads[key]


def initial_state(disc: Discretization, fields, spd_tol: float = 1e-12) -> State:
    """L2-orthogonal projection of the initial fields onto the four spaces.

    ``fields`` provides evaluators E, H, u, p taking (t, pts); they are
    sampled at t = 0. Each projection solves the unconstrained mass system,
    then the boundary constraints are imposed (exact zeros) on E, u, p.
    """
    L = disc.layouts
    bE, _ = SpdSolver(disc.M_E, spd_tol).solve(disc.load("E", fields.E, 0.0))
    bH = disc.load("H", fields.H, 0.0) / disc.m_H
    bU, _ = SpdSolver(disc.form("U_MASS"), spd_tol).solve(disc.load("U", fields.u, 0.0))
    bP, _ = SpdSolver(disc.form("P_MASS"), spd_tol).solve(disc.load("P", fields.p, 0.0))
    bE[L.E.constrained] = 0.0
    bU[L.U.constrained] = 0.0
    bP[L.P.constrained] = 0.0
    return State(E=bE, H=bH, u=bU, p=bP, n=0, t=0.0)


class BackwardEuler:
    """What both schemes share: the sources, the history terms and the Biot saddle solve.

    A scheme is built from a Discretization, the sources and the RunConfig,
    whose time step ``grid.tau`` and solver tolerances it reads.
    """

    def __init__(self, disc: Discretization, sources: Sources, config: RunConfig):
        self.disc = disc
        self.tau = tau = config.grid.tau
        self.sources = sources
        disc.prepare_loads(sources)
        # a view of W_f (no copy) and the diagonal of tau M_H, for the history's curl term
        self._curl_T, self._tau_m_H = disc.W_f.T, tau * disc.m_H
        self._nu = disc.layouts.U.num_free

    def _saddle_solver(self, kappa: float, tol: float) -> SaddleSolver:
        """The factored Biot saddle [[A_el, -B^T], [-B, -C]], C = c0 M_P + tau kappa K_P.

        Its p rows are negated (see the module docstring); ``_biot`` solves it.
        """
        disc, c0, B = self.disc, self.disc.params.c0, self.disc.B_ff
        C = c0 * disc.M_P_ff + self.tau * kappa * disc.K_P_ff
        # the blocks, and then K itself, are freed before the LDL^T starts: it reads T alone
        K = sp.bmat([[disc.elasticity(), -B.T], [-B, -C]], format="csc")
        del C
        solver = SaddleSolver(K, disc.order("U", "P"), tol=tol)
        del K
        return solver.factor()

    def _biot(self, f_u: np.ndarray, f_p: np.ndarray, E_free: np.ndarray) -> list[np.ndarray]:
        """The free (u, p) of the Biot step driven by E_free: f_p gains tau L G^T E_free in place."""
        f_p += self.tau * self.disc.params.L * (self.disc.G_ff.T @ E_free)
        x, _ = self._saddle.solve(np.concatenate([f_u, -f_p]))
        return np.split(x, [self._nu])

    def history(self, state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The free-DOF right-hand sides (E, u, p) that both schemes share.

        E: eps M_E E + tau j + tau (M_H W)^T H; u: f; p: c0 M_P p + B u + tau g,
        with the sources taken at the new time level (see the module docstring).
        """
        disc, tau, L, p = self.disc, self.tau, self.disc.layouts, self.disc.params
        E = (disc.M_E @ state.E)[L.E.free]
        E *= p.epsilon
        E += self._curl_T @ (self._tau_m_H * state.H)
        P = disc.M_P_ff @ L.P.reduce(state.p)
        P *= p.c0
        P += disc.B_ff @ L.U.reduce(state.u)
        loads = (("E", self.sources.j, tau), ("U", self.sources.f, 1.0), ("P", self.sources.g, tau))
        parts = (E, np.zeros(L.U.num_free), P)
        for (space, fn, scale), part in zip(loads, parts):
            if fn is not None:
                part += scale * disc.load(space, fn, state.t + tau)[getattr(L, space).free]
        return parts

    def advance(self, state: State, E_free, u_free, p_free) -> State:
        """The next time level from the free DOFs of E, u and p; H follows from E exactly."""
        L = self.disc.layouts
        return State(
            E=L.E.extend(E_free),
            H=state.H - (self.tau / self.disc.params.mu) * (self.disc.W_f @ E_free),
            u=L.U.extend(u_free),
            p=L.P.extend(p_free),
            n=state.n + 1,
            t=state.t + self.tau,
        )


class SplittingScheme(BackwardEuler):
    """EM sub-step (H-condensed SPD solve) followed by the Biot sub-step.

    The EM sub-step takes the pressure coupling from p^{n-1}; the Biot
    saddle has the pressure block C_p = c0 M_P + tau kappa K_P.
    """

    name = "splitting"

    def __init__(self, disc: Discretization, sources: Sources, config: RunConfig):
        super().__init__(disc, sources, config)
        self._saddle = self._saddle_solver(disc.params.kappa, config.saddle_tol)
        self._em = SpdSolver(disc.em_matrix(self.tau), tol=config.spd_tol)

    def step(self, state: State) -> State:
        coupling = self.tau * self.disc.params.L
        P_free = self.disc.layouts.P.free
        rhs_E, f_u, f_p = self.history(state)
        # sub-step A: electromagnetic fields, pressure coupling explicit
        E_free, _ = self._em.solve(rhs_E + coupling * (self.disc.G_ff @ state.p[P_free]))
        # sub-step B: Biot consolidation, driven by the new E
        return self.advance(state, E_free, *self._biot(f_u, f_p, E_free))


class MonolithicScheme(BackwardEuler):
    """One coupled backward-Euler step for (E, u, p), with H and then E eliminated exactly.

    The coupled step solves
        A_em E - tau L G p = rhs_E,  A_el u - B^T p = f_u,  -tau L G^T E + B u + C_p p = f_p,
    with A_em = (eps + tau sigma) M_E + (tau^2/mu) W^T M_H W and G = G_ff. Whitney
    forms give grad p_h = sum_e (D p)_e N_e (``gradient_operator``), so G = M_E D and
    W D = 0 on the free DOFs, hence A_em D = (eps + tau sigma) G. The E row then gives
        E = y + (tau L / (eps + tau sigma)) D p,  with A_em y = rhs_E,
    and, as D^T M_E D = K_P, the p row becomes the Biot step driven by y,
        B u + C p = f_p + tau L G^T y,  C = c0 M_P + tau (kappa - tau L^2/(eps + tau sigma)) K_P.
    C is SPD: tau L^2/(eps + tau sigma) < L^2/sigma < kappa by the admissibility bound
    L^2 < sigma kappa. So the saddle is the splitting scheme's with kappa reduced.
    Each step is one direct EM solve, one saddle solve and the lift: no iteration and no
    tolerance beyond the two solves'. The EM factor is an all-positive LDL^T under
    ``saddle_tol``, like every direct solve, so the step reproduces the coupled system
    to rounding.
    """

    name = "monolithic"

    def __init__(self, disc: Discretization, sources: Sources, config: RunConfig):
        super().__init__(disc, sources, config)
        p, L = disc.params, disc.layouts
        scale = self.tau / (p.epsilon + self.tau * p.sigma)
        # the saddle first, while the setup tables hold the elasticity block's pattern
        self._saddle = self._saddle_solver(p.kappa - scale * p.L**2, config.saddle_tol)
        # the EM matrix lives only while LuSolver takes its lower triangle
        self._em = LuSolver(disc.em_matrix(self.tau), disc.order("E"), tol=config.saddle_tol).factor()
        self._lift = reduce_matrix(gradient_operator(disc.mesh), L.E, L.P)
        self._lift.data *= scale * p.L

    def step(self, state: State) -> State:
        rhs_E, f_u, f_p = self.history(state)
        y, _ = self._em.solve(rhs_E)
        u_free, p_free = self._biot(f_u, f_p, y)
        return self.advance(state, y + self._lift @ p_free, u_free, p_free)


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


#: The scheme class of each name in ``core.SCHEMES``.
SCHEME_CLASSES = {cls.name: cls for cls in (SplittingScheme, MonolithicScheme)}


def make_scheme(disc: Discretization, sources: Sources, config: RunConfig) -> BackwardEuler:
    """The scheme named by ``config.scheme``, built for ``config``."""
    return SCHEME_CLASSES[config.scheme](disc, sources, config)


def run(
    config: RunConfig,
    sources: Sources,
    initial,
    observers: Sequence[Callable] = (),
    mesh: TetMesh | None = None,
    disc: Discretization | None = None,
    start_state: State | None = None,
) -> RunResult:
    """Advance the N backward-Euler steps of ``config`` and report per-phase wall times.

    The scheme, its time step and its tolerances are those of ``config``.
    Without ``disc``, ``run()`` builds a Discretization on ``mesh`` (by
    default the ``config.mesh_n`` cube mesh) with ``config.params``.
    ``initial`` provides the exact initial fields (projected in the L2
    sense) unless ``start_state`` passes explicit coefficients. Observers
    are called as obs(n, t, state, None, step_wall_time) after every step,
    including the initial one at n = 0; the fourth argument is always None,
    a slot kept because the benchmark tracer's observer and ``VtkObserver``
    take five arguments.
    """
    t0 = time.perf_counter()
    if disc is None:
        if mesh is None:
            mesh = build_unit_cube_mesh(config.mesh_n)
        disc = Discretization(mesh, config.params)
    t_assemble = time.perf_counter() - t0

    # projected before the factorizations, so its temporaries are freed below the factors
    t0 = time.perf_counter()
    if start_state is not None:
        state = start_state
    else:
        state = initial_state(disc, initial, spd_tol=min(config.spd_tol, 1e-12))
    t_initial = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = make_scheme(disc, sources, config)
    t_factorize = time.perf_counter() - t0

    def notify(n: int, t: float, state: State, wall: float) -> None:
        for obs in observers:
            obs(n, t, state, None, wall)

    t0 = time.perf_counter()
    notify(0, 0.0, state, 0.0)
    for n in range(1, config.grid.N + 1):
        ts = time.perf_counter()
        state = engine.step(state)
        notify(n, state.t, state, time.perf_counter() - ts)
    t_loop = time.perf_counter() - t0

    return RunResult(
        state=state,
        timings=PhaseTimings(
            assemble=t_assemble, factorize=t_factorize, initial=t_initial, loop=t_loop
        ),
    )
