import gc
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import replace

import epe.fem.assembly
import epe.linalg
import epe.mesh
import epe.mms
import epe.schemes
from conftest import (
    BhOperator,
    blocks,
    cellwise_curl,
    discrete_energy,
    elasticity_ff,
    full_operator,
    monolithic_blocks,
    quadrature_forms,
    saddle_blocks,
    zero_state,
)
from epe.core import PARAM_NAMES, grid_for_step, validate_params
from epe.fem.assembly import assemble_load, curl_dof_operator, gradient_operator
from epe.fem.dofs import make_layouts, reduce_matrix
from epe.linalg import START_SOLUTIONS, LuSolver, MultifrontalLdl, NotConverged, SaddleSolver
from epe.mesh import build_unit_cube_mesh
from epe.mms import ERROR_BLOCK_CELLS, error_norms, example61
from epe.schemes import (
    Discretization,
    MonolithicScheme,
    Sources,
    SplittingScheme,
    State,
    initial_state,
    run,
)
from epe.studies import temporal_convergence

#: LDL^T factors per run: the Biot saddle, and in the monolithic scheme also the EM matrix.
FACTORS = {"splitting": 1, "monolithic": 2}


def curl_coupling(disc):
    """C = M_H W restricted to free E columns: the (curl E, H) coupling with H kept."""
    return (sp.diags(disc.m_H) @ curl_dof_operator(disc.mesh)[:, disc.layouts.E.free]).tocsr()


def grad_coupling(disc):
    """G_pe: the full (grad p, E) coupling by the quadrature oracle (the discretization keeps
    its free block, built as M_E D)."""
    return quadrature_forms(disc.mesh, disc.layouts)["grad"]


def free_E_mass(disc):
    return reduce_matrix(disc.M_E, disc.layouts.E, disc.layouts.E)


def symmetric(T):
    """The symmetric matrix whose lower triangle is T."""
    return (T + T.T - sp.diags(T.diagonal())).tocsc()


def scipy_em_matrix(disc, tau):
    """The EM matrix as scipy's sum of its two scaled terms on the free E DOFs."""
    p, L = disc.params, disc.layouts
    K = (disc.W_f.T @ sp.diags(disc.m_H) @ disc.W_f).tocsr()
    K.data *= tau**2 / p.mu
    M = reduce_matrix(disc.M_E, L.E, L.E)
    M.data *= p.epsilon + tau * p.sigma
    return M + K


def random_admissible_state(layouts, rng):
    return State(
        E=layouts.E.extend(rng.standard_normal(layouts.E.num_free)),
        H=rng.standard_normal(layouts.H.count),
        u=layouts.U.extend(rng.standard_normal(layouts.U.num_free)),
        p=layouts.P.extend(rng.standard_normal(layouts.P.num_free)),
        n=0,
        t=0.0,
    )


def equilibrium_state(disc, rng):
    """Random E, H and p, with u in mechanical equilibrium: a(u, v) = (p, alpha div v).

    The energy's (Bh p, p) term stands for (alpha div u, p) only for such u.
    """
    L = disc.layouts
    p_free = rng.standard_normal(L.P.num_free)
    A = elasticity_ff(disc)
    u_free, _ = LuSolver(A, blocks(np.arange(A.shape[0]))).factor().solve(disc.B_ff.T @ p_free)
    state = random_admissible_state(L, rng)
    return replace(state, u=L.U.extend(u_free), p=L.P.extend(p_free))


def bh_apply(disc, p_full):
    """Oracle for Bh by dense solves: the P coefficients of the L2 representative of alpha div u."""
    L = disc.layouts.P
    u = np.linalg.solve(elasticity_ff(disc).toarray(), disc.B_ff.T @ L.reduce(p_full))
    return L.extend(np.linalg.solve(disc.M_P_ff.toarray(), disc.B_ff @ u))


class SetupTableProbe:
    """Weak references to every setup table built: CellPatterns (with their scatter), cell
    geometries (their gradient arrays: every one a mesh computes), gradient Gram arrays, load
    point tables and sin/cos tables, each listed once, in build order."""

    def __init__(self, monkeypatch):
        self.built = defaultdict(list)      # kind -> weak references
        probe = self

        class Recording(epe.fem.assembly.CellPattern):
            def __init__(self, rows, cols, shape):
                super().__init__(rows, cols, shape)
                probe.note(("pattern", shape), self)
                probe.note("scatter", self.scatter)

        monkeypatch.setattr(epe.fem.assembly, "CellPattern", Recording)
        for owner, name, kind in (
            (epe.mesh.TetMesh, "cell_geometry", "geometry"),
            (epe.fem.assembly, "_gram", "gram"),
            (epe.fem.assembly, "_load_points", "points"),
            (epe.mms, "_sin_cos", "sin/cos"),
        ):
            monkeypatch.setattr(owner, name, self._recording(getattr(owner, name), kind))

    def _recording(self, fn, kind):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.note(kind, out[0] if isinstance(out, tuple) else out)
            return out

        return wrapper

    def note(self, kind, obj):
        if not any(ref() is obj for ref in self.built[kind]):
            self.built[kind].append(weakref.ref(obj))

    def counts(self):
        return Counter({kind: len(refs) for kind, refs in self.built.items()})

    def alive(self):
        gc.collect()
        return sorted(str(kind) for kind, refs in self.built.items() for ref in refs if ref() is not None)


def random_admissible_params(rng):
    """Constants log-uniform in [e^-1.5, e^1.5], and L = r sqrt(sigma kappa) with r < 0.999."""
    values = dict(zip(PARAM_NAMES, np.exp(rng.uniform(-1.5, 1.5, len(PARAM_NAMES)))))
    values["L"] = rng.uniform(0.0, 0.999) * np.sqrt(values["sigma"] * values["kappa"])
    return validate_params(**values)


def history_oracle(scheme, state):
    """The free right-hand side (E, u, p) as one stacked sparse operator on (E, H, u, p), plus loads.

    Every operator is assembled here; the u rows of the operator are empty.
    """
    disc, tau = scheme.disc, scheme.tau
    p, L = disc.params, disc.layouts
    fE, fP = L.E.free, L.P.free
    curl = (sp.diags(disc.m_H) @ curl_dof_operator(disc.mesh)).T.tocsr()
    stack = sp.bmat(
        [
            [p.epsilon * full_operator(disc, "MASS_E")[fE], tau * curl[fE], None, None],
            [sp.csr_matrix((L.U.num_free, L.E.count)), None, None, None],
            [None, None, full_operator(disc, "DIV_COUPLING", p.alpha)[fP],
             p.c0 * full_operator(disc, "P_MASS")[fP]],
        ],
        format="csr",
    )
    rhs = stack @ np.concatenate([state.E, state.H, state.u, state.p])
    t = state.t + tau
    loads = [tau * disc.load("E", scheme.sources.j, t)[fE], disc.load("U", scheme.sources.f, t)[L.U.free],
             tau * disc.load("P", scheme.sources.g, t)[fP]]
    return rhs + np.concatenate(loads)


class UncondensedSplitting(SplittingScheme):
    """Oracle: sub-step A solves the 2-block (E, H) system directly, H not eliminated.

    The H rows and their right-hand side are negated, so the system
    [[A0, -tau C^T], [-tau C, -mu M_H]] is symmetric quasi-definite.
    """

    def __init__(self, disc, sources, config):
        super().__init__(disc, sources, config)
        p, tau = disc.params, self.tau
        A0 = (p.epsilon + tau * p.sigma) * free_E_mass(disc)
        C_f = curl_coupling(disc)
        self._G_pe = grad_coupling(disc)
        self._M_P = full_operator(disc, "P_MASS")
        self._B_div = full_operator(disc, "DIV_COUPLING", p.alpha)
        K = sp.bmat([[A0, -tau * C_f.T], [-tau * C_f, -p.mu * sp.diags(disc.m_H)]], format="csc")
        self._em_block = LuSolver(K, blocks(np.arange(K.shape[0])), tol=config.spd_tol * 10).factor()

    def step(self, state):
        disc, p, tau = self.disc, self.disc.params, self.tau
        L = disc.layouts
        t_new = state.t + tau
        rhs = p.epsilon * (disc.M_E @ state.E)
        rhs += tau * p.L * (self._G_pe @ state.p)
        rhs += tau * disc.load("E", self.sources.j, t_new)
        M_H = sp.diags(disc.m_H)
        x, _ = self._em_block.solve(np.concatenate([rhs[L.E.free], -p.mu * (M_H @ state.H)]))
        E_new = L.E.extend(x[: L.E.num_free])

        f_u = disc.load("U", self.sources.f, t_new)[L.U.free]
        f_p = (p.c0 * (self._M_P @ state.p) + self._B_div @ state.u)[L.P.free]
        f_p += tau * p.L * (self._G_pe.T @ E_new)[L.P.free]
        f_p += tau * disc.load("P", self.sources.g, t_new)[L.P.free]
        x_up, _ = self._saddle.solve(np.concatenate([f_u, -f_p]))
        u_free, p_free = np.split(x_up, [L.U.num_free])
        return State(
            E=E_new,
            H=x[L.E.num_free :],
            u=L.U.extend(u_free),
            p=L.P.extend(p_free),
            n=state.n + 1,
            t=t_new,
        )


@pytest.fixture(scope="module")
def exact(params):
    return example61(params)


@pytest.fixture(scope="module")
def sources(exact):
    return Sources(j=exact.j, f=exact.f, g=exact.g)


class TestInitialState:
    def test_zero_data_gives_zero_state(self, disc2):
        class Zero:
            E = staticmethod(lambda t, x: np.zeros((x.shape[0], 3)))
            H = staticmethod(lambda t, x: np.zeros((x.shape[0], 3)))
            u = staticmethod(lambda t, x: np.zeros((x.shape[0], 3)))
            p = staticmethod(lambda t, x: np.zeros(x.shape[0]))

        state = initial_state(disc2, Zero)
        for f in (state.E, state.H, state.u, state.p):
            assert np.all(f == 0.0)

    def test_projection_is_identity_on_the_space(self, disc2, mesh2):
        # p(x) = x_0 lies in the P1 space: interior nodal values reproduced
        class InSpace:
            E = staticmethod(lambda t, x: np.tile([1.0, 0.0, 0.0], (x.shape[0], 1)))
            H = staticmethod(lambda t, x: np.tile([0.0, 2.0, 0.0], (x.shape[0], 1)))
            u = staticmethod(lambda t, x: x)
            p = staticmethod(lambda t, x: x[:, 0])

        state = initial_state(disc2, InSpace)
        lay = disc2.layouts
        interior = ~mesh2.boundary_vertex
        np.testing.assert_allclose(
            state.p[interior], mesh2.vertices[interior, 0], atol=1e-10
        )
        np.testing.assert_allclose(
            state.u.reshape(-1, 3)[interior], mesh2.vertices[interior], atol=1e-10
        )
        # H holds exact cell averages of a constant field
        H = state.H.reshape(-1, 3)
        np.testing.assert_allclose(H, np.broadcast_to([0.0, 2.0, 0.0], H.shape), atol=1e-12)
        # constant vectors lie in the edge space: interior moments reproduced
        tangents = mesh2.vertices[mesh2.edges[:, 1]] - mesh2.vertices[mesh2.edges[:, 0]]
        moments = tangents @ np.array([1.0, 0.0, 0.0])
        free = lay.E.free
        np.testing.assert_allclose(state.E[free], moments[free], atol=1e-10)

    def test_projection_error_halves_twice_under_refinement(self, params, exact):
        from epe.mms import error_norms

        errs = []
        for n in (4, 8):
            mesh = build_unit_cube_mesh(n)
            disc = Discretization(mesh, params)
            state = initial_state(disc, exact)
            errs.append(error_norms(state, exact, 0.0, mesh, 5).p_L2)
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0  # second-order projection error


class TestBhOperator:
    def test_zero_maps_to_zero(self, disc3):
        bh = BhOperator(disc3)
        lay = disc3.layouts.P
        q = lay.extend(np.random.default_rng(13).standard_normal(lay.num_free))
        assert bh.inner(np.zeros(lay.count), q) == 0.0

    @pytest.mark.parametrize("fixture", ["disc2", "disc3"])
    def test_self_adjoint(self, fixture, request):
        disc = request.getfixturevalue(fixture)
        lay = disc.layouts.P
        bh = BhOperator(disc)
        M = full_operator(disc, "P_MASS")
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = lay.extend(rng.standard_normal(lay.num_free))
            q = lay.extend(rng.standard_normal(lay.num_free))
            norm_p = np.sqrt(p @ (M @ p))
            norm_q = np.sqrt(q @ (M @ q))
            assert abs(bh.inner(p, q) - bh.inner(q, p)) <= 1e-9 * norm_p * norm_q

    @pytest.mark.parametrize("fixture", ["disc2", "disc3"])
    def test_monotone(self, fixture, request):
        disc = request.getfixturevalue(fixture)
        lay = disc.layouts.P
        bh = BhOperator(disc)
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = lay.extend(rng.standard_normal(lay.num_free))
            assert bh.inner(p, p) >= -1e-12

    def test_nontrivial_on_n3(self, disc3):
        # guards against a degenerate coupling block (it IS zero on n=2)
        bh = BhOperator(disc3)
        rng = np.random.default_rng(16)
        p = disc3.layouts.P.extend(rng.standard_normal(disc3.layouts.P.num_free))
        assert bh.inner(p, p) > 1e-8
        assert np.linalg.norm(bh_apply(disc3, p)) > 1e-6

    def test_apply_consistent_with_inner(self, disc3):
        bh = BhOperator(disc3)
        rng = np.random.default_rng(17)
        lay = disc3.layouts.P
        p = lay.extend(rng.standard_normal(lay.num_free))
        q = lay.extend(rng.standard_normal(lay.num_free))
        lhs = q @ (full_operator(disc3, "P_MASS") @ bh_apply(disc3, p))
        assert lhs == pytest.approx(bh.inner(p, q), rel=1e-8, abs=1e-12)


def small_config(config, n, T, N, **changes):
    return replace(config, mesh_n=n, grid=grid_for_step(T, T / N), **changes)


class TestSplittingStep:
    def test_zero_everything_stays_zero(self, config, disc2):
        cfg = small_config(config, 2, 0.1, 4)
        res = run(cfg, Sources(), None, disc=disc2, start_state=zero_state(disc2.layouts))
        assert np.all(res.state.E == 0.0) and np.all(res.state.p == 0.0)

    def test_boundary_dofs_exactly_zero(self, config, disc2, sources, exact):
        cfg = small_config(config, 2, 0.1, 5)
        lay = disc2.layouts
        seen = []

        def obs(n, t, state, energy, wall):
            seen.append(
                (
                    np.abs(state.E[lay.E.constrained]).max(initial=0.0),
                    np.abs(state.u[lay.U.constrained]).max(initial=0.0),
                    np.abs(state.p[lay.P.constrained]).max(initial=0.0),
                )
            )

        run(cfg, sources, exact, observers=[obs], disc=disc2)
        assert all(v == (0.0, 0.0, 0.0) for v in seen)

    def test_h_update_residual(self, config, disc2, sources, exact, mesh2, params):
        cfg = small_config(config, 2, 0.1, 10)
        states = []
        run(cfg, sources, exact, observers=[lambda n, t, s, e, w: states.append(s)], disc=disc2)
        worst = 0.0
        for prev, curr in zip(states, states[1:]):
            resid = params.mu * (curr.H - prev.H) / cfg.grid.tau + cellwise_curl(
                mesh2, curr.E
            ).ravel()
            worst = max(worst, float(np.abs(resid).max()))
        assert worst <= 1e-13

    def test_saddle_matrix_keeps_the_u_rows_positive(self, config, disc2):
        """The factored Biot matrix is [[A_el, -B^T], [-B, -C_p]] entry for entry, p rows negated:
        the saddle solver's T is that matrix's lower triangle in the factor's numbering."""
        cfg = small_config(config, 2, 0.1, 4)
        p = disc2.params
        C_p = p.c0 * disc2.M_P_ff + cfg.grid.tau * p.kappa * disc2.K_P_ff
        want = saddle_blocks(elasticity_ff(disc2), disc2.B_ff, C_p)
        solver = SplittingScheme(disc2, Sources(), cfg)._saddle
        want = sp.tril(want[solver.order][:, solver.order], format="csc")
        got = solver.lower.copy()
        got.sort_indices()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    def test_condensed_equals_uncondensed(self, config, disc2, sources, exact):
        cfg = small_config(config, 2, 0.1, 10)
        ra = run(cfg, sources, exact, disc=disc2)
        oracle = UncondensedSplitting(disc2, sources, cfg)
        rb = initial_state(disc2, exact, spd_tol=min(cfg.spd_tol, 1e-12))
        for _ in range(cfg.grid.N):
            rb = oracle.step(rb)
        for f in ("E", "H", "u", "p"):
            a, b = getattr(ra.state, f), getattr(rb, f)
            denom = max(np.linalg.norm(a), 1e-30)
            assert np.linalg.norm(a - b) / denom <= 10 * cfg.spd_tol

    def test_zero_steps_returns_initial_state(self, config, disc2, sources, exact):
        """The state after zero steps, as the n = 0 observer call sees it, is the initial projection."""
        cfg = small_config(config, 2, 0.1, 4)
        states = []
        run(cfg, sources, exact, disc=disc2, observers=[lambda n, t, s, e, w: states.append(s)])
        ref = initial_state(disc2, exact)
        np.testing.assert_array_equal(states[0].p, ref.p)
        assert states[0].n == 0


class TestMonolithic:
    def test_zero_everything_stays_zero(self, config, disc2):
        cfg = small_config(config, 2, 0.1, 3, scheme="monolithic")
        res = run(
            cfg, Sources(), None, disc=disc2,
            start_state=zero_state(disc2.layouts),
        )
        assert np.all(res.state.E == 0.0) and np.all(res.state.H == 0.0)

    def test_splitting_gap_is_first_order_in_tau(self, config, sources, exact, params):
        """The distance between splitting and monolithic E halves with tau, and H has none.

        The splitting error in E is (eps + tau sigma)^{-1} tau L grad(p^n - p^{n-1}),
        a discrete gradient, which W annihilates; so H^n = H^{n-1} - (tau/mu) W E^n
        is the same in both schemes, to rounding.
        """
        mesh = build_unit_cube_mesh(4)
        disc = Discretization(mesh, params)
        gaps, h_gaps = [], []
        for N in (10, 20):
            cfg = small_config(config, 4, 0.1, N)
            rs = run(cfg, sources, exact, disc=disc)
            rm = run(replace(cfg, scheme="monolithic"), sources, exact, disc=disc)
            d = rs.state.E - rm.state.E
            gaps.append(float(np.sqrt(d @ (disc.M_E @ d))))
            dH, H = rs.state.H - rm.state.H, rm.state.H
            h_gaps.append(float(np.sqrt((dH @ (disc.m_H * dH)) / (H @ (disc.m_H * H)))))
        order = np.log2(gaps[0] / gaps[1])
        assert 0.7 <= order <= 1.3, (gaps, order)
        assert max(h_gaps) <= 1e-9, h_gaps

    def test_decoupled_schemes_agree_stepwise(self, config):
        params0 = validate_params(
            allow_decoupled=True,
            epsilon=1, mu=1, sigma=2, L=0.0, lambda_c=2, G=1, alpha=1, c0=1, kappa=2,
        )
        exact0 = example61(params0)
        sources0 = Sources(j=exact0.j, f=exact0.f, g=exact0.g)
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, params0)
        cfg = replace(
            small_config(config, 2, 0.1, 8), params=params0
        )
        split_states, mono_states = [], []
        run(cfg, sources0, exact0, disc=disc,
            observers=[lambda n, t, s, e, w: split_states.append(s)])
        run(replace(cfg, scheme="monolithic"), sources0, exact0, disc=disc,
            observers=[lambda n, t, s, e, w: mono_states.append(s)])
        for a, b in zip(split_states, mono_states):
            for f in ("E", "H", "u", "p"):
                va, vb = getattr(a, f), getattr(b, f)
                denom = max(np.linalg.norm(va), 1e-12)
                assert np.linalg.norm(va - vb) / denom <= 10 * cfg.spd_tol


    @pytest.mark.parametrize("tau", [1.0, 1e-5])
    def test_factors_at_the_edge_of_quasi_definiteness(self, tau, config, mesh3):
        """With L = 0.999 sqrt(sigma kappa) the EM factor and the saddle, whose pressure block
        c0 M_P + tau (kappa - tau L^2/(eps + tau sigma)) K_P is then nearly c0 M_P, factor and
        solve within saddle_tol, and the scheme steps."""
        values = {name: getattr(config.params, name) for name in PARAM_NAMES}
        values["L"] = 0.999 * np.sqrt(values["sigma"] * values["kappa"])
        disc = Discretization(mesh3, validate_params(**values))
        scheme = MonolithicScheme(disc, Sources(), replace(config, grid=grid_for_step(tau, tau)))
        rng = np.random.default_rng(42)
        for solver in (scheme._em, scheme._saddle):
            _, report = solver.solve(rng.standard_normal(solver.lower.shape[0]))
            assert report.relative_residual <= config.saddle_tol
        state = random_admissible_state(disc.layouts, rng)
        for _ in range(3):
            state = scheme.step(state)  # raises if a solve misses saddle_tol
        assert all(np.all(np.isfinite(getattr(state, f))) for f in ("E", "H", "u", "p"))

    def test_condensed_step_matches_four_block_system(self, config, disc2, sources):
        """Oracle: one step of the coupled (E, H, u, p) system, H kept as an unknown."""
        tau, p, L = config.grid.tau, disc2.params, disc2.layouts
        state = random_admissible_state(L, np.random.default_rng(40))
        got = MonolithicScheme(disc2, sources, config).step(state)

        fE, fP = L.E.free, L.P.free
        Gpe_f = grad_coupling(disc2)[fE][:, fP]
        C_p = p.c0 * disc2.M_P_ff + tau * p.kappa * disc2.K_P_ff
        C_f = curl_coupling(disc2)
        M_P, B_div = full_operator(disc2, "P_MASS"), full_operator(disc2, "DIV_COUPLING", p.alpha)
        K = sp.bmat(
            [
                [(p.epsilon + tau * p.sigma) * free_E_mass(disc2), -tau * C_f.T, None,
                 -tau * p.L * Gpe_f],
                [tau * C_f, p.mu * sp.diags(disc2.m_H), None, None],
                [None, None, elasticity_ff(disc2), -disc2.B_ff.T],
                [-tau * p.L * Gpe_f.T, None, disc2.B_ff, C_p],
            ],
            format="csc",
        )
        t = state.t + tau
        rhs = np.concatenate(
            [
                (p.epsilon * (disc2.M_E @ state.E) + tau * disc2.load("E", sources.j, t))[fE],
                p.mu * (sp.diags(disc2.m_H) @ state.H),
                disc2.load("U", sources.f, t)[L.U.free],
                (p.c0 * (M_P @ state.p) + B_div @ state.u)[fP]
                + tau * disc2.load("P", sources.g, t)[fP],
            ]
        )
        x = spla.spsolve(K, rhs)
        ends = np.cumsum([L.E.num_free, L.H.count, L.U.num_free])
        E, H, u, pp = np.split(x, ends)
        expected = {"E": L.E.extend(E), "H": H, "u": L.U.extend(u), "p": L.P.extend(pp)}
        for f, want in expected.items():
            have = getattr(got, f)
            assert np.linalg.norm(have - want) <= 1e-12 * np.linalg.norm(want), f


class TestExactElimination:
    """The monolithic step eliminates E exactly (see ``MonolithicScheme``)."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_gradients_are_exact_in_the_edge_space(self, n, config):
        """On the free DOFs, A_em D_f = (eps + tau sigma) G_ff, W_f D_f = 0 and D_f^T G_ff = K_P_ff
        to rounding, for the headline and a random admissible set, with D = gradient_operator."""
        mesh = build_unit_cube_mesh(n)
        L = make_layouts(mesh)
        D = reduce_matrix(gradient_operator(mesh), L.E, L.P)
        for p in (config.params, random_admissible_params(np.random.default_rng(70 + n))):
            disc = Discretization(mesh, p)
            assert abs(disc.W_f @ D).max() <= 1e-14 * abs(disc.W_f).max()
            assert abs(D.T @ disc.G_ff - disc.K_P_ff).max() <= 1e-14 * abs(disc.K_P_ff).max()
            for tau in (config.grid.tau, 0.1):
                A = disc.em_matrix(tau)
                diff = A @ D - (p.epsilon + tau * p.sigma) * disc.G_ff
                assert abs(diff).max() <= 1e-14 * abs(A).max()

    @pytest.mark.parametrize("n", [3, 4])
    def test_step_solves_the_three_block_system(self, n, config, params, sources):
        """A monolithic step equals the ``LuSolver`` solve of the 3-block (E, u, p) oracle, and
        its relative residual in that system is at most 1e-12, for the headline and a random
        admissible set; the lift is (tau L / (eps + tau sigma)) D_f."""
        mesh = build_unit_cube_mesh(n)
        for p in (params, random_admissible_params(np.random.default_rng(80 + n))):
            disc = Discretization(mesh, p)
            L, tau = disc.layouts, config.grid.tau
            engine = MonolithicScheme(disc, sources, replace(config, params=p))
            D = reduce_matrix(gradient_operator(mesh), L.E, L.P)
            assert abs(engine._lift - (tau * p.L / (p.epsilon + tau * p.sigma)) * D).max() <= (
                1e-15 * abs(engine._lift).max()
            )
            # em_matrix is pinned to the full curl formula by TestLiveSet
            C_p = p.c0 * disc.M_P_ff + tau * p.kappa * disc.K_P_ff
            K = monolithic_blocks(disc.em_matrix(tau), elasticity_ff(disc), disc.B_ff,
                                  tau * p.L * disc.G_ff, C_p)
            oracle = LuSolver(K, blocks(np.arange(K.shape[0])), tol=1e-12).factor()
            ends = np.cumsum([L.E.num_free, L.U.num_free])
            rng = np.random.default_rng(90 + n)
            for _ in range(3):
                state = replace(random_admissible_state(L, rng), t=rng.uniform(0.0, 0.1))
                rhs_E, f_u, f_p = np.split(history_oracle(engine, state), ends)
                b = np.concatenate([rhs_E, -f_u, f_p])
                want = np.split(oracle.solve(b)[0], ends)
                new = engine.step(state)
                have = [L.E.reduce(new.E), L.U.reduce(new.u), L.P.reduce(new.p)]
                for name, h, w in zip("Eup", have, want):
                    assert np.linalg.norm(h - w) <= 1e-12 * np.linalg.norm(w), name
                residual = np.linalg.norm(K @ np.concatenate(have) - b) / np.linalg.norm(b)
                assert residual <= 1e-12


def splitting_steps(n, config, sources, seed):
    """Steps of the splitting scheme at mesh size n from random admissible states, for the headline
    and two random admissible parameter sets: (params, discretization, history, old state, new)."""
    mesh = build_unit_cube_mesh(n)
    rng = np.random.default_rng(seed)
    for p in (config.params, *(random_admissible_params(rng) for _ in range(2))):
        disc = Discretization(mesh, p)
        engine = SplittingScheme(disc, sources, replace(config, params=p))
        for _ in range(3):
            state = replace(random_admissible_state(disc.layouts, rng), t=rng.uniform(0.0, 0.1))
            yield p, disc, engine.history(state), state, engine.step(state)


class TestSplittingIdentity:
    """The splitting step is the coupled step plus a pressure-increment term.

    With c = tau L/(eps + tau sigma), beta = tau L^2/(eps + tau sigma) = c L and y the EM solve
    without pressure coupling, A_em D_f = (eps + tau sigma) G_ff (``TestExactElimination``) gives
    the splitting E^n = y + c D_f p^{n-1}; and, as D_f^T G_ff = K_P_ff, its Biot step is the
    coupled one (kappa reduced by beta) with tau beta K_P (p^n - p^{n-1}) added to the p row.
    """

    @pytest.mark.parametrize("n", [3, 4])
    def test_splitting_E_is_the_pressure_free_solve_lifted_by_the_old_pressure(self, n, config, sources):
        """E^n = y + c D_f p^{n-1} within 10 spd_tol relative (the EM CG's tolerance), with y the
        direct solve of the EM matrix against the history's E part."""
        tau = config.grid.tau
        for p, disc, (rhs_E, _, _), state, new in splitting_steps(n, config, sources, 100 + n):
            L = disc.layouts
            D = reduce_matrix(gradient_operator(disc.mesh), L.E, L.P)
            y = spla.spsolve(disc.em_matrix(tau).tocsc(), rhs_E)
            want = y + (tau * p.L / (p.epsilon + tau * p.sigma)) * (D @ L.P.reduce(state.p))
            have = L.E.reduce(new.E)
            assert np.linalg.norm(have - want) <= 10 * config.spd_tol * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [3, 4])
    def test_splitting_biot_step_is_the_coupled_one_plus_a_pressure_increment(self, n, config, sources):
        """(u^n, p^n) solves [[A_el, -B^T], [B, C_beta]] (u, p) + (0, tau beta K_P (p - p^{n-1}))
        = (f_u, f_p + tau L G^T y), C_beta = c0 M_P + tau (kappa - beta) K_P, to a relative
        residual of at most 1e-12; y = E^n - c D_f p^{n-1} is the coupled step's E driver."""
        tau = config.grid.tau
        for p, disc, (_, f_u, f_p), state, new in splitting_steps(n, config, sources, 110 + n):
            L = disc.layouts
            D = reduce_matrix(gradient_operator(disc.mesh), L.E, L.P)
            c = tau * p.L / (p.epsilon + tau * p.sigma)
            beta = c * p.L
            C_beta = p.c0 * disc.M_P_ff + tau * (p.kappa - beta) * disc.K_P_ff
            E, u, p_new, p_old = L.E.reduce(new.E), L.U.reduce(new.u), L.P.reduce(new.p), L.P.reduce(state.p)
            rhs = np.concatenate([f_u, f_p + tau * p.L * (disc.G_ff.T @ (E - c * (D @ p_old)))])
            lhs = np.concatenate([
                elasticity_ff(disc) @ u - disc.B_ff.T @ p_new,
                disc.B_ff @ u + C_beta @ p_new + tau * beta * (disc.K_P_ff @ (p_new - p_old)),
            ])
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestHistory:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scheme", [SplittingScheme, MonolithicScheme], ids=lambda c: c.name)
    def test_history_matches_the_stacked_operator(self, scheme, n, config, params, sources):
        """The history terms of random admissible states equal the stacked product, part by part."""
        mesh = build_unit_cube_mesh(n)
        disc = Discretization(mesh, params)
        engine = scheme(disc, sources, config)
        ends = np.cumsum([disc.layouts.E.num_free, disc.layouts.U.num_free])
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            state = replace(random_admissible_state(disc.layouts, rng), t=rng.uniform(0.0, 0.1))
            got = engine.history(state)
            for have, want in zip(got, np.split(history_oracle(engine, state), ends)):
                assert np.linalg.norm(have - want) <= 1e-14 * np.linalg.norm(want)


class TestLuOrdering:
    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_mesh_order_reduces_lu_fill(self, scheme, config, params, sources):
        """Each nested-dissection factor of the n = 6 scheme stores fewer entries than plain splu
        of its matrix: the saddle, and in the monolithic scheme also the EM matrix.

        Every factor is an LDL^T, which stores L alone.
        """
        mesh = build_unit_cube_mesh(6)
        disc = Discretization(mesh, params)
        if scheme == "splitting":
            solvers = [SplittingScheme(disc, sources, config)._saddle]
        else:
            engine = MonolithicScheme(disc, sources, config)
            solvers = [engine._saddle, engine._em]
        for lu in solvers:
            assert isinstance(lu.lu, MultifrontalLdl) and lu.lu.U.nnz == 0
            plain = spla.splu(symmetric(lu.lower))
            assert lu.lu.L.nnz + lu.lu.U.nnz < plain.L.nnz + plain.U.nnz

    def test_monolithic_fill_depends_on_the_pattern_alone(self, config, mesh4):
        """The stored entries L.nnz + U.nnz of the n = 4 monolithic factors (saddle and EM) do not
        move with the values."""
        params = (config.params, random_admissible_params(np.random.default_rng(8)))
        assert params[0] != params[1]
        fills = []
        for p in params:
            engine = MonolithicScheme(Discretization(mesh4, p), Sources(), config)
            fills.append([lu.L.nnz + lu.U.nnz for lu in (engine._saddle.lu, engine._em.lu)])
        assert fills[0] == fills[1]

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_run_factors_once_before_the_loop(self, scheme, config, disc3, sources, exact, monkeypatch):
        """Each factor is built once per run, before the n = 0 observer call, and every step
        reuses it: the saddle, and in the monolithic scheme then the EM matrix."""
        built, in_loop = [], []

        class Counting(MultifrontalLdl):
            def __init__(self, *args):
                built.append(bool(in_loop))
                super().__init__(*args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Counting)
        run(small_config(config, 3, 0.1, 4, scheme=scheme), sources, exact, disc=disc3,
            observers=[lambda *_: in_loop.append(True)])
        assert built == [False] * FACTORS[scheme]

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_each_factorization_holds_its_matrix_once(self, scheme, config, params, mesh4, sources,
                                                      exact, monkeypatch):
        """When each of a run's LDL^Ts starts, the one sparse matrix of its shape alive is the T it
        factors: the scheme has dropped the K that T was taken from."""
        alive = []

        class Counting(MultifrontalLdl):
            def __init__(self, T, *args):
                gc.collect()
                alive.append([o is T for o in gc.get_objects() if sp.issparse(o) and o.shape == T.shape])
                super().__init__(T, *args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Counting)
        run(small_config(config, 4, 0.1, 1, scheme=scheme), sources, exact, mesh=mesh4)
        assert alive == [[True]] * FACTORS[scheme]

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_no_one_off_operator_is_alive_at_the_factorization(
        self, scheme, config, params, mesh4, sources, exact, monkeypatch
    ):
        """When each of a run's LDL^Ts starts, no sparse matrix has the shape of A_el_ff, B_div,
        M_U, M_P or the stacked history operator, nor, in the splitting scheme, of the EM matrix.
        (The monolithic scheme's second LDL^T factors the EM matrix.)"""
        L = make_layouts(mesh4)
        nE, nU, nP = L.E.num_free, L.U.num_free, L.P.num_free
        shapes = {
            "A_el_ff": (nU, nU),
            "B_div": (L.P.count, L.U.count),
            "M_U": (L.U.count, L.U.count),
            "M_P": (L.P.count, L.P.count),
            "history": (nE + nU + nP, L.E.count + L.H.count + L.U.count + L.P.count),
        }
        if scheme == "splitting":
            shapes["EM matrix"] = (nE, nE)
        alive = []

        class Counting(MultifrontalLdl):
            def __init__(self, *args):
                gc.collect()
                live = [o.shape for o in gc.get_objects() if sp.issparse(o)]
                alive.append(sorted(name for name, shape in shapes.items() if shape in live))
                super().__init__(*args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Counting)
        probe = SetupTableProbe(monkeypatch)
        disc = Discretization(mesh4, params)
        run(small_config(config, 4, 0.1, 1, scheme=scheme), sources, exact, disc=disc)
        assert alive == [[]] * FACTORS[scheme]
        assert probe.counts()["scatter"] == 2 and probe.alive() == []

    def test_discretization_releases_its_edge_patterns(self, params, mesh4, monkeypatch):
        """Right after construction, no edge-keyed CellPattern or its scatter is alive (only M_E
        reads it); the vertex pattern, the cell geometry (computed once, for the forms, m_H and
        W_f) and the Gram array stay in the tables for the setup after it."""
        probe = SetupTableProbe(monkeypatch)
        disc = Discretization(mesh4, params)
        V = mesh4.num_vertices
        assert probe.counts()["scatter"] == 2 and probe.counts()["geometry"] == 1
        assert probe.alive() == sorted(["geometry", "gram", str(("pattern", (V, V))), "scatter"])
        assert set(disc.setup_tables) == {(False, False), "geometry", "gram"}

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_setup_builds_each_table_once(self, scheme, config, sources, exact, monkeypatch):
        """From the mesh build up to the n = 0 observer call, a run builds one CellPattern per
        entity pair a form reads (E x E, V x V), one cell geometry (in the setup tables, none in
        the mesh build), one gradient Gram array, one load point table and one sin/cos table."""
        probe = SetupTableProbe(monkeypatch)
        mesh = build_unit_cube_mesh(4)
        assert probe.counts() == Counter()
        counts = []
        run(small_config(config, 4, 0.1, 2, scheme=scheme), sources, exact, mesh=mesh,
            observers=[lambda n, *_: counts.append(probe.counts()) if n == 0 else None])
        E, V = mesh.num_edges, mesh.num_vertices
        pairs = [("pattern", (E, E)), ("pattern", (V, V))]
        assert counts == [Counter({**dict.fromkeys(pairs, 1), "scatter": 2, "geometry": 1, "gram": 1,
                                   "points": 1, "sin/cos": 1})]

    @pytest.mark.parametrize(
        "site,runs",
        [("splitting", 1), ("monolithic", 1), ("temporal splitting", 3), ("temporal monolithic", 3)],
    )
    def test_no_setup_table_is_alive_when_an_ldlt_starts(
        self, site, runs, config, mesh4, sources, exact, monkeypatch
    ):
        """Every factorization site ends setup: when its LDL^T starts, no CellPattern, scatter,
        cell geometry (no (C, 4, 3) gradient array), Gram array, point table or sin/cos table is
        alive, though the setup built them. Each run factors its scheme's LDL^Ts; the temporal
        study makes three runs (the reference and two steps), with error norms between them."""
        probe = SetupTableProbe(monkeypatch)
        alive = []

        class Probing(MultifrontalLdl):
            def __init__(self, *args):
                alive.append(probe.alive())
                super().__init__(*args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Probing)
        if site.startswith("temporal"):
            cfg = replace(config, scheme=site.split()[1])
            temporal_convergence(4, (0.05, 0.025), cfg, 0.003125)
        else:
            run(small_config(config, 4, 0.1, 1, scheme=site), sources, exact, mesh=mesh4)
        assert probe.counts()["scatter"] >= 2 and probe.counts()["gram"] >= 1
        assert probe.counts()["geometry"] >= runs
        assert alive == [[]] * (runs * FACTORS[site.split()[-1]])

    def test_order_ends_setup(self, params, mesh2, monkeypatch):
        """``order`` leaves the setup tables empty, and nothing else holds them."""
        probe = SetupTableProbe(monkeypatch)
        disc = Discretization(mesh2, params)
        disc.form("U_MASS")
        disc.load("P", lambda t, pts: pts[:, 0], 0.0)
        assert disc.setup_tables and "points" in str(probe.alive())
        disc.order("U", "P")
        assert disc.setup_tables == {} and probe.alive() == []


class TestLiveSet:
    @pytest.mark.parametrize("n", [3, 4])
    def test_em_matrix_equals_the_full_curl_formula(self, n, config):
        """em_matrix(tau) is (eps + tau sigma) M_E + (tau^2 / mu) W^T M_H W on the free edges,
        with W the full curl of ``curl_dof_operator``, for headline and random admissible sets."""
        mesh = build_unit_cube_mesh(n)
        L = make_layouts(mesh)
        W = curl_dof_operator(mesh)
        for p in (config.params, random_admissible_params(np.random.default_rng(60 + n))):
            disc = Discretization(mesh, p)
            for tau in (config.grid.tau, 0.1):
                want = reduce_matrix(
                    (p.epsilon + tau * p.sigma) * full_operator(disc, "MASS_E")
                    + (tau**2 / p.mu) * (W.T @ sp.diags(disc.m_H) @ W),
                    L.E,
                    L.E,
                )
                got = disc.em_matrix(tau)
                assert got.shape == want.shape
                assert abs(got - want).max() <= 1e-15 * abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_em_matrix_is_the_scipy_sum(self, n, config):
        """em_matrix(tau) equals scipy's sum of its two scaled terms bit for bit (pattern, order and
        values), for headline and random admissible sets: the golden runs pin the CG iterate."""
        mesh = build_unit_cube_mesh(n)
        for p in (config.params, random_admissible_params(np.random.default_rng(70 + n))):
            disc = Discretization(mesh, p)
            for tau in (config.grid.tau, 0.1):
                want = scipy_em_matrix(disc, tau)
                got = disc.em_matrix(tau)
                for attr in ("indptr", "indices", "data"):
                    a, b = getattr(got, attr), getattr(want, attr)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_setup_end_keeps_the_free_curl_and_no_geometry(self, scheme, config, sources, exact,
                                                           monkeypatch):
        """After ``make_scheme`` no sparse matrix has the full curl's shape (3C, E), the held curl
        W_f is its free columns, and no cell geometry is alive. Error norms then compute each
        cell's geometry exactly once, block by block (the block sizes sum to C), and read the same
        norms, bit for bit, as on a mesh that no run has set up."""
        n = 5
        cfg = small_config(config, n, 0.01, 4, scheme=scheme)
        mesh = build_unit_cube_mesh(n)
        fresh = build_unit_cube_mesh(n)
        L = make_layouts(mesh)
        probe = SetupTableProbe(monkeypatch)
        disc = Discretization(mesh, cfg.params)
        state = initial_state(disc, exact)
        engine = epe.schemes.make_scheme(disc, sources, cfg)
        gc.collect()
        live = [o.shape for o in gc.get_objects() if sp.issparse(o)]
        assert (3 * mesh.num_cells, mesh.num_edges) not in live
        assert probe.counts()["geometry"] == 1 and probe.alive() == []
        assert disc.W_f.shape == (3 * mesh.num_cells, L.E.num_free)
        assert (disc.W_f != curl_dof_operator(fresh)[:, L.E.free]).nnz == 0
        for _ in range(cfg.grid.N):
            state = engine.step(state)

        blocks = []
        geometry = epe.mesh.TetMesh.cell_geometry

        def counting(self, cells=slice(None)):
            blocks.append(len(self.cells[cells]))
            return geometry(self, cells)

        monkeypatch.setattr(epe.mesh.TetMesh, "cell_geometry", counting)
        got = error_norms(state, exact, cfg.grid.T, mesh, cfg.quad_error).as_dict()
        assert sum(blocks) == mesh.num_cells and max(blocks) == ERROR_BLOCK_CELLS
        assert got == error_norms(state, exact, cfg.grid.T, fresh, cfg.quad_error).as_dict()


class TestAdmissibleLimits:
    def test_log_uniform_admissible_sets_run_or_report_their_residual(self, config, mesh4):
        """Admissible sets drawn log-uniformly toward the low-storage, low-permeability Biot limit
        either run at n = 4, both schemes, or raise NotConverged with a residual above tolerance.

        c0 and kappa span 1e-10..1e-4, the other constants 1e-2..1e2, and L / sqrt(sigma kappa)
        1e-4..0.999. There the pressure block is nearly zero and a first direct solve can miss
        saddle_tol (``test_low_storage_saddle_solves_are_refined`` covers the refinement).
        """
        rng = np.random.default_rng(40)
        for _ in range(10):
            values = dict(zip(PARAM_NAMES, 10.0 ** rng.uniform(-2, 2, len(PARAM_NAMES))))
            values["c0"], values["kappa"] = 10.0 ** rng.uniform(-10, -4, 2)
            ratio = 10.0 ** rng.uniform(-4, np.log10(0.999))
            values["L"] = ratio * np.sqrt(values["sigma"] * values["kappa"])
            params = validate_params(**values)
            exact = example61(params)
            sources = Sources(j=exact.j, f=exact.f, g=exact.g)
            for scheme in ("splitting", "monolithic"):
                cfg = small_config(config, 4, 0.01, 4, scheme=scheme, params=params)
                try:
                    state = run(cfg, sources, exact, mesh=mesh4).state
                except NotConverged as exc:
                    assert np.isfinite(exc.residual) and exc.residual > min(cfg.spd_tol, cfg.saddle_tol)
                else:
                    assert all(np.all(np.isfinite(getattr(state, f))) for f in "EHup")

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_low_storage_saddle_solves_are_refined(self, scheme, config, monkeypatch):
        """The low-storage, low-permeability set c0 = kappa = 1e-8, L = 1e-5 runs at n = 8, and
        its saddle solves include some whose first residual misses saddle_tol and which
        refinement brings within it."""
        reports = []

        def recording(solver, rhs):
            x, report = solve(solver, rhs)
            reports.append(report)
            return x, report

        solve = SaddleSolver.solve
        monkeypatch.setattr(SaddleSolver, "solve", recording)
        values = {name: getattr(config.params, name) for name in PARAM_NAMES}
        params = validate_params(**{**values, "c0": 1e-8, "kappa": 1e-8, "L": 1e-5})
        exact = example61(params)
        cfg = replace(config, mesh_n=8, scheme=scheme, params=params)
        run(cfg, Sources(j=exact.j, f=exact.f, g=exact.g), exact)
        assert len(reports) == cfg.grid.N
        assert max(r.iterations for r in reports) >= 1
        assert max(r.relative_residual for r in reports) <= cfg.saddle_tol


def energy_observer(config, disc, energies):
    """A ``run()`` observer that appends the discrete energy of every step to ``energies``,
    with one ``BhOperator`` of ``disc``."""
    bh = BhOperator(disc)
    return lambda n, t, state, _, wall: energies.append(
        discrete_energy(state, config.params, config.grid.tau, disc, bh)
    )


class TestEnergy:
    def test_zero_state_zero_energy(self, disc2, params):
        bh = BhOperator(disc2)
        assert discrete_energy(zero_state(disc2.layouts), params, 0.01, disc2, bh) == 0.0

    def test_lower_bound_by_component_terms(self, disc2, params):
        bh = BhOperator(disc2)
        M_P = full_operator(disc2, "P_MASS")
        rng = np.random.default_rng(30)
        for _ in range(10):
            s = random_admissible_state(disc2.layouts, rng)
            S = discrete_energy(s, params, 0.01, disc2, bh)
            floor = params.c0 * s.p @ (M_P @ s.p) + params.epsilon * s.E @ (
                disc2.M_E @ s.E
            )
            assert S >= floor - 1e-12 * abs(S)

    def test_equals_the_full_matrix_formula(self, disc3, params):
        """The free-block energy equals eps E.M_E E + mu H.M_H H + c0 p.M_P p + (Bh p, p)
        + tau kappa p.K_P p with the full matrices, assembled here."""
        bh = BhOperator(disc3)
        M_E, M_H = full_operator(disc3, "MASS_E"), sp.diags(disc3.m_H)
        M_P, K_P = full_operator(disc3, "P_MASS"), full_operator(disc3, "P_STIFF")
        rng = np.random.default_rng(32)
        for tau in (0.01, 1.0):
            s = equilibrium_state(disc3, rng)
            want = (
                params.epsilon * s.E @ (M_E @ s.E)
                + params.mu * s.H @ (M_H @ s.H)
                + params.c0 * s.p @ (M_P @ s.p)
                + bh.inner(s.p, s.p)
                + tau * params.kappa * s.p @ (K_P @ s.p)
            )
            assert discrete_energy(s, params, tau, disc3, bh) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_monotone_under_zero_forcing(self, config, disc2):
        rng = np.random.default_rng(31)
        s0 = random_admissible_state(disc2.layouts, rng)
        cfg = small_config(config, 2, 1.0, 100)
        energies = []
        run(cfg, Sources(), None, disc=disc2, start_state=s0,
            observers=[energy_observer(cfg, disc2, energies)])
        trace = np.array(energies)
        assert trace.shape == (101,)
        assert np.all(trace >= 0.0)
        assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12))

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_monotone_for_random_admissible_parameters(self, scheme, config, mesh3):
        """Energy stability as a property: the headline parameter set, then 20 random
        sets with 0 < L < sqrt(sigma kappa).

        n = 3, where the pressure-to-dilation coupling is nonzero, so u and
        the Bh term enter the energy; every run starts in mechanical equilibrium.
        """
        cfg = small_config(config, 3, 0.25, 25)

        def check(params, rng):
            disc = Discretization(mesh3, params)
            run_cfg = replace(cfg, params=params, scheme=scheme)
            energies = []
            run(
                run_cfg, Sources(), None, disc=disc, start_state=equilibrium_state(disc, rng),
                observers=[energy_observer(run_cfg, disc, energies)],
            )
            trace = np.array(energies)
            assert trace.shape == (26,)
            assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12)), (params, trace)

        check(config.params, np.random.default_rng(1234))
        rng = np.random.default_rng(7)
        for _ in range(20):
            check(random_admissible_params(rng), rng)


class TestSourceLoads:
    @pytest.mark.parametrize("n", [2, 4])
    def test_separable_load_matches_quadrature(self, n, params, exact):
        mesh = build_unit_cube_mesh(n)
        disc = Discretization(mesh, params)
        for space, name in (("E", "j"), ("U", "f"), ("P", "g")):
            src = getattr(exact, name)
            layout = getattr(disc.layouts, space)
            for t in (0.0, 0.037, 0.1):
                got = disc.load(space, src, t)
                ref = assemble_load(mesh, layout, lambda t, x: src(t, x), t)
                scale = np.abs(ref).max()
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_quadrature_calls_inside_the_loop(self, scheme, config, params, exact, monkeypatch):
        """Separable sources need no quadrature per step, plain callables need three and absent
        ones none: a run without forcing leaves the setup tables empty, no cell geometry alive."""
        probe = SetupTableProbe(monkeypatch)
        calls = []
        in_loop = []

        def counting(*args, **kwargs):
            calls.append(bool(in_loop))
            return assemble_load(*args, **kwargs)

        monkeypatch.setattr(epe.schemes, "assemble_load", counting)
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, params)
        cfg = small_config(config, 2, 0.1, 4, scheme=scheme)
        plain = Sources(
            j=lambda t, x: exact.j(t, x),
            f=lambda t, x: exact.f(t, x),
            g=lambda t, x: exact.g(t, x),
        )
        for sources, per_step in ((Sources(j=exact.j, f=exact.f, g=exact.g), 0), (plain, 3),
                                  (Sources(), 0)):
            calls.clear()
            in_loop.clear()
            run(cfg, sources, exact, disc=disc,
                observers=[lambda *_: in_loop.append(True)])
            assert sum(calls) == per_step * cfg.grid.N
        assert disc.setup_tables == {} and probe.alive() == []


class TestWarmStart:
    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_started_solves_take_one_sweep_on_float32_factors(self, scheme, config, sources, exact,
                                                              mesh4, monkeypatch):
        """With every factor in float32, each direct solve after the first ``START_SOLUTIONS``
        steps starts from a combination of its earlier solutions and meets ``saddle_tol`` in one
        sweep, where a cold solve takes two. The final state lies within 1e-9 relative of the
        same run with every start dropped."""
        monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", 0)
        cfg = small_config(config, 4, 0.025, 10, scheme=scheme)
        sweeps, solves, step, started = [0], [], [0], [False]
        lu_solve, solve, refined = MultifrontalLdl.solve, LuSolver.solve, LuSolver._refined

        def counting(lu, b):
            sweeps[0] += 1
            return lu_solve(lu, b)

        def recording(solver, rhs):
            before = sweeps[0]
            x, rep = solve(solver, rhs)
            solves.append((step[0], started[0], sweeps[0] - before, rep))
            return x, rep

        def starting(solver, b, bnorm, y0=None):
            started[0] = y0 is not None
            return refined(solver, b, bnorm, y0)

        def cold(solver, b, bnorm, y0=None):
            return starting(solver, b, bnorm)

        monkeypatch.setattr(MultifrontalLdl, "solve", counting)
        monkeypatch.setattr(LuSolver, "solve", recording)
        monkeypatch.setattr(SaddleSolver, "solve", recording)
        states = {}
        for name, wrapper in (("cold", cold), ("started", starting)):
            solves.clear()
            monkeypatch.setattr(LuSolver, "_refined", wrapper)
            states[name] = run(cfg, sources, exact, mesh=mesh4,
                               observers=[lambda n, *_: step.__setitem__(0, n + 1)]).state
            assert len(solves) == FACTORS[scheme] * cfg.grid.N
            assert all(rep.relative_residual <= cfg.saddle_tol for *_, rep in solves)
            assert all(rep.iterations == count - 1 for *_, count, rep in solves)
            if name == "cold":
                assert all(count == 2 for *_, count, _ in solves)
        assert [started for _, started, *_ in solves] == [n > START_SOLUTIONS for n, *_ in solves]
        assert [count for _, started, count, _ in solves if started] == [1] * (
            FACTORS[scheme] * (cfg.grid.N - START_SOLUTIONS)
        )
        for field in ("E", "H", "u", "p"):
            got, want = getattr(states["started"], field), getattr(states["cold"], field)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), field


class TestRun:
    def test_superposition_of_sources(self, config, params, exact):
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, params)
        cfg = small_config(config, 2, 0.1, 5)
        shift = example61(params)
        j2 = lambda t, x: np.cos(3 * x[:, 1])[:, None] * np.ones(3) * np.sin(t + 0.2)
        g2 = lambda t, x: np.sin(2 * x[:, 0] + x[:, 2]) * np.cos(t)
        s1 = Sources(j=exact.j, f=exact.f, g=exact.g)
        s2 = Sources(j=j2, f=shift.f, g=g2)
        s12 = Sources(
            j=lambda t, x: s1.j(t, x) + s2.j(t, x),
            f=lambda t, x: s1.f(t, x) + s2.f(t, x),
            g=lambda t, x: s1.g(t, x) + s2.g(t, x),
        )
        z = zero_state(disc.layouts)
        r1 = run(cfg, s1, None, disc=disc, start_state=z)
        r2 = run(cfg, s2, None, disc=disc, start_state=z)
        r12 = run(cfg, s12, None, disc=disc, start_state=z)
        for f in ("E", "H", "u", "p"):
            lhs = getattr(r1.state, f) + getattr(r2.state, f)
            rhs = getattr(r12.state, f)
            denom = max(np.linalg.norm(rhs), 1e-12)
            assert np.linalg.norm(lhs - rhs) / denom <= 10 * cfg.spd_tol

    def test_observer_sequence_and_timings(self, config, disc2, sources, exact):
        cfg = small_config(config, 2, 0.1, 4)
        calls = []
        res = run(cfg, sources, exact, observers=[lambda n, t, s, e, w: calls.append((n, t))],
                  disc=disc2)
        assert [c[0] for c in calls] == [0, 1, 2, 3, 4]
        assert calls[-1][1] == pytest.approx(0.1, abs=1e-12)
        assert res.state.n == 4 and res.state.t == calls[-1][1]
        t = res.timings
        assert t.total >= t.loop > 0.0
        assert t.total >= t.assemble + t.factorize + t.initial + t.loop - 1e-9

    def test_per_step_cost_stays_flat_after_factorization(
        self, config, sources, exact, params, monkeypatch
    ):
        """Each of 100 steps makes the same solve calls, and none factors or assembles.

        A splitting step solves once with ``SpdSolver`` and once with
        ``SaddleSolver``, a monolithic step once with ``LuSolver`` (the EM
        matrix) and once with ``SaddleSolver``; no step
        builds a ``MultifrontalLdl`` or calls ``assemble_matrix`` or
        ``assemble_load`` (the sources are separable). Calls are counted, not
        timed, so a scheduler hiccup cannot fail the test.
        """
        step = [0]
        calls = defaultdict(Counter)

        def counting(owner, attr):
            original = getattr(owner, attr)
            name = f"{owner.__name__.rpartition('.')[2]}.{attr}"

            def wrapper(*args, **kwargs):
                calls[step[0]][name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for owner in (epe.linalg.SpdSolver, epe.linalg.SaddleSolver, epe.linalg.LuSolver):
            counting(owner, "solve")
        counting(epe.linalg, "MultifrontalLdl")
        counting(epe.schemes, "assemble_matrix")
        counting(epe.schemes, "assemble_load")
        mesh = build_unit_cube_mesh(8)
        disc = Discretization(mesh, params)
        expected = {
            "splitting": Counter({"SpdSolver.solve": 1, "SaddleSolver.solve": 1}),
            "monolithic": Counter({"LuSolver.solve": 1, "SaddleSolver.solve": 1}),
        }
        for scheme, per_step in expected.items():
            calls.clear()
            step[0] = 0
            run(small_config(config, 8, 0.1, 100, scheme=scheme), sources, exact, disc=disc,
                observers=[lambda n, *_: step.__setitem__(0, n + 1)])
            assert [calls[n] for n in range(1, 101)] == [per_step] * 100, scheme
            # the wrappers see the setup
            assert calls[0]["linalg.MultifrontalLdl"] == FACTORS[scheme], scheme

    def test_doubling_steps_roughly_doubles_loop_time(self, config, sources, exact, params):
        mesh = build_unit_cube_mesh(8)
        disc = Discretization(mesh, params)
        loop = {20: [], 40: []}
        for _ in range(3):  # each length's fastest of three alternating runs
            for N, times in loop.items():
                times.append(run(small_config(config, 8, 0.1, N), sources, exact, disc=disc).timings.loop)
        assert 1.0 <= min(loop[40]) / min(loop[20]) <= 3.0
