import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import replace

import epe.linalg
import epe.schemes
from conftest import cellwise_curl, zero_state
from epe.core import PARAM_NAMES, make_time_grid, validate_params
from epe.fem.assembly import assemble_load
from epe.fem.dofs import make_layouts
from epe.linalg import LuSolver, MultifrontalLdl
from epe.mesh import build_unit_cube_mesh
from epe.mms import example61
from epe.schemes import (
    BhOperator,
    Discretization,
    MonolithicScheme,
    Sources,
    SplittingScheme,
    State,
    discrete_energy,
    initial_state,
    run,
)


def curl_coupling(disc):
    """C = M_H W restricted to free E columns: the (curl E, H) coupling with H kept."""
    return (disc.M_H @ disc.W[:, disc.layouts.E.free]).tocsr()


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
    u_free, _ = LuSolver(disc.A_el_ff).solve(disc.B_ff.T @ p_free)
    state = random_admissible_state(L, rng)
    return replace(state, u=L.U.extend(u_free), p=L.P.extend(p_free))


def bh_apply(disc, p_full):
    """Oracle for Bh by dense solves: the P coefficients of the L2 representative of alpha div u."""
    L = disc.layouts.P
    u = np.linalg.solve(disc.A_el_ff.toarray(), disc.B_ff.T @ L.reduce(p_full))
    return L.extend(np.linalg.solve(disc.M_P_ff.toarray(), disc.B_ff @ u))


def random_admissible_params(rng):
    """Constants log-uniform in [e^-1.5, e^1.5], and L = r sqrt(sigma kappa) with r < 0.999."""
    values = dict(zip(PARAM_NAMES, np.exp(rng.uniform(-1.5, 1.5, len(PARAM_NAMES)))))
    values["L"] = rng.uniform(0.0, 0.999) * np.sqrt(values["sigma"] * values["kappa"])
    return validate_params(**values)


class UncondensedSplitting(SplittingScheme):
    """Oracle: sub-step A solves the 2-block (E, H) system directly, H not eliminated.

    The H rows and their right-hand side are negated, so the system
    [[A0, -tau C^T], [-tau C, -mu M_H]] is symmetric quasi-definite.
    """

    def __init__(self, disc, tau, sources, spd_tol=1e-10, saddle_tol=1e-9):
        super().__init__(disc, tau, sources, spd_tol=spd_tol, saddle_tol=saddle_tol)
        p = disc.params
        A0 = (p.epsilon + tau * p.sigma) * disc.M_E_ff
        C_f = curl_coupling(disc)
        K = sp.bmat([[A0, -tau * C_f.T], [-tau * C_f, -p.mu * disc.M_H]], format="csc")
        self._em_block = LuSolver(K, tol=spd_tol * 10)

    def step(self, state):
        disc, p, tau = self.disc, self.disc.params, self.tau
        L = disc.layouts
        t_new = state.t + tau
        rhs = p.epsilon * (disc.M_E @ state.E)
        rhs += tau * p.L * (disc.G_pe @ state.p)
        rhs += tau * disc.load("E", self.sources.j, t_new)
        x, _ = self._em_block.solve(np.concatenate([rhs[L.E.free], -p.mu * (disc.M_H @ state.H)]))
        E_new = L.E.extend(x[: L.E.num_free])

        f_u = disc.load("U", self.sources.f, t_new)[L.U.free]
        f_p = (p.c0 * (disc.M_P @ state.p) + disc.B_div @ state.u)[L.P.free]
        f_p += tau * p.L * (disc.G_pe.T @ E_new)[L.P.free]
        f_p += tau * disc.load("P", self.sources.g, t_new)[L.P.free]
        (u_free, p_free), _ = self._saddle.solve(f_u, f_p)
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
            disc = Discretization(mesh, make_layouts(mesh), params)
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
        M = disc.M_P
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
        lhs = q @ (disc3.M_P @ bh_apply(disc3, p))
        assert lhs == pytest.approx(bh.inner(p, q), rel=1e-8, abs=1e-12)


def small_config(config, n, T, N, **changes):
    return replace(config, mesh_n=n, grid=make_time_grid(T, N), **changes)


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

    def test_condensed_equals_uncondensed(self, config, disc2, sources, exact):
        cfg = small_config(config, 2, 0.1, 10)
        ra = run(cfg, sources, exact, disc=disc2)
        oracle = UncondensedSplitting(
            disc2, cfg.grid.tau, sources, spd_tol=cfg.spd_tol, saddle_tol=cfg.saddle_tol
        )
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
        # the distance between splitting and monolithic solutions halves with tau
        mesh = build_unit_cube_mesh(4)
        disc = Discretization(mesh, make_layouts(mesh), params)
        gaps = []
        for N in (10, 20):
            cfg = small_config(config, 4, 0.1, N)
            rs = run(cfg, sources, exact, disc=disc)
            rm = run(replace(cfg, scheme="monolithic"), sources, exact, disc=disc)
            d = rs.state.E - rm.state.E
            gaps.append(float(np.sqrt(d @ (disc.M_E @ d))))
        order = np.log2(gaps[0] / gaps[1])
        assert 0.7 <= order <= 1.3, (gaps, order)

    def test_decoupled_schemes_agree_stepwise(self, config):
        params0 = validate_params(
            allow_decoupled=True,
            epsilon=1, mu=1, sigma=2, L=0.0, lambda_c=2, G=1, alpha=1, c0=1, kappa=2,
        )
        exact0 = example61(params0)
        sources0 = Sources(j=exact0.j, f=exact0.f, g=exact0.g)
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, make_layouts(mesh), params0)
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
        """With L = 0.999 sqrt(sigma kappa) the symmetric system factors and steps within saddle_tol."""
        values = {name: getattr(config.params, name) for name in PARAM_NAMES}
        values["L"] = 0.999 * np.sqrt(values["sigma"] * values["kappa"])
        disc = Discretization(mesh3, make_layouts(mesh3), validate_params(**values))
        scheme = MonolithicScheme(disc, tau, Sources(), saddle_tol=config.saddle_tol)
        rng = np.random.default_rng(42)
        _, report = scheme._lu.solve(rng.standard_normal(scheme._lu.K.shape[0]))
        assert report.relative_residual <= config.saddle_tol
        state = random_admissible_state(disc.layouts, rng)
        for _ in range(3):
            state = scheme.step(state)  # raises if a solve misses saddle_tol
        assert all(np.all(np.isfinite(getattr(state, f))) for f in ("E", "H", "u", "p"))

    def test_condensed_step_matches_four_block_system(self, config, disc2, sources):
        """Oracle: one step of the coupled (E, H, u, p) system, H kept as an unknown."""
        tau, p, L = config.grid.tau, disc2.params, disc2.layouts
        state = random_admissible_state(L, np.random.default_rng(40))
        got = MonolithicScheme(disc2, tau, sources).step(state)

        fE, fP = L.E.free, L.P.free
        Gpe_f = disc2.G_pe.tocsr()[fE][:, fP]
        C_p = p.c0 * disc2.M_P_ff + tau * p.kappa * disc2.K_P_ff
        C_f = curl_coupling(disc2)
        K = sp.bmat(
            [
                [(p.epsilon + tau * p.sigma) * disc2.M_E_ff, -tau * C_f.T, None,
                 -tau * p.L * Gpe_f],
                [tau * C_f, p.mu * disc2.M_H, None, None],
                [None, None, disc2.A_el_ff, -disc2.B_ff.T],
                [-tau * p.L * Gpe_f.T, None, disc2.B_ff, C_p],
            ],
            format="csc",
        )
        t = state.t + tau
        rhs = np.concatenate(
            [
                (p.epsilon * (disc2.M_E @ state.E) + tau * disc2.load("E", sources.j, t))[fE],
                p.mu * (disc2.M_H @ state.H),
                disc2.load("U", sources.f, t)[L.U.free],
                (p.c0 * (disc2.M_P @ state.p) + disc2.B_div @ state.u)[fP]
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

class TestLuOrdering:
    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_mesh_order_reduces_lu_fill(self, scheme, config, params, sources):
        """The nested-dissection factor of the n = 6 scheme matrix stores fewer entries than plain splu.

        Both schemes' symmetric matrices get an LDL^T, which stores L alone.
        """
        mesh = build_unit_cube_mesh(6)
        disc = Discretization(mesh, make_layouts(mesh), params)
        if scheme == "splitting":
            lu = SplittingScheme(disc, config.grid.tau, sources)._saddle._lu
        else:
            lu = MonolithicScheme(disc, config.grid.tau, sources)._lu
        assert isinstance(lu.lu, MultifrontalLdl) and lu.lu.U.nnz == 0
        plain = spla.splu(lu.K)
        assert lu.lu.L.nnz + lu.lu.U.nnz < plain.L.nnz + plain.U.nnz

    def test_monolithic_fill_depends_on_the_pattern_alone(self, config, mesh4):
        """The stored entries L.nnz + U.nnz of the n = 4 monolithic factor do not move with the values."""
        layouts = make_layouts(mesh4)
        params = (config.params, random_admissible_params(np.random.default_rng(8)))
        assert params[0] != params[1]
        fills = []
        for p in params:
            lu = MonolithicScheme(Discretization(mesh4, layouts, p), config.grid.tau, Sources())._lu.lu
            fills.append(lu.L.nnz + lu.U.nnz)
        assert fills[0] == fills[1]

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_run_factors_once_before_the_loop(self, scheme, config, disc3, sources, exact, monkeypatch):
        """One LDL^T per run, built before the n = 0 observer call; every step reuses it."""
        built, in_loop = [], []

        class Counting(MultifrontalLdl):
            def __init__(self, *args):
                built.append(bool(in_loop))
                super().__init__(*args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Counting)
        run(small_config(config, 3, 0.1, 4, scheme=scheme), sources, exact, disc=disc3,
            observers=[lambda *_: in_loop.append(True)])
        assert built == [False]


class TestEnergy:
    def test_zero_state_zero_energy(self, disc2, params):
        bh = BhOperator(disc2)
        assert discrete_energy(zero_state(disc2.layouts), params, 0.01, disc2, bh) == 0.0

    def test_lower_bound_by_component_terms(self, disc2, params):
        bh = BhOperator(disc2)
        rng = np.random.default_rng(30)
        for _ in range(10):
            s = random_admissible_state(disc2.layouts, rng)
            S = discrete_energy(s, params, 0.01, disc2, bh)
            floor = params.c0 * s.p @ (disc2.M_P @ s.p) + params.epsilon * s.E @ (
                disc2.M_E @ s.E
            )
            assert S >= floor - 1e-12 * abs(S)

    def test_monotone_under_zero_forcing(self, config, disc2):
        rng = np.random.default_rng(31)
        s0 = random_admissible_state(disc2.layouts, rng)
        cfg = small_config(config, 2, 1.0, 100)
        res = run(cfg, Sources(), None, disc=disc2, start_state=s0, track_energy=True)
        trace = res.energy_trace
        assert trace.shape == (101,)
        assert np.all(trace >= 0.0)
        assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12))

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_monotone_for_random_admissible_parameters(self, scheme, config, mesh3):
        """Energy stability as a property: 20 random parameter sets with 0 < L < sqrt(sigma kappa).

        n = 3, where the pressure-to-dilation coupling is nonzero, so u and
        the Bh term enter the energy; every run starts in mechanical equilibrium.
        """
        rng = np.random.default_rng(7)
        layouts = make_layouts(mesh3)
        cfg = small_config(config, 3, 0.25, 25)
        for _ in range(20):
            params = random_admissible_params(rng)
            disc = Discretization(mesh3, layouts, params)
            res = run(
                replace(cfg, params=params, scheme=scheme), Sources(), None, disc=disc,
                start_state=equilibrium_state(disc, rng), track_energy=True,
            )
            trace = res.energy_trace
            assert trace.shape == (26,)
            assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12)), (params, trace)


class TestSourceLoads:
    @pytest.mark.parametrize("n", [2, 4])
    def test_separable_load_matches_quadrature(self, n, params, exact):
        mesh = build_unit_cube_mesh(n)
        disc = Discretization(mesh, make_layouts(mesh), params)
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
        """Separable sources need no quadrature per step; plain callables need three."""
        calls = []
        in_loop = []

        def counting(*args, **kwargs):
            calls.append(bool(in_loop))
            return assemble_load(*args, **kwargs)

        monkeypatch.setattr(epe.schemes, "assemble_load", counting)
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, make_layouts(mesh), params)
        cfg = small_config(config, 2, 0.1, 4, scheme=scheme)
        plain = Sources(
            j=lambda t, x: exact.j(t, x),
            f=lambda t, x: exact.f(t, x),
            g=lambda t, x: exact.g(t, x),
        )
        for sources, per_step in ((Sources(j=exact.j, f=exact.f, g=exact.g), 0), (plain, 3)):
            calls.clear()
            in_loop.clear()
            run(cfg, sources, exact, disc=disc,
                observers=[lambda *_: in_loop.append(True)])
            assert sum(calls) == per_step * cfg.grid.N


class TestRun:
    def test_superposition_of_sources(self, config, params, exact):
        mesh = build_unit_cube_mesh(2)
        disc = Discretization(mesh, make_layouts(mesh), params)
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
        assert len(res.steps) == 5
        t = res.timings
        assert t.total >= t.loop > 0.0
        assert t.total >= t.assemble + t.factorize + t.initial + t.loop - 1e-9

    def test_per_step_cost_stays_flat_after_factorization(self, config, sources, exact, params):
        """The 90th percentile of 100 steps stays under twice their median step.

        A step takes a few milliseconds, about one scheduler quantum, so the
        slowest step measures preemption; the 90th percentile only moves
        when more than 10 of the steps are slow, as when a step
        refactorizes every few steps.
        """
        mesh = build_unit_cube_mesh(8)
        disc = Discretization(mesh, make_layouts(mesh), params)
        cfg = small_config(config, 8, 0.1, 100)
        res = run(cfg, sources, exact, disc=disc)
        walls = np.array([s.wall_time for s in res.steps[1:]])
        assert np.quantile(walls, 0.9) < 2.0 * np.median(walls), walls

    def test_doubling_steps_roughly_doubles_loop_time(self, config, sources, exact, params):
        mesh = build_unit_cube_mesh(8)
        disc = Discretization(mesh, make_layouts(mesh), params)
        t20 = run(small_config(config, 8, 0.1, 20), sources, exact, disc=disc).timings.loop
        t40 = run(small_config(config, 8, 0.1, 40), sources, exact, disc=disc).timings.loop
        assert 1.0 <= t40 / t20 <= 3.0
