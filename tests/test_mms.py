"""Validation of the manufactured solution against independent oracles.

Two oracles check the derived sources: a symbolic one (sympy re-derivation
of the strong-form residuals from independently typed field formulas) and
the finite-difference one mandated for acceptance (composed central first
differences with step 1e-5).
"""

import numpy as np
import pytest
import sympy as sym

import epe.mms
from conftest import zero_state
from epe.core import PhysicalParams
from epe.mms import error_norms, example61
from epe.fem.dofs import make_layouts
from epe.mesh import build_unit_cube_mesh
from epe.schemes import State

FD_STEP = 1e-5


def fd_t(F, t, x):
    return (F(t + FD_STEP, x) - F(t - FD_STEP, x)) / (2 * FD_STEP)


def fd_x(F, t, x, d):
    xp, xm = x.copy(), x.copy()
    xp[:, d] += FD_STEP
    xm[:, d] -= FD_STEP
    return (F(t, xp) - F(t, xm)) / (2 * FD_STEP)


def fd_grad(F, t, x):
    return np.stack([fd_x(F, t, x, d) for d in range(3)], axis=1)


def fd_div(F, t, x):
    return sum(fd_x(F, t, x, d)[:, d] for d in range(3))


def fd_curl(F, t, x):
    J = np.stack([fd_x(F, t, x, c) for c in range(3)], axis=2)
    return np.stack(
        [J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0], J[:, 1, 0] - J[:, 0, 1]], axis=1
    )


def fd_laplacian_scalar(F, t, x):
    return fd_div(lambda tt, xx: fd_grad(F, tt, xx), t, x)


def fd_laplacian_vec(F, t, x):
    return np.stack(
        [fd_laplacian_scalar(lambda tt, xx, r=r: F(tt, xx)[:, r], t, x) for r in range(3)], axis=1
    )


def strong_residuals(ex, p, t, x):
    """Max-norm residuals of the four strong equations at (t, x) batch."""
    r1 = (
        p.epsilon * fd_t(ex.E, t, x)
        + p.sigma * ex.E(t, x)
        - fd_curl(ex.H, t, x)
        - p.L * fd_grad(ex.p, t, x)
        - ex.j(t, x)
    )
    r2 = p.mu * fd_t(ex.H, t, x) + fd_curl(ex.E, t, x)
    r3 = (
        -p.lambda_c * fd_grad(lambda tt, xx: fd_div(ex.u, tt, xx), t, x)
        - p.G * fd_laplacian_vec(ex.u, t, x)
        + p.alpha * fd_grad(ex.p, t, x)
        - ex.f(t, x)
    )
    r4 = (
        p.c0 * fd_t(ex.p, t, x)
        + p.alpha * fd_div(lambda tt, xx: fd_t(ex.u, tt, xx), t, x)
        - p.kappa * fd_laplacian_scalar(ex.p, t, x)
        + p.L * fd_div(ex.E, t, x)
        - ex.g(t, x)
    )
    return [float(np.abs(r).max()) for r in (r1, r2, r3, r4)]


@pytest.fixture(scope="module")
def exact(params):
    return example61(params)


class TestFiniteDifferenceOracle:
    def test_strong_form_residuals(self, exact, params):
        rng = np.random.default_rng(42)
        worst = np.zeros(4)
        for _ in range(4):
            t = float(rng.uniform(0.01, 0.15))
            x = rng.uniform(0.05, 0.95, size=(50, 3))
            worst = np.maximum(worst, strong_residuals(exact, params, t, x))
        assert np.all(worst <= 1e-5), worst


class TestSymbolicOracle:
    def test_sources_and_induction_identity(self, params):
        """Re-derive j, f, g symbolically from independently typed fields."""
        t, x, y, z = sym.symbols("t x y z", real=True)
        pi = sym.pi
        w = sym.sin(pi * x) * sym.sin(pi * y) * sym.sin(pi * z)
        E = sym.Matrix([w, w, w]) * sym.sin(t)
        H = (
            sym.Matrix(
                [
                    sym.sin(pi * x) * sym.cos(pi * y) * sym.sin(pi * z)
                    - sym.sin(pi * x) * sym.sin(pi * y) * sym.cos(pi * z),
                    sym.sin(pi * x) * sym.sin(pi * y) * sym.cos(pi * z)
                    - sym.cos(pi * x) * sym.sin(pi * y) * sym.sin(pi * z),
                    sym.cos(pi * x) * sym.sin(pi * y) * sym.sin(pi * z)
                    - sym.sin(pi * x) * sym.cos(pi * y) * sym.sin(pi * z),
                ]
            )
            * pi
            * sym.cos(t)
            / params.mu
        )
        u = sym.Matrix([w, w, w]) * sym.exp(-t)
        p = w * sym.exp(-t)

        def curl(v):
            return sym.Matrix(
                [
                    sym.diff(v[2], y) - sym.diff(v[1], z),
                    sym.diff(v[0], z) - sym.diff(v[2], x),
                    sym.diff(v[1], x) - sym.diff(v[0], y),
                ]
            )

        def grad(s):
            return sym.Matrix([sym.diff(s, x), sym.diff(s, y), sym.diff(s, z)])

        def div(v):
            return sym.diff(v[0], x) + sym.diff(v[1], y) + sym.diff(v[2], z)

        def lap(s):
            return sym.diff(s, x, 2) + sym.diff(s, y, 2) + sym.diff(s, z, 2)

        # induction equation is satisfied identically
        induction = sym.simplify(params.mu * sym.diff(H, t) + curl(E))
        assert induction == sym.zeros(3, 1)

        j_sym = (
            params.epsilon * sym.diff(E, t) + params.sigma * E - curl(H) - params.L * grad(p)
        )
        f_sym = (
            -params.lambda_c * grad(div(u))
            - params.G * sym.Matrix([lap(u[0]), lap(u[1]), lap(u[2])])
            + params.alpha * grad(p)
        )
        g_sym = (
            sym.diff(params.c0 * p + params.alpha * div(u), t)
            - params.kappa * lap(p)
            + params.L * div(E)
        )

        j_num = sym.lambdify((t, x, y, z), j_sym.T, "numpy")
        f_num = sym.lambdify((t, x, y, z), f_sym.T, "numpy")
        g_num = sym.lambdify((t, x, y, z), g_sym, "numpy")

        ex = example61(params)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(60, 3))
        for tv in (0.0, 0.05, 0.11):
            ref_j = np.array(j_num(tv, pts[:, 0], pts[:, 1], pts[:, 2])).reshape(3, -1).T
            ref_f = np.array(f_num(tv, pts[:, 0], pts[:, 1], pts[:, 2])).reshape(3, -1).T
            ref_g = np.array(g_num(tv, pts[:, 0], pts[:, 1], pts[:, 2])).ravel()
            np.testing.assert_allclose(ex.j(tv, pts), ref_j, atol=1e-11)
            np.testing.assert_allclose(ex.f(tv, pts), ref_f, atol=1e-11)
            np.testing.assert_allclose(ex.g(tv, pts), ref_g, atol=1e-11)


class TestFields:
    def test_fields_match_the_single_evaluators(self, exact):
        """``fields`` matches the single evaluators, and its grad_u the difference quotient of u."""
        rng = np.random.default_rng(43)
        t, x = 0.07, rng.uniform(0.05, 0.95, size=(40, 3))
        E, H, u, grad_u, p = exact.fields(t, x)
        for got, single in ((E, exact.E), (H, exact.H), (u, exact.u), (p, exact.p)):
            np.testing.assert_array_equal(got, single(t, x))
        fd = np.stack([fd_x(exact.u, t, x, d) for d in range(3)], axis=2)
        np.testing.assert_allclose(grad_u, fd, rtol=0.0, atol=1e-8)

    def test_initial_values(self, exact):
        rng = np.random.default_rng(1)
        pts = rng.random((40, 3))
        assert np.abs(exact.E(0.0, pts)).max() == 0.0
        w = np.sin(np.pi * pts).prod(axis=1)
        np.testing.assert_allclose(exact.p(0.0, pts), w, atol=1e-14)

    def test_boundary_conditions(self, exact):
        rng = np.random.default_rng(2)
        face = rng.random((30, 3))
        face[:, 0] = 0.0                        # wall x = 0
        for t in (0.0, 0.05):
            assert np.abs(exact.E(t, face)).max() <= 1e-14
            assert np.abs(exact.u(t, face)).max() <= 1e-14
            assert np.abs(exact.p(t, face)).max() <= 1e-14

    def test_amplitude_envelopes(self, exact):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 3))
        T = 0.1
        for t in np.linspace(0.0, T, 5):
            assert np.linalg.norm(exact.E(t, pts), axis=1).max() <= np.sqrt(3) * np.sin(T) + 1e-12
            assert np.abs(exact.p(t, pts)).max() <= 1.0

    def test_sources_are_pure_functions(self, exact):
        rng = np.random.default_rng(4)
        pts = rng.random((17, 3))
        a = exact.g(0.07, pts)
        b = exact.g(0.07, pts.copy())
        np.testing.assert_array_equal(a, b)
        # batching does not change values
        np.testing.assert_allclose(
            np.concatenate([exact.g(0.07, pts[:5]), exact.g(0.07, pts[5:])]), a, atol=0
        )

    def test_g_reduces_when_decoupled(self):
        # with L = 0 and alpha -> 0, g collapses to d/dt(c0 p) - kappa lap(p)
        base = PhysicalParams(
            epsilon=1, mu=1, sigma=2, L=0.0, lambda_c=2, G=1, alpha=1e-14, c0=1, kappa=2
        )
        ex = example61(base)
        rng = np.random.default_rng(5)
        pts = rng.random((50, 3))
        t = 0.03
        w = np.sin(np.pi * pts).prod(axis=1)
        expected = -np.exp(-t) * w + 3 * base.kappa * np.pi**2 * w * np.exp(-t)
        np.testing.assert_allclose(ex.g(t, pts), expected, atol=1e-10)


class TestErrorNorms:
    def test_zero_state_measures_exact_norm(self, mesh4, exact):
        state = zero_state(make_layouts(mesh4))
        errs = error_norms(state, exact, 0.0, mesh4, quad_degree=5)
        # ||p(0)|| = (1/2)^{3/2}; separable sine integrals
        assert errs.p_L2 == pytest.approx(1 / (2 * np.sqrt(2)), rel=1e-6)
        assert errs.E_L2 == 0.0                 # E(0) identically zero

    def test_quadrature_stability(self, mesh4, exact, params):
        from epe.schemes import Discretization, initial_state

        disc = Discretization(mesh4, params)
        state = initial_state(disc, exact)
        t = 0.0
        e4 = error_norms(state, exact, t, mesh4, quad_degree=4)
        e6 = error_norms(state, exact, t, mesh4, quad_degree=6)
        for f in ("H_L2", "u_L2", "u_H1", "p_L2"):
            a, b = getattr(e4, f), getattr(e6, f)
            assert abs(a - b) <= 1e-3 * abs(b), f

    def test_projected_state_has_positive_interpolation_error(self, mesh2, exact, params):
        from epe.schemes import Discretization, initial_state

        disc = Discretization(mesh2, params)
        state = initial_state(disc, exact)
        errs = error_norms(state, exact, 0.0, mesh2, quad_degree=5)
        assert errs.p_L2 > 0.0 and errs.H_L2 > 0.0

    def test_norms_do_not_depend_on_the_block_size(self, exact, monkeypatch):
        """Blocks of 1, 7, 256 and 2048 cells over the 1,296 cells of n = 6 give the same norms."""
        mesh = build_unit_cube_mesh(6)
        lay = make_layouts(mesh)
        rng = np.random.default_rng(3)
        coefs = [rng.standard_normal(getattr(lay, s).count) for s in ("E", "H", "U", "P")]
        state = State(*coefs, n=4, t=0.1)
        norms = {}
        for cells in (2048, 256, 7, 1):
            monkeypatch.setattr(epe.mms, "ERROR_BLOCK_CELLS", cells)
            norms[cells] = error_norms(state, exact, 0.1, mesh).as_dict()
        for cells in (256, 7, 1):
            for name, value in norms[cells].items():
                assert value == pytest.approx(norms[2048][name], rel=1e-14, abs=0.0), (cells, name)

    def test_rejects_low_degree(self, mesh2, exact):
        state = zero_state(make_layouts(mesh2))
        with pytest.raises(ValueError):
            error_norms(state, exact, 0.0, mesh2, quad_degree=3)
