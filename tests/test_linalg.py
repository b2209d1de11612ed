import gc
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import epe.linalg
from conftest import blocks, elasticity_ff, saddle_blocks
from epe.fem.assembly import assemble_matrix
from epe.fem.dofs import free_dof_points, make_layouts, reduce_matrix
from epe.linalg import (
    EXTEND_ADD_COLUMNS,
    FLOAT32_ENTRIES,
    FRONT_MAX,
    DimensionMismatch,
    LinearSolveReport,
    LuSolver,
    MultifrontalLdl,
    REFINE_SWEEPS,
    SYMMETRY_RTOL,
    NotConverged,
    SaddleSolver,
    SingularSystem,
    SpdSolver,
    _extend_add,
    _pcg,
    _panel_views,
    _panels,
    nested_dissection,
)
from epe.core import build_config
from epe.mesh import build_unit_cube_mesh
from epe.mms import example61
from epe.schemes import Discretization, Sources, run


class TestSpdSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(8)
        x, report = SpdSolver(sp.identity(8, format="csr")).solve(b)
        np.testing.assert_allclose(x, b, atol=1e-13)
        assert report.iterations <= 1

    def test_hand_2x2(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = SpdSolver(A).solve(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [1 / 3, 1 / 3], atol=1e-12)

    def test_assembled_mass_matrix(self, mesh2):
        lay = make_layouts(mesh2)
        M = assemble_matrix(mesh2, "P_MASS", 1.0)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(lay.P.count)
        x, report = SpdSolver(M, tol=1e-10).solve(b)
        assert report.relative_residual <= 1e-10
        # the report matches an independent recomputation
        recomputed = np.linalg.norm(b - M @ x) / np.linalg.norm(b)
        assert abs(recomputed - report.relative_residual) <= 1e-14

    def test_indefinite_fails_honestly(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(NotConverged):
            SpdSolver(A).solve(np.array([1.0, 1.0]))

    def test_zero_rhs(self):
        A = sp.identity(4, format="csr")
        x, report = SpdSolver(A).solve(np.zeros(4))
        assert np.all(x == 0.0) and report.iterations == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SpdSolver(sp.identity(3, format="csr")).solve(np.zeros(4))

    @pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-10, float("nan")])
    def test_tolerance_outside_the_unit_interval_refused_at_construction(self, tol):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            SpdSolver(sp.identity(3, format="csr"), tol=tol)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((40, 40))
        A = sp.csr_matrix(Q @ Q.T + 40 * np.eye(40))
        b = rng.standard_normal(40)
        x1, _ = SpdSolver(A).solve(b)
        x2, _ = SpdSolver(A).solve(b)
        assert x1.tobytes() == x2.tobytes()

    def test_reusable_context_matches_spd_solve(self, disc3):
        """A reused ``SpdSolver`` keeps its Jacobi preconditioner and returns a fresh one's iterate
        bit for bit."""
        A = disc3.em_matrix(1.0)
        solver = SpdSolver(A, tol=1e-10)
        for seed in (3, 4):
            b = np.random.default_rng(seed).standard_normal(A.shape[0])
            (x1, r1), (x2, r2) = solver.solve(b), SpdSolver(A, tol=1e-10).solve(b)
            assert x1.tobytes() == x2.tobytes() and r1.iterations == r2.iterations


def allocating_pcg(A, inv_diag, b, rtol):
    """Oracle: the Jacobi-preconditioned CG loop of ``_pcg``, with a new vector for every update."""
    x = np.zeros(b.shape[0])
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    bnorm = np.linalg.norm(b)
    for iterations in range(1, max(1000, 10 * b.shape[0]) + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= rtol * bnorm:
            break
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, iterations


def test_in_place_pcg_matches_the_allocating_loop(mesh4, params):
    """``_pcg`` updates x, r, z and p in place and returns the allocating loop's iterate bit for bit."""
    A = Discretization(mesh4, params).em_matrix(0.0025).tocsr()
    inv_diag = 1.0 / A.diagonal()
    for seed in (5, 6):
        b = np.random.default_rng(seed).standard_normal(A.shape[0])
        x, iterations = _pcg(A, inv_diag, b, 1e-11)
        x_ref, iterations_ref = allocating_pcg(A, inv_diag, b, 1e-11)
        assert np.array_equal(x, x_ref) and iterations == iterations_ref > 1


class TestSaddleSolve:
    def test_hand_1x1(self):
        solver = SaddleSolver(
            saddle_blocks(sp.csr_matrix([[2.0]]), sp.csr_matrix([[1.0]]), sp.csr_matrix([[1.0]])),
            blocks(np.arange(2)),
        ).factor()
        x, rep = solver.solve(np.array([1.0, 0.0]))  # (f_u, -f_p)
        u, p = np.split(x, [1])
        np.testing.assert_allclose(u, [1 / 3], atol=1e-14)
        np.testing.assert_allclose(p, [-1 / 3], atol=1e-14)
        assert rep.iterations == 0

    def test_decoupled_blocks(self):
        solver = SaddleSolver(
            saddle_blocks(sp.csr_matrix([[2.0]]), sp.csr_matrix([[0.0]]), sp.csr_matrix([[4.0]])),
            blocks(np.arange(2)),
        ).factor()
        x, _ = solver.solve(np.array([2.0, -8.0]))  # (f_u, -f_p)
        u, p = np.split(x, [1])
        np.testing.assert_allclose(u, [1.0])
        np.testing.assert_allclose(p, [2.0])

    def test_assembled_biot_blocks(self, mesh2, params):
        lay = make_layouts(mesh2)
        A = reduce_matrix(assemble_matrix(mesh2, "ELASTICITY", (params.lambda_c, params.G)), lay.U, lay.U)
        B = reduce_matrix(assemble_matrix(mesh2, "DIV_COUPLING", params.alpha), lay.P, lay.U)
        C = reduce_matrix(assemble_matrix(mesh2, "P_MASS", params.c0), lay.P, lay.P)
        rng = np.random.default_rng(3)
        f_u, f_p = rng.standard_normal(A.shape[0]), rng.standard_normal(C.shape[0])
        K = saddle_blocks(A, B, C)
        solver = SaddleSolver(K, blocks(np.arange(K.shape[0])), tol=1e-9).factor()
        x, rep = solver.solve(np.concatenate([f_u, -f_p]))
        u, p = np.split(x, [A.shape[0]])
        assert rep.relative_residual <= 1e-9
        ru = A @ u - B.T @ p - f_u
        rp = B @ u + C @ p - f_p
        rhs = np.sqrt(f_u @ f_u + f_p @ f_p)
        assert np.sqrt(ru @ ru + rp @ rp) / rhs <= 1e-9

    def test_rhs_shape_mismatch(self):
        K = saddle_blocks(sp.identity(2, format="csr"), sp.csr_matrix((1, 2)), sp.identity(1, format="csr"))
        solver = SaddleSolver(K, blocks(np.arange(3))).factor()
        with pytest.raises(DimensionMismatch):
            solver.solve(np.zeros(4))  # a stacked rhs of 4 for the 3 unknowns

    def test_reuse_is_deterministic(self):
        solver = SaddleSolver(
            saddle_blocks(sp.csr_matrix([[2.0]]), sp.csr_matrix([[1.0]]), sp.csr_matrix([[1.0]])),
            blocks(np.arange(2)),
        ).factor()
        results = [solver.solve(np.array([1.0, -0.5]))[0] for _ in range(2)]
        assert results[0][:1].tobytes() == results[1][:1].tobytes()


class TestLuSolver:
    def test_nonsymmetric_system(self, monkeypatch):
        """A non-symmetric K is rejected before any factorization starts."""
        calls = []
        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", lambda *a: calls.append(1))
        with pytest.raises(ValueError, match="not symmetric"):
            LuSolver(sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 1.0]])), blocks(np.arange(2)))
        assert calls == []

    def test_residual_recomputed(self):
        rng = np.random.default_rng(5)
        K, _ = random_sqd(rng, n_pos=8, n_neg=4)
        solver = LuSolver(K, blocks(np.arange(12)), tol=1e-10).factor()
        b = rng.standard_normal(12)
        x, rep = solver.solve(b)
        assert isinstance(rep, LinearSolveReport)
        recomputed = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        assert abs(recomputed - rep.relative_residual) <= 1e-14

    def test_order_gives_the_same_solution(self):
        rng = np.random.default_rng(6)
        K, _ = random_sqd(rng, n_pos=20, n_neg=10)
        b = rng.standard_normal(30)
        x0, _ = LuSolver(K, blocks(np.arange(30)), tol=1e-12).factor().solve(b)
        x1, rep = LuSolver(K, blocks(rng.permutation(30), 1), tol=1e-12).factor().solve(b)
        np.testing.assert_allclose(x1, x0, atol=1e-12)
        assert rep.relative_residual <= 1e-12

    def test_order_must_be_a_permutation(self):
        with pytest.raises(DimensionMismatch):
            LuSolver(sp.identity(3, format="csc"), blocks(np.array([0, 1, 1])))

    def test_one_sparse_copy_of_K(self, monkeypatch):
        """The solver keeps T, K's lower triangle in the factor's numbering ((nnz(K) + n)/2 entries
        for a K with a full diagonal), and no reference to K: once the caller drops K, T is the one
        sparse matrix of K's shape alive while the LDL^T is factored, and after it T's arrays are
        the only ones (the solves read T^T through a view of them)."""
        rng = np.random.default_rng(14)
        K = random_sqd(rng, n_pos=41, n_neg=16)[0].tocsc()
        shape, dense = K.shape, K.toarray()
        assert np.all(np.diag(dense) != 0.0)
        solver = LuSolver(K, order=random_blocks(rng, rng.permutation(K.shape[0])))
        assert solver.lower.nnz == (K.nnz + K.shape[0]) // 2
        np.testing.assert_array_equal(solver.lower.toarray(), np.tril(dense[solver.order][:, solver.order]))
        dropped = weakref.ref(K)
        del K
        gc.collect()
        assert dropped() is None

        def live():
            gc.collect()
            return [o for o in gc.get_objects() if sp.issparse(o) and o.shape == shape]

        alive = []

        class Counting(MultifrontalLdl):
            def __init__(self, *args):
                alive.append(live())
                super().__init__(*args)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Counting)
        solver.factor()
        T = solver.lower
        assert len(alive) == 1 and len(alive[0]) == 1 and alive[0][0] is T
        # after it, the solves' transposed view of T holds T's own arrays
        after = sorted(live(), key=lambda A: A is not T)
        assert len(after) == 2 and after[0] is T and after[1].format == "csr"
        for a, b in ((getattr(after[1], k), getattr(T, k)) for k in ("data", "indices", "indptr")):
            assert a.shape == b.shape and np.shares_memory(a, b)
        b = rng.standard_normal(shape[0])
        x, _ = solver.solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=0.0, atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("asymmetry", [0.0, 0.5 * SYMMETRY_RTOL])
    @pytest.mark.parametrize("exact_factor", [True, False])
    def test_reported_residual_is_that_of_K(self, asymmetry, exact_factor):
        """The reported residual, computed from T + T^T - diag(T) in the factor's numbering, is
        ||b - K x|| / ||b|| to rounding, also for a K symmetric only to ``SYMMETRY_RTOL``: they
        differ by at most what rounding and K's asymmetry move b - K x by. With the factor of a
        perturbed K the solves are refined, and the refined residual is K's as well."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            K, _ = random_sqd(rng)
            upper = sp.triu(K, 1, format="csc")
            upper.data = rng.uniform(-1.0, 1.0, upper.nnz) * asymmetry * abs(K).max()
            K = (K + upper).tocsc()
            order = random_blocks(rng, rng.permutation(K.shape[0]))
            solver = LuSolver(K, order, tol=1e-13).factor()
            if not exact_factor:
                solver.lu = LuSolver(K + 1e-7 * sp.diags(K.diagonal()), order).factor().lu
            b = rng.standard_normal(K.shape[0])
            x, rep = solver.solve(b)
            assert exact_factor or rep.iterations >= 1
            true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
            assert abs(rep.relative_residual - true) <= residual_rounding(K, x, b)


    def test_only_a_solve_that_misses_tol_is_refined(self):
        """A first solve within tol is returned as it is, with 0 sweeps; below rounding, the
        sweeps stop when the residual stops falling, and the solve raises with its residual."""
        rng = np.random.default_rng(15)
        K, _ = random_sqd(rng, n_pos=30, n_neg=12)
        b = rng.standard_normal(K.shape[0])
        solver = LuSolver(K, blocks(np.arange(K.shape[0])), tol=1e-10).factor()
        x, rep = solver.solve(b)
        assert rep.iterations == 0 and np.array_equal(x, solver.lu.solve(b[solver.order])[solver.rank])
        solver.tol = 1e-30
        with pytest.raises(NotConverged) as info:
            solver.solve(b)
        assert 0 <= info.value.iterations <= REFINE_SWEEPS
        assert 1e-30 < info.value.residual <= rep.relative_residual

    def test_refinement_with_an_inexact_factor_meets_tol(self):
        """With the factor of a perturbed K, one solve misses tol; sweeps on the true residual
        meet it, and the report counts them."""
        rng = np.random.default_rng(16)
        K, _ = random_sqd(rng, n_pos=30, n_neg=12)
        order = blocks(np.arange(K.shape[0]))
        solver = LuSolver(K, order, tol=1e-13).factor()
        solver.lu = LuSolver(K + 1e-6 * sp.diags(K.diagonal()), order).factor().lu
        b = rng.standard_normal(K.shape[0])
        first = np.linalg.norm(b - K @ solver.lu.solve(b[solver.order])[solver.rank]) / np.linalg.norm(b)
        x, rep = solver.solve(b)
        assert first > 1e-9 and 1 <= rep.iterations <= REFINE_SWEEPS and rep.relative_residual <= 1e-13
        true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        assert abs(rep.relative_residual - true) <= residual_rounding(K, x, b)


def count_sweeps(monkeypatch):
    """Spy on ``MultifrontalLdl.solve``: the returned list gains, per ``LuSolver.solve`` call,
    the sweeps that call made."""
    sweeps, sweep, solve = [], MultifrontalLdl.solve, LuSolver.solve

    def counting(lu, b):
        sweeps[-1] += 1
        return sweep(lu, b)

    def recording(solver, rhs, start=None):
        sweeps.append(0)
        return solve(solver, rhs, start)

    monkeypatch.setattr(MultifrontalLdl, "solve", counting)
    monkeypatch.setattr(LuSolver, "solve", recording)
    return sweeps


def residual_rounding(K, x, b):
    """How far rounding and K's asymmetry may move ||b - K x|| / ||b|| when K x is summed in
    another order from K's lower triangle mirrored: 2 m eps |K| |x| (m the most entries of a
    row) plus |K - K^T| |x|, in norm, over ||b||."""
    absK, m = abs(K), int(np.diff(K.tocsr().indptr).max())
    slack = 2 * m * np.finfo(float).eps * (absK @ abs(x)) + abs(K - K.T) @ abs(x)
    return float(np.linalg.norm(slack) / np.linalg.norm(b))


def random_sqd(rng, n_pos=40, n_neg=20, density=0.15):
    """Sparse symmetric quasi-definite [[H, A^T], [A, -G]], H and G SPD, unknowns shuffled.

    Returns (K, positive) with ``positive`` the mask of the H unknowns.
    """

    def spd(m):
        R = sp.random(m, m, density=density, random_state=rng)
        return R @ R.T + sp.identity(m)

    A = sp.random(n_neg, n_pos, density=density, random_state=rng)
    K = sp.bmat([[spd(n_pos), A.T], [A, -spd(n_neg)]]).tocsc()
    shuffle = rng.permutation(n_pos + n_neg)
    return K[shuffle][:, shuffle], shuffle < n_pos


def dense_ldlt(Kp):
    """Oracle: the lower L with positive diagonal and Kp = L J L^T, J = sign(diag(Kp)), column by column."""
    n = Kp.shape[0]
    J = np.sign(np.diag(Kp))
    L = np.zeros_like(Kp)
    for j in range(n):
        col = Kp[j:, j] - L[j:, :j] @ (J[:j] * L[j, :j])
        L[j, j] = np.sqrt(J[j] * col[0])
        L[j + 1 :, j] = col[1:] / (J[j] * L[j, j])
    return L


def random_blocks(rng, order, max_size=12):
    """``order`` cut at random points into consecutive blocks."""
    cuts = np.sort(rng.choice(np.arange(1, order.size), size=order.size // max_size, replace=False))
    return np.split(order, cuts)


class TestMultifrontalLdl:
    @pytest.mark.parametrize("seed,kind", enumerate(["mixed", "one_sign", "single", "singletons", "none"]))
    def test_sqd_matches_dense_solve(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            K, positive = random_sqd(rng)
            n = K.shape[0]
            perm = rng.permutation(n)
            if kind == "mixed":
                order = random_blocks(rng, perm)
            elif kind == "one_sign":  # every block all-positive or all-negative
                order = random_blocks(rng, perm[positive[perm]]) + random_blocks(rng, perm[~positive[perm]])
            elif kind == "single":
                order = [perm]
            elif kind == "singletons":
                order = blocks(perm, 1)
            else:  # the natural numbering
                order = blocks(np.arange(n))
            solver = LuSolver(K, tol=1e-12, order=order).factor()
            assert isinstance(solver.lu, MultifrontalLdl)
            b = rng.standard_normal(n)
            x, rep = solver.solve(b)
            want = np.linalg.solve(K.toarray(), b)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            assert rep.relative_residual <= 1e-12

    def test_factor_reproduces_the_permuted_matrix(self):
        rng = np.random.default_rng(10)
        K, positive = random_sqd(rng)
        solver = LuSolver(K, order=random_blocks(rng, rng.permutation(K.shape[0]))).factor()
        Kp = K[solver.order][:, solver.order].toarray()
        L, J = solver.lu.L.toarray(), np.sign(np.diag(Kp))
        np.testing.assert_array_equal(J > 0, positive[solver.order])
        assert np.abs(np.triu(L, 1)).max() == 0.0 and np.all(np.diag(L) > 0.0)
        np.testing.assert_allclose(L @ (J[:, None] * L.T), Kp, atol=1e-12 * np.abs(Kp).max())
        assert solver.lu.U.nnz == 0

    def test_factor_keeps_exactly_the_entries_of_L(self):
        """The fronts keep packed pivot factors and V: as many numbers of the factor's dtype as L
        has entries, as the symbolic phase counts them, in either dtype."""
        rng = np.random.default_rng(15)
        K, _ = random_sqd(rng)
        solver = LuSolver(K, order=random_blocks(rng, rng.permutation(K.shape[0]), max_size=20))
        for dtype in (np.float64, np.float32):
            lu = solver.factor(dtype).lu
            arrays = [a for front in lu.fronts for a in front if isinstance(a, np.ndarray)]
            assert lu.dtype == dtype
            assert sum(a.size for a in arrays if a.dtype == dtype) == lu.L.nnz == lu.entries

    def test_blocks_in_any_sign_order_give_the_same_fronts(self):
        """Blocks holding their signs mixed in any order, empty blocks among them, factor bit for
        bit as the blocks with each one's positive-diagonal unknowns first."""
        rng = np.random.default_rng(18)
        K, positive = random_sqd(rng)
        presorted, mixed = [], []
        for b in random_blocks(rng, rng.permutation(K.shape[0])):
            k1 = int(positive[b].sum())
            presorted.append(np.concatenate([b[positive[b]], b[~positive[b]]]))
            slots = rng.permutation(b.size)  # each sign keeps its order, the signs interleave
            m = np.empty_like(b)
            m[np.sort(slots[:k1])], m[np.sort(slots[k1:])] = presorted[-1][:k1], presorted[-1][k1:]
            mixed += [m, b[:0]]
        assert any(not np.array_equal(m, b) for m, b in zip(mixed[::2], presorted))
        want, got = LuSolver(K, presorted).factor(), LuSolver(K, mixed).factor()
        np.testing.assert_array_equal(want.order, np.concatenate(presorted))
        np.testing.assert_array_equal(got.order, want.order)
        assert len(got.lu.fronts) == len(want.lu.fronts) == len(presorted)
        for (s, e, k1, *arrays), (gs, ge, gk1, *got_arrays) in zip(want.lu.fronts, got.lu.fronts):
            assert (gs, ge, gk1) == (s, e, k1)
            for a, g in zip(arrays, got_arrays):  # packed, L21T, beyond
                assert g.shape == a.shape and g.dtype == a.dtype and g.tobytes() == a.tobytes()

    @pytest.mark.parametrize("order", [[0, 1, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1]])
    def test_blocks_that_are_not_a_permutation_raise(self, order):
        with pytest.raises(DimensionMismatch, match="not a permutation"):
            LuSolver(sp.identity(3, format="csc"), [np.array(order[:1]), np.array(order[1:])])

    def test_solve_is_in_the_numbering_of_K(self):
        """One ``solve`` of the factor, no refinement, is K^{-1} b with b permuted into T's numbering
        by ``order`` and the solution back into K's by ``rank``."""
        rng = np.random.default_rng(19)
        for _ in range(5):
            K, _ = random_sqd(rng)
            solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0]))).factor()
            np.testing.assert_array_equal(solver.order[solver.rank], np.arange(K.shape[0]))
            b = rng.standard_normal(K.shape[0])
            want = np.linalg.solve(K.toarray(), b)
            x = solver.lu.solve(b[solver.order])[solver.rank]
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_a_non_finite_solution_raises(self):
        rng = np.random.default_rng(20)
        K, _ = random_sqd(rng)
        lu = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0]))).factor().lu
        b = rng.standard_normal(K.shape[0])
        b[3] = np.inf
        with pytest.raises(SingularSystem, match="non-finite"):
            lu.solve(b)

    def test_chunked_extend_add_matches_one_pass(self):
        """Adding a child's lower-panel update one panel at a time gives the one-pass sum exactly,
        and leaves everything above the front's diagonal untouched."""
        rng = np.random.default_rng(16)
        rc, t, k, r = 3 * EXTEND_ADD_COLUMNS + 5, 70, 90, 150  # panel 1 straddles the t pivots
        x = np.concatenate([np.sort(rng.choice(k, t, replace=False)),
                            np.sort(rng.choice(r, rc - t, replace=False))])
        S = rng.standard_normal((rc, rc))
        U = np.zeros(_panels(rc)[2][-1])
        for c0, w, panel in _panel_views(U, rc):
            panel[:] = S[c0:, c0 : c0 + w]
        F11 = np.asfortranarray(rng.standard_normal((k, k)))
        F21 = np.asfortranarray(rng.standard_normal((r, k)))
        F22 = rng.standard_normal(_panels(r)[2][-1])
        front = np.zeros((k + r, k + r))  # the dense front, F22's lower trapezoid filled in
        front[:k, :k], front[k:, :k] = F11, F21
        for c0, w, panel in _panel_views(F22, r):
            front[k + c0 :, k + c0 : k + c0 + w] = panel
        want = front.copy()
        at = np.concatenate([x[:t], k + x[t:]])
        want[np.ix_(at, at)] += np.tril(S)
        _extend_add(F11, F21, F22, x, t, U)
        np.testing.assert_array_equal(np.tril(F11), np.tril(want[:k, :k]))
        np.testing.assert_array_equal(np.triu(F11, 1), np.triu(front[:k, :k], 1))
        np.testing.assert_array_equal(F21, want[k:, :k])
        for c0, w, panel in _panel_views(F22, r):
            np.testing.assert_array_equal(panel, want[k + c0 :, k + c0 : k + c0 + w])

    def test_factor_matches_the_dense_ldlt(self, params):
        """On the n = 6 saddle matrix (7 fronts), L, the solve and the fill equal a dense LDL^T."""
        mesh = build_unit_cube_mesh(6)
        disc = Discretization(mesh, params)
        K = saddle_blocks(elasticity_ff(disc), disc.B_ff, params.c0 * disc.M_P_ff + disc.K_P_ff)
        solver = LuSolver(K, tol=1e-12, order=disc.order("U", "P")).factor()
        Kp = K[solver.order][:, solver.order].toarray()
        L = solver.lu.L
        want = dense_ldlt(Kp)
        assert len(solver.lu.fronts) == 7
        np.testing.assert_allclose(L.toarray(), want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        stored = np.zeros(Kp.shape, dtype=bool)
        stored[L.nonzero()] = True
        assert not np.any((np.abs(want) > 1e-12 * np.abs(want).max()) & ~stored)
        assert L.nnz + solver.lu.U.nnz == 56_450  # the fill before the lower-panel updates
        b = np.random.default_rng(17).standard_normal(K.shape[0])
        x, _ = solver.solve(b)
        y = np.linalg.solve(want, b[solver.order])
        x_dense = np.empty_like(b)
        x_dense[solver.order] = np.linalg.solve(want.T, np.sign(np.diag(Kp)) * y)
        assert np.linalg.norm(x - x_dense) <= 1e-11 * np.linalg.norm(x_dense)

    def test_update_stack_is_held_as_lower_trapezoids(self, params):
        """The n = 8 saddle factor's traced peak exceeds what it keeps by at most the pending
        updates as lower trapezoids plus the working front (F11, F21, L21^T and its trapezoid)."""
        mesh = build_unit_cube_mesh(8)
        disc = Discretization(mesh, params)
        K = saddle_blocks(elasticity_ff(disc), disc.B_ff, params.c0 * disc.M_P_ff + disc.K_P_ff).tocsc()
        solver = LuSolver(K, order=disc.order("U", "P"))
        del K
        gc.collect()
        tracemalloc.start()
        try:
            lu = solver.factor().lu
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fronts = lu.fronts
        starts = np.array([f[0] for f in fronts] + [fronts[-1][1]])
        parent = [np.searchsorted(starts, f[5][0], side="right") - 1 if f[5].size else -1 for f in fronts]
        trapezoid = [int(_panels(f[5].size)[2][-1]) for f in fronts]
        live = 0
        for f, (s, e, _, _, _, R) in enumerate(fronts):
            stack = sum(trapezoid[g] for g in range(f) if parent[g] >= f)
            live = max(live, stack + trapezoid[f] + (e - s) ** 2 + 2 * (e - s) * R.size)
        assert peak - kept <= 8 * live

    def test_pure_spd_elasticity_block(self, disc3):
        A = elasticity_ff(disc3)
        solver = LuSolver(A, tol=1e-12, order=disc3.order("U")).factor()
        assert all(k1 == e - s for s, e, k1, *_ in solver.lu.fronts)  # Cholesky only
        b = np.random.default_rng(11).standard_normal(A.shape[0])
        x, _ = solver.solve(b)
        want = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_symmetric_but_not_quasi_definite_raises(self):
        with pytest.raises(SingularSystem, match=re.escape("not quasi-definite (a front of non-positive")):
            LuSolver(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), blocks(np.arange(2))).factor()

    def test_an_indefinite_matrix_of_positive_pivots_is_not_positive_definite(self):
        """[[1, 2], [2, 1]] has a positive diagonal, so its one front is all positive pivots."""
        with pytest.raises(SingularSystem, match="not positive definite to working precision"):
            LuSolver(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])), blocks(np.arange(2))).factor()

    @pytest.mark.parametrize("K,block", [
        ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]], "P"),
        ([[1.0, 0.0, 0.0], [0.0, -1.0, 2.0], [0.0, 2.0, -1.0]], "R + X^T X"),
    ])
    def test_a_mixed_front_names_the_block_that_failed(self, K, block):
        """One front of mixed signs: P, the positive pivots' block, or the Schur complement of the
        negative ones is indefinite."""
        with pytest.raises(SingularSystem, match=re.escape(f"not quasi-definite (a mixed front's {block})")):
            LuSolver(sp.csc_matrix(np.array(K)), blocks(np.arange(3))).factor()

    def test_two_factorizations_give_bit_identical_solves(self, disc3, params):
        K = saddle_blocks(elasticity_ff(disc3), disc3.B_ff, params.c0 * disc3.M_P_ff + disc3.K_P_ff)
        b = np.random.default_rng(12).standard_normal(K.shape[0])
        order = disc3.order("U", "P")
        x1, _ = LuSolver(K, order=order).factor().solve(b)
        x2, _ = LuSolver(K, order=order).factor().solve(b)
        assert x1.tobytes() == x2.tobytes()

    def test_superlu_only_for_nonsymmetric_matrices(self, disc3, params, monkeypatch):
        """SuperLU is called for no matrix: a symmetric K is factored by
        ``MultifrontalLdl`` and a non-symmetric one is refused."""
        K = saddle_blocks(elasticity_ff(disc3), disc3.B_ff, params.c0 * disc3.M_P_ff + disc3.K_P_ff)
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: calls.append(1))
        solver = LuSolver(K, order=disc3.order("U", "P")).factor()
        assert isinstance(solver.lu, MultifrontalLdl) and solver.lu.U.nnz == 0
        solver.solve(np.ones(K.shape[0]))
        with pytest.raises(ValueError, match="not symmetric"):
            LuSolver(sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 1.0]])), blocks(np.arange(2)))
        assert calls == []


def nested_dissection_oracle(points):
    """Nested dissection with ``np.ptp`` and ``np.median`` on (k, 3) gathers: sets of more than
    FRONT_MAX unknowns are split, a smaller one is one block in its given order."""
    points = np.asarray(points, dtype=float)

    def dissect(idx):
        if len(idx) > FRONT_MAX:
            extent = np.ptp(points[idx], axis=0)
            axis = int(np.argmax(extent))
            if extent[axis] >= 1.0:
                x = points[idx, axis]
                mid = np.clip(np.floor(np.median(x) + 0.5), np.ceil(x.min()), np.floor(x.max()))
                return dissect(idx[x < mid]) + dissect(idx[x > mid]) + [idx[x == mid]]
        return [idx]

    return [b for b in dissect(np.arange(points.shape[0])) if b.size]


def assert_same_blocks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestNestedDissection:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_mesh_blocks_equal_the_oracle(self, n):
        mesh = build_unit_cube_mesh(n)
        lay = make_layouts(mesh)
        for spaces in (("E", "U", "P"), ("U", "P"), ("U",)):
            pts = np.vstack([free_dof_points(mesh, getattr(lay, s)) for s in spaces])
            assert_same_blocks(nested_dissection(pts), nested_dissection_oracle(pts))

    @pytest.mark.parametrize("seed", range(6))
    def test_half_integer_blocks_equal_the_oracle(self, seed):
        """Random half-integer points, with repeats, ties of the widest axis and flat slabs."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(20, 3000))
        pts = rng.integers(0, 2 * int(rng.integers(1, 12)), size=(size, 3)) / 2.0
        if seed % 3 == 0:
            pts[:, seed % 2] = 1.5
        assert_same_blocks(nested_dissection(pts), nested_dissection_oracle(pts))

    @pytest.mark.parametrize("spaces", [("E",), ("U",), ("P",), ("U", "P"), ("E", "U", "P")])
    def test_mesh_order_is_a_permutation(self, disc3, spaces):
        order = np.concatenate(disc3.order(*spaces))
        size = sum(getattr(disc3.layouts, s).num_free for s in spaces)
        assert np.array_equal(np.sort(order), np.arange(size))

    def test_a_call_leaves_no_reference_cycle(self):
        """The coordinates die when the call returns: with the cycle collector off, one call
        leaves nothing for ``gc.collect()`` to find."""
        pts = np.random.default_rng(8).integers(0, 9, size=(500, 3)).astype(float)
        gc.collect()
        gc.disable()
        try:
            nested_dissection(pts)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_any_point_set_gives_a_permutation(self):
        pts = np.random.default_rng(7).random((500, 3)) * 5.0
        assert np.array_equal(np.sort(np.concatenate(nested_dissection(pts))), np.arange(500))

    def test_blocks_are_small_subtrees_or_separators(self, params):
        """Every block is nonempty; a block above FRONT_MAX can only be a separator plane."""
        mesh = build_unit_cube_mesh(6)
        disc = Discretization(mesh, params)
        lay = disc.layouts
        pts = np.concatenate([free_dof_points(mesh, lay.U), free_dof_points(mesh, lay.P)])
        blocks = disc.order("U", "P")
        assert len(blocks) > 1 and all(b.size for b in blocks)
        for b in blocks:
            if b.size > FRONT_MAX:
                assert np.any(np.ptp(pts[b], axis=0) == 0.0)

    def test_points_in_lattice_units(self, mesh3):
        lay = make_layouts(mesh3)
        for space in ("E", "U", "P"):
            pts = free_dof_points(mesh3, getattr(lay, space))
            assert pts.shape == (getattr(lay, space).num_free, 3)
            assert np.all((pts >= 0.0) & (pts <= 3.0))
            assert np.array_equal(pts * 2, np.rint(pts * 2))

    def test_top_separator_splits_the_saddle_matrix(self, params):
        """At n = 6 (500 unknowns, more than FRONT_MAX) the plane x = 3 splits U and P; no matrix
        entry couples its two sides. (At n = 4 the 108 unknowns are one front.)"""
        mesh = build_unit_cube_mesh(6)
        disc = Discretization(mesh, params)
        lay = disc.layouts
        x = np.concatenate([free_dof_points(mesh, lay.U), free_dof_points(mesh, lay.P)])[:, 0]
        K = saddle_blocks(elasticity_ff(disc), disc.B_ff, disc.M_P_ff + disc.K_P_ff).tocsr()
        order = np.concatenate(disc.order("U", "P"))
        lo, hi = np.flatnonzero(x < 3), np.flatnonzero(x > 3)
        # lower half first, then the upper half, then the separator
        assert set(order[: len(lo)]) == set(lo)
        assert set(order[len(lo) : len(lo) + len(hi)]) == set(hi)
        assert np.all(x[order[len(lo) + len(hi) :]] == 3)
        assert K[lo][:, hi].nnz == 0 and K[hi][:, lo].nnz == 0
        assert K[lo][:, x == 3].nnz > 0 and K[hi][:, x == 3].nnz > 0


@pytest.fixture
def float32_factors(monkeypatch):
    """Every LDL^T stored in float32, as the size rule stores a large one."""
    monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", 0)


def ill_conditioned_sqd(rng, scale=1e9):
    """A random SQD matrix whose SPD block gains ``scale`` R R^T, R of half rank: kappa about
    10 scale, too ill-conditioned for refinement with a float32 factor."""
    K, positive = random_sqd(rng)
    R = sp.random(K.shape[0], K.shape[0] // 2, density=0.1, random_state=rng)
    P = sp.diags(positive * 1.0)
    return (K + scale * P @ (R @ R.T) @ P).tocsc()


class TestFloat32Factor:
    def test_the_size_rule_stores_only_a_large_factor_in_float32(self, monkeypatch):
        """A factor of more than ``FLOAT32_ENTRIES`` entries, counted by the symbolic phase, is
        stored in float32; one of at most that many in float64."""
        rng = np.random.default_rng(30)
        K, _ = random_sqd(rng)
        order = random_blocks(rng, rng.permutation(K.shape[0]))
        lu = LuSolver(K, order).factor().lu
        assert lu.entries == lu.L.nnz < FLOAT32_ENTRIES and lu.dtype == np.float64
        monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", lu.entries)
        assert LuSolver(K, order).factor().lu.dtype == np.float64
        monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", lu.entries - 1)
        assert LuSolver(K, order).factor().lu.dtype == np.float32

    def test_fronts_hold_the_float64_factor_rounded(self, float32_factors):
        """The fronts hold only float32 numbers, each the float64 factor's entry rounded; a sweep
        runs in float32 and returns float64."""
        rng = np.random.default_rng(31)
        K, _ = random_sqd(rng)
        order = random_blocks(rng, rng.permutation(K.shape[0]), max_size=20)
        lu = LuSolver(K, order).factor().lu
        assert lu.dtype == np.float32 and all(a.dtype == np.float32 for f in lu.fronts for a in f[3:5])
        want = LuSolver(K, order).factor(np.float64).lu.L
        np.testing.assert_array_equal(lu.L.toarray(), want.toarray().astype(np.float32))
        assert lu.solve(rng.standard_normal(K.shape[0])).dtype == np.float64

    def test_refined_solves_meet_tol_with_their_float64_residual(self, float32_factors):
        rng = np.random.default_rng(32)
        K, _ = random_sqd(rng)
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-13).factor()
        b = rng.standard_normal(K.shape[0])
        x, rep = solver.solve(b)
        assert solver.lu.dtype == np.float32 and rep.iterations >= 1 and rep.relative_residual <= 1e-13
        true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        assert abs(rep.relative_residual - true) <= residual_rounding(K, x, b)

    def test_too_ill_conditioned_for_float32_falls_back_to_float64(self, float32_factors, monkeypatch):
        """Refinement with the float32 factor stalls above tol; T is factored once more, in
        float64, which meets tol and serves the later solves."""
        rng = np.random.default_rng(1)
        K = ill_conditioned_sqd(rng)
        assert 1e9 < np.linalg.cond(K.toarray()) < 1e11
        dtypes = []

        class Recording(MultifrontalLdl):
            def __init__(self, *args):
                super().__init__(*args)
                dtypes.append(self.dtype)

        monkeypatch.setattr(epe.linalg, "MultifrontalLdl", Recording)
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-9).factor()
        b = K @ rng.standard_normal(K.shape[0])
        for _ in range(2):
            x, rep = solver.solve(b)
            assert dtypes == [np.float32, np.float64] and rep.relative_residual <= 1e-9
            true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
            assert abs(rep.relative_residual - true) <= residual_rounding(K, x, b)

    def test_a_miss_in_float64_too_raises_with_the_true_residual(self, float32_factors):
        """Past the float64 fallback, ``NotConverged`` carries the residual of the float64 factor's
        refined solve, which is that solve's true residual."""
        rng = np.random.default_rng(33)
        K, _ = random_sqd(rng)
        order = random_blocks(rng, rng.permutation(K.shape[0]))
        b = rng.standard_normal(K.shape[0])
        solver = LuSolver(K, order, tol=1e-30).factor()
        assert solver.lu.dtype == np.float32
        with pytest.raises(NotConverged) as info:
            solver.solve(b)
        assert solver.lu.dtype == np.float64
        reference = LuSolver(K, order, tol=1e-30).factor(np.float64)
        with pytest.raises(NotConverged) as want:
            reference.solve(b)
        assert (info.value.residual, info.value.iterations) == (want.value.residual, want.value.iterations)
        reference.tol = want.value.residual  # the same refined solve, now returned
        x, rep = reference.solve(b)
        assert rep.relative_residual == info.value.residual
        true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        assert abs(info.value.residual - true) <= residual_rounding(K, x, b)

    def test_a_start_near_the_solution_takes_one_sweep(self, float32_factors, monkeypatch):
        """From a start within 1e-4 of the solution, one sweep for the correction meets a tol
        that the cold solve meets only after a refinement sweep."""
        rng = np.random.default_rng(35)
        K, _ = random_sqd(rng)
        x = rng.standard_normal(K.shape[0])
        b = K @ x
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-11).factor()
        sweeps = count_sweeps(monkeypatch)
        _, rep = solver.solve(b)
        assert solver.lu.dtype == np.float32 and sweeps == [2] and rep.iterations == 1
        y, rep = solver.solve(b, x * (1.0 + 1e-4 * rng.standard_normal(x.size)))
        assert sweeps == [2, 1] and rep.iterations == 0 and rep.relative_residual <= 1e-11
        true = np.linalg.norm(b - K @ y) / np.linalg.norm(b)
        assert abs(rep.relative_residual - true) <= residual_rounding(K, y, b)

    @pytest.mark.parametrize("poor", ["zeros", "scaled"])
    @pytest.mark.parametrize("ill_conditioned", [False, True])
    def test_a_poor_start_still_ends_within_tol(self, poor, ill_conditioned, float32_factors, monkeypatch):
        """A start of zeros, or the solution times 1e3, is refined to tol with the float32 factor;
        where that refinement stalls (the matrix of the float64 fallback test), the float64
        refactor meets it. No start returns above tol."""
        rng = np.random.default_rng(1 if ill_conditioned else 36)
        K = ill_conditioned_sqd(rng) if ill_conditioned else random_sqd(rng)[0]
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-9).factor()
        x = rng.standard_normal(K.shape[0])
        b = K @ x
        sweeps = count_sweeps(monkeypatch)
        y, rep = solver.solve(b, np.zeros(x.size) if poor == "zeros" else 1e3 * x)
        assert rep.relative_residual <= 1e-9
        if ill_conditioned:
            assert solver.lu.dtype == np.float64 and sweeps[0] > rep.iterations + 1
        else:
            assert solver.lu.dtype == np.float32 and sweeps == [rep.iterations + 1]
            assert rep.iterations >= 1
        true = np.linalg.norm(b - K @ y) / np.linalg.norm(b)
        assert abs(rep.relative_residual - true) <= residual_rounding(K, y, b)

    def test_a_float64_factor_ignores_the_start(self):
        """On a float64 factor, ``solve(b, start)`` returns the bytes of ``solve(b)``; a start of
        the wrong shape is refused all the same."""
        rng = np.random.default_rng(37)
        K, _ = random_sqd(rng)
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-13).factor()
        b = rng.standard_normal(K.shape[0])
        x, rep = solver.solve(b)
        for start in (np.zeros(b.size), 1e3 * x, x + 1e-3):
            y, rep_start = solver.solve(b, start)
            assert solver.lu.dtype == np.float64 and y.tobytes() == x.tobytes()
            assert (rep_start.iterations, rep_start.relative_residual) == (rep.iterations, rep.relative_residual)
        with pytest.raises(DimensionMismatch):
            solver.solve(b, np.zeros(b.size + 1))

    @pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
    def test_n4_runs_with_float32_factors_match_the_float64_run(self, scheme, monkeypatch):
        """Every direct solve of an n = 4 run (the saddle's, and the monolithic EM matrix's) with
        float32 factors meets its tol with the residual of K in float64, and the final state lies
        within 1e-10 relative of the float64 run."""
        config = build_config(None, {"mesh_n": 4, "scheme": scheme})
        exact = example61(config.params)
        sources, mesh = Sources(j=exact.j, f=exact.f, g=exact.g), build_unit_cube_mesh(4)
        want = run(config, sources, exact, mesh=mesh).state
        monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", 0)
        solves, original = [], LuSolver.solve

        def recording(solver, rhs, start=None):
            x, rep = original(solver, rhs, start)
            T = solver.lower
            K = (T + T.T - sp.diags(T.diagonal())).tocsr()
            b, y = rhs[solver.order], x[solver.order]
            true = np.linalg.norm(b - K @ y) / np.linalg.norm(b)
            solves.append((type(solver), solver.lu.dtype, rep, solver.tol, true, residual_rounding(K, y, b)))
            return x, rep

        monkeypatch.setattr(LuSolver, "solve", recording)
        monkeypatch.setattr(SaddleSolver, "solve", recording)
        got = run(config, sources, exact, mesh=mesh).state
        kinds = {SaddleSolver} if scheme == "splitting" else {SaddleSolver, LuSolver}
        assert {kind for kind, *_ in solves} == kinds and len(solves) == len(kinds) * config.grid.N
        assert all(dtype == np.float32 for _, dtype, *_ in solves)
        assert any(rep.iterations >= 1 for _, _, rep, *_ in solves)
        for _, _, rep, tol, true, rounding in solves:
            assert rep.relative_residual <= tol and abs(rep.relative_residual - true) <= rounding
        for name in ("E", "H", "u", "p"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name


@pytest.mark.parametrize("kind", ["spd", "float64", "float32"])
def test_report_wall_time_is_within_the_callers_span(kind, monkeypatch):
    """A solve's reported wall time is positive and at most the caller's own span of the call: a CG
    solve, a float64 LDL^T solve and a float32 one refined in float64."""
    rng = np.random.default_rng(34)
    K, _ = random_sqd(rng)
    b = rng.standard_normal(K.shape[0])
    if kind == "spd":
        solver = SpdSolver((K.T @ K + sp.identity(K.shape[0])).tocsr(), tol=1e-12)
    else:
        if kind == "float32":
            monkeypatch.setattr(epe.linalg, "FLOAT32_ENTRIES", 0)
        solver = LuSolver(K, random_blocks(rng, rng.permutation(K.shape[0])), tol=1e-13).factor()
        assert solver.lu.dtype == {"float64": np.float64, "float32": np.float32}[kind]
    start = time.perf_counter()
    _, rep = solver.solve(b)
    span = time.perf_counter() - start
    assert 0.0 < rep.wall_time <= span
    if kind == "float32":
        assert rep.iterations >= 1 and solver.lu.dtype == np.float32
