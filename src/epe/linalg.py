"""Sparse solver contracts: SPD systems, saddle-point systems, direct factorizations.

Every solve recomputes its true relative residual from the returned vector
and reports it; a solve that cannot meet its tolerance raises instead of
returning silently wrong results. All paths are deterministic: identical
inputs produce identical outputs (no randomized pivoting, fixed iteration
order), so two factorizations of one matrix give bit-identical solves.

Every direct solve is one quasi-definite LDL^T. ``LuSolver`` factors a
symmetric permutation K[order][:, order] of a symmetric matrix with
``MultifrontalLdl``, dense Cholesky kernels front by front; a matrix that
is not symmetric (to rounding) raises ValueError. A system that is
quasi-definite only up to the signs of some rows is passed with those rows
negated, as ``SaddleSolver`` does. The order is given by the caller as
blocks of unknowns (``None`` keeps their numbering). The schemes pass
``nested_dissection`` of the unknowns' lattice locations, whose blocks are
the fronts of the LDL^T. Any permutation gives the exact factorization;
the fill is only reduced when the points lie on the unit-cube lattice,
where every coupling spans at most one sub-cube and a lattice plane
therefore separates the unknowns on either side of it.
SPD solves run a Jacobi-preconditioned CG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack


class DimensionMismatch(ValueError):
    """Operand shapes are inconsistent."""


class NotConverged(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class SingularSystem(RuntimeError):
    """Factorization failed or produced non-finite values."""


#: Index sets of at most this many unknowns are not dissected further.
ND_LEAF = 16

#: Nested-dissection subtrees of at most this many unknowns form one block.
FRONT_MAX = 128

#: A matrix is symmetric when max|K - K^T| is at most this times max|K|.
SYMMETRY_RTOL = 1e-14


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    relative_residual: float
    wall_time: float


def _check_square(A, b):
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    if b.shape != (n,):
        raise DimensionMismatch(f"rhs shape {b.shape} does not match matrix {A.shape}")
    return n


def spd_solve(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-10):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns (x, LinearSolveReport); the reported relative residual is
    recomputed as ||A x - b|| / ||b|| after the iteration. Nonpositive
    curvature (an indefinite matrix) aborts with NotConverged.
    """
    start = time.perf_counter()
    b = np.asarray(b, dtype=float)
    _check_square(A, b)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    x, iterations = _pcg(A, b, 0.1 * tol)
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(b - A @ x) / bnorm) if bnorm > 0.0 else 0.0
    if residual > tol:
        raise NotConverged("conjugate gradients did not reach tolerance", iterations, residual)
    return x, LinearSolveReport(iterations, residual, time.perf_counter() - start)


def _pcg(A: sp.spmatrix, b: np.ndarray, rtol: float):
    """Jacobi-preconditioned CG on the SPD matrix ``A``.

    Stops once the recursive residual satisfies ||r|| <= rtol ||b|| or after
    max(1000, 10 n) iterations and returns (x, iterations); the caller
    checks the true residual. Nonpositive curvature raises NotConverged
    with the true residual of the current iterate.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0 or n == 0:
        return np.zeros(n), 0
    diag = A.diagonal()
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    iterations = 0
    for iterations in range(1, max(1000, 10 * n) + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise NotConverged(
                "conjugate gradients hit nonpositive curvature; operator is not SPD",
                iterations,
                float(np.linalg.norm(b - A @ x) / bnorm),
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= rtol * bnorm:
            break
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, iterations


class SpdSolver:
    """Reusable CG context for one SPD matrix (caches CSR form and tolerance)."""

    def __init__(self, A: sp.spmatrix, tol: float = 1e-10):
        self.A = A.tocsr()
        self.tol = tol

    def solve(self, b: np.ndarray):
        return spd_solve(self.A, b, tol=self.tol)


def nested_dissection(points: np.ndarray) -> list[np.ndarray]:
    """Nested-dissection elimination order of unknowns located at ``points``, as blocks.

    ``points`` are (N, 3) coordinates in lattice units: the lattice planes
    sit at integer coordinates. Each index set is split at the lattice plane
    nearest the median of its widest axis; the points below the plane come
    first, then those above, then those on it (the separator), each half
    ordered recursively down to leaves of ``ND_LEAF`` unknowns. Every
    subtree of at most ``FRONT_MAX`` unknowns is handed out as one block,
    a larger one as its halves' blocks followed by its separator. The
    blocks are nonempty and their concatenation is a permutation of
    ``arange(N)``.
    """
    points = np.asarray(points, dtype=float)

    def dissect(idx):
        if len(idx) > ND_LEAF:
            extent = np.ptp(points[idx], axis=0)
            axis = int(np.argmax(extent))
            if extent[axis] >= 1.0:  # else all lie within one lattice slab
                x = points[idx, axis]
                mid = np.clip(np.floor(np.median(x) + 0.5), np.ceil(x.min()), np.floor(x.max()))
                blocks = dissect(idx[x < mid]) + dissect(idx[x > mid]) + [idx[x == mid]]
                return [np.concatenate(blocks)] if len(idx) <= FRONT_MAX else blocks
        return [idx]

    return [b for b in dissect(np.arange(points.shape[0])) if b.size]


class MultifrontalLdl:
    """Multifrontal LDL^T of a symmetric quasi-definite matrix K, front by front.

    ``K`` is given in elimination order (CSC; only its lower triangle is
    read) and ``sizes`` cuts that order into fronts of consecutive unknowns.
    Within every front the unknowns with a positive diagonal come first.
    The factorization is K = L J L^T with L lower triangular and J = diag(+-1)
    the sign of diag(K). A front's pivot block [[P, Q], [Q^T, -R]] is
    factored by Cholesky: L_P = chol(P), X = L_P^{-1} Q, L_S = chol(R + X^T X);
    its update to the later unknowns is F22 - V1 V1^T + V2 V2^T with
    V = F21 (pivot factor)^{-T}. This exists for every symmetric permutation
    of a quasi-definite matrix (A and R SPD in [[A, B^T], [B, -R]]); any
    other matrix fails a Cholesky step and raises SingularSystem.

    The tree of fronts follows from the sparsity pattern: a front's update
    goes to the front holding its first row beyond the pivots.
    """

    def __init__(self, K: sp.csc_matrix, sizes) -> None:
        n = K.shape[0]
        self.shape = K.shape
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        if starts[-1] != n:
            raise DimensionMismatch(f"front sizes add up to {starts[-1]}, not {n}")
        indptr, indices, data = K.indptr, K.indices, K.data
        positive = K.diagonal() > 0.0
        pos = np.empty(n, dtype=np.int64)  # unknown -> row of the current front
        pending: dict[int, list] = {}
        self.fronts = []
        for f in range(len(starts) - 1):
            s, e = int(starts[f]), int(starts[f + 1])
            k, k1 = e - s, int(positive[s:e].sum())
            rows, vals = indices[indptr[s] : indptr[e]], data[indptr[s] : indptr[e]]
            cols = np.repeat(np.arange(k), np.diff(indptr[s : e + 1]))
            lower = rows >= cols + s
            rows, vals, cols = rows[lower], vals[lower], cols[lower]
            children = pending.pop(f, [])
            beyond = np.unique(np.concatenate([rows[rows >= e]] + [R[R >= e] for R, _ in children]))
            r = beyond.size
            pos[s:e] = np.arange(k)
            pos[beyond] = np.arange(r)
            F11 = np.zeros((k, k), order="F")
            F21 = np.zeros((r, k), order="F")
            F22 = np.zeros((r, r), order="F")
            piv = rows < e
            F11[rows[piv] - s, cols[piv]] = vals[piv]
            F21[pos[rows[~piv]], cols[~piv]] = vals[~piv]
            for R, U in children:  # extend-add; positions increase with R
                t = int(np.searchsorted(R, e))
                a, b = pos[R[:t]], pos[R[t:]]
                _extend_add(F11, a, a, U[:t, :t])
                _extend_add(F21, b, a, U[t:, :t])
                _extend_add(F22, b, b, U[t:, t:])
            L = _pivot_factor(F11, k1)
            if r:
                V = blas.dtrsm(1.0, L, F21, side=1, lower=1, trans_a=1, overwrite_b=1)
                if k1:
                    F22 = blas.dsyrk(-1.0, V[:, :k1], 1.0, F22, lower=1, overwrite_c=1)
                if k1 < k:
                    F22 = blas.dsyrk(1.0, V[:, k1:], 1.0, F22, lower=1, overwrite_c=1)
                parent = int(np.searchsorted(starts, beyond[0], side="right")) - 1
                pending.setdefault(parent, []).append((beyond, F22))
            else:
                V = F21
            self.fronts.append((s, e, k1, L, V, beyond))

    @property
    def L(self) -> sp.csc_matrix:
        """The lower-triangular factor L of K = L J L^T, assembled from the fronts."""
        rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for s, e, k1, Lf, V, R in self.fronts:
            i, j = np.tril_indices(e - s)
            VJ = V.copy()
            VJ[:, k1:] *= -1.0
            rows += [s + i, np.repeat(R, e - s)]
            cols += [s + j, np.tile(np.arange(s, e), R.size)]
            vals += [Lf[i, j], VJ.ravel()]
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=self.shape
        )

    @property
    def U(self) -> sp.csc_matrix:
        """No upper factor is stored (it is J L^T): an empty matrix. ``perfbench/tracing.py``
        counts a factor's fill as ``L.nnz + U.nnz``, so this keeps that sum the stored entries."""
        return sp.csc_matrix(self.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b: forward through L, then J, then backward through L^T."""
        y = np.array(b, dtype=float)
        for s, e, k1, L, V, R in self.fronts:
            z = blas.dtrsv(L, y[s:e], lower=1)
            z[k1:] *= -1.0
            y[s:e] = z
            if R.size:
                y[R] -= V @ z
        for s, e, k1, L, V, R in reversed(self.fronts):
            z = y[s:e]
            if R.size:
                c = V.T @ y[R]
                c[k1:] *= -1.0
                z = z - c
            y[s:e] = blas.dtrsv(L, z, lower=1, trans=1)
        return y


def _extend_add(F: np.ndarray, rows: np.ndarray, cols: np.ndarray, U: np.ndarray) -> None:
    """F[rows][:, cols] += U for a Fortran-ordered F (np.add.at on flat indices beats np.ix_)."""
    flat = (rows[:, None] + F.shape[0] * cols[None, :]).ravel(order="F")
    np.add.at(F.ravel(order="F"), flat, U.ravel(order="F"))


def _pivot_factor(F11: np.ndarray, k1: int) -> np.ndarray:
    """Lower factor of a front's pivot block [[P, Q], [Q^T, -R]] (positive part first, k1 wide).

    Returns [[L_P, 0], [X^T, L_S]] with L_P = chol(P), X = L_P^{-1} Q and
    L_S = chol(R + X^T X), in place of F11's lower triangle.
    """
    if k1 == F11.shape[0]:
        return _cholesky(F11)
    if k1 == 0:
        return _cholesky(-F11)
    F11[:k1, :k1] = L_P = _cholesky(F11[:k1, :k1])
    F11[k1:, :k1] = XT = blas.dtrsm(1.0, L_P, F11[k1:, :k1], side=1, lower=1, trans_a=1)
    F11[k1:, k1:] = _cholesky(blas.dsyrk(1.0, XT, -1.0, F11[k1:, k1:], lower=1))
    return F11


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix whose lower triangle is A's."""
    c, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SingularSystem(
            "Cholesky step of the LDL^T failed: the symmetric matrix is not quasi-definite"
        )
    return c


class LuSolver:
    """Direct factorization with honest residual reporting; reusable across solves.

    Factors the symmetrically permuted matrix K[order][:, order] as a
    quasi-definite LDL^T (``MultifrontalLdl``). ``order`` is a sequence of
    blocks of unknowns in elimination order (a flat permutation counts as
    blocks of one unknown); ``None`` keeps the given numbering, cut into
    blocks of ``FRONT_MAX``. Each block is one front, its positive-diagonal
    unknowns first. A K that is not symmetric to ``SYMMETRY_RTOL`` raises
    ValueError; a K that is symmetric but not quasi-definite raises
    SingularSystem.
    """

    def __init__(self, K: sp.spmatrix, tol: float = 1e-9, order=None):
        self.K = K.tocsc()
        self.tol = tol
        n = self.K.shape[0]
        if n and abs(self.K - self.K.T).max() > SYMMETRY_RTOL * abs(self.K).max():
            raise ValueError("LuSolver factors symmetric matrices only; K is not symmetric")
        if order is None:
            order = np.array_split(np.arange(n), max(1, -(-n // FRONT_MAX)))
        blocks = [b for b in map(np.atleast_1d, order) if b.size]
        self.order = np.concatenate([np.zeros(0, dtype=np.int64), *blocks])
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise DimensionMismatch(f"order is not a permutation of the {n} unknowns")
        diag = self.K.diagonal()
        blocks = [b[np.argsort(diag[b] <= 0.0, kind="stable")] for b in blocks]
        self.order = np.concatenate([self.order[:0], *blocks])
        Kp = self.K[self.order][:, self.order].tocsc()
        Kp.sum_duplicates()
        self.lu = MultifrontalLdl(Kp, [b.size for b in blocks])

    def solve(self, rhs: np.ndarray):
        return self._solve(np.asarray(rhs, dtype=float))

    def _solve(self, rhs: np.ndarray):
        """K^{-1} rhs and its report; raises if the true residual is above ``tol``."""
        start = time.perf_counter()
        _check_square(self.K, rhs)
        rnorm = np.linalg.norm(rhs)
        if rnorm == 0.0:
            return np.zeros(self.K.shape[0]), LinearSolveReport(0, 0.0, time.perf_counter() - start)
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        if not np.all(np.isfinite(x)):
            raise SingularSystem("factorization produced non-finite solution")
        residual = float(np.linalg.norm(rhs - self.K @ x) / rnorm)
        if residual > self.tol:
            raise NotConverged("direct solve residual above tolerance", 0, residual)
        return x, LinearSolveReport(0, residual, time.perf_counter() - start)


def saddle_blocks(A: sp.spmatrix, B: sp.spmatrix, C: sp.spmatrix) -> sp.csc_matrix:
    """Symmetric indefinite matrix [[A, -B^T], [-B, -C]] of the Biot step."""
    nu, npp = A.shape[0], C.shape[0]
    if B.shape != (npp, nu):
        raise DimensionMismatch(f"coupling block shape {B.shape}, expected ({npp}, {nu})")
    return sp.bmat([[A, -B.T], [-B, -C]], format="csc")


class SaddleSolver:
    """Solver for a(u,v)/pressure saddle systems with blocks (A, B, C).

    Solves [[A, -B^T], [-B, -C]] (u, p) = (f_u, -f_p), i.e.
        A u - B^T p = f_u
        B u + C   p = f_p
    with A and C symmetric positive definite: the matrix is quasi-definite.
    It is factored once as an LDL^T (``LuSolver``) and reused per solve; the
    reported residual is that of the stacked system, whose norm the sign of
    the p rows does not change. ``order`` lists the (u, p) unknowns in
    blocks, as ``LuSolver`` takes them.
    """

    def __init__(
        self,
        A: sp.spmatrix,
        B: sp.spmatrix,
        C: sp.spmatrix,
        tol: float = 1e-9,
        order: np.ndarray | None = None,
    ):
        self.nu, self.np = A.shape[0], C.shape[0]
        self._lu = LuSolver(saddle_blocks(A, B, C), tol=tol, order=order)

    def solve(self, f_u: np.ndarray, f_p: np.ndarray):
        f_u = np.asarray(f_u, dtype=float)
        f_p = np.asarray(f_p, dtype=float)
        if f_u.shape != (self.nu,) or f_p.shape != (self.np,):
            raise DimensionMismatch(
                f"rhs shapes {f_u.shape}, {f_p.shape} do not match blocks ({self.nu}, {self.np})"
            )
        x, report = self._lu._solve(np.concatenate([f_u, -f_p]))
        return (x[: self.nu], x[self.nu :]), report
