"""Sparse solver contracts: SPD systems, saddle-point systems, general LU.

Every solve recomputes its true relative residual from the returned vector
and reports it; a solve that cannot meet its tolerance raises instead of
returning silently wrong results. All paths are deterministic: identical
inputs produce identical outputs (no randomized pivoting, fixed iteration
order).

Every sparse LU factors a symmetric permutation K[order][:, order] of its
matrix, where ``order`` is a permutation of the unknowns given by the
caller (``None`` keeps their numbering). The schemes pass
``nested_dissection`` of the unknowns' lattice locations. Any permutation
gives the exact LU; the fill is only reduced when the points lie on the
unit-cube lattice, where every coupling spans at most one sub-cube and a
lattice plane therefore separates the unknowns on either side of it.
CG-type solves share one Jacobi-preconditioned CG over a matvec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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


def spd_solve(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-10, maxiter: int | None = None):
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
    x, iterations = _pcg(lambda v: A @ v, b, A.diagonal(), 0.1 * tol, maxiter)
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(b - A @ x) / bnorm) if bnorm > 0.0 else 0.0
    if residual > tol:
        raise NotConverged("conjugate gradients did not reach tolerance", iterations, residual)
    return x, LinearSolveReport(iterations, residual, time.perf_counter() - start)


def _pcg(matvec, b: np.ndarray, diag: np.ndarray, rtol: float, maxiter: int | None = None):
    """Jacobi-preconditioned CG on an SPD operator given by ``matvec``.

    Stops once the recursive residual satisfies ||r|| <= rtol ||b|| or after
    ``maxiter`` (default max(1000, 10 n)) iterations and returns
    (x, iterations); the caller checks the true residual. Nonpositive
    curvature raises NotConverged with the true residual of the current
    iterate.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0 or n == 0:
        return np.zeros(n), 0
    if maxiter is None:
        maxiter = max(1000, 10 * n)
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    iterations = 0
    for iterations in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = p @ Ap
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise NotConverged(
                "conjugate gradients hit nonpositive curvature; operator is not SPD",
                iterations,
                float(np.linalg.norm(b - matvec(x)) / bnorm),
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


def nested_dissection(points: np.ndarray) -> np.ndarray:
    """Nested-dissection elimination order of unknowns located at ``points``.

    ``points`` are (N, 3) coordinates in lattice units: the lattice planes
    sit at integer coordinates. Each index set is split at the lattice plane
    nearest the median of its widest axis; the points below the plane come
    first, then those above, then those on it (the separator), each half
    ordered recursively down to leaves of ``ND_LEAF`` unknowns. Returns a
    permutation of ``arange(N)``.
    """
    points = np.asarray(points, dtype=float)
    blocks = []

    def dissect(idx):
        if len(idx) > ND_LEAF:
            extent = np.ptp(points[idx], axis=0)
            axis = int(np.argmax(extent))
            if extent[axis] >= 1.0:  # else all lie within one lattice slab
                x = points[idx, axis]
                mid = np.clip(np.floor(np.median(x) + 0.5), np.ceil(x.min()), np.floor(x.max()))
                dissect(idx[x < mid])
                dissect(idx[x > mid])
                blocks.append(idx[x == mid])
                return
        blocks.append(idx)

    dissect(np.arange(points.shape[0]))
    return np.concatenate(blocks)


class LuSolver:
    """Sparse LU with honest residual reporting; reusable across solves.

    The LU factors the symmetrically permuted matrix K[order][:, order] with
    SuperLU's NATURAL column order and its default threshold row pivoting;
    ``order=None`` keeps the given numbering.
    """

    def __init__(self, K: sp.spmatrix, tol: float = 1e-9, order: np.ndarray | None = None):
        self.K = K.tocsc()
        self.tol = tol
        n = self.K.shape[0]
        self.order = np.arange(n) if order is None else np.asarray(order)
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise DimensionMismatch(f"order is not a permutation of the {n} unknowns")
        try:
            self.lu = spla.splu(self.K[self.order][:, self.order], permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        """K^{-1} rhs through the permuted factors, unchecked."""
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x

    def solve(self, rhs: np.ndarray):
        start = time.perf_counter()
        rhs = np.asarray(rhs, dtype=float)
        _check_square(self.K, rhs)
        rnorm = np.linalg.norm(rhs)
        if rnorm == 0.0:
            return np.zeros(self.K.shape[0]), LinearSolveReport(0, 0.0, time.perf_counter() - start)
        x = self._apply(rhs)
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
    with A SPD, C symmetric positive semidefinite, and C + B A^{-1} B^T
    definite. Below ``direct_threshold`` total unknowns a sparse direct
    factorization is used (built once, reused per solve); above it, a
    Schur-complement CG in the pressure variable.
    """

    def __init__(
        self,
        A: sp.spmatrix,
        B: sp.spmatrix,
        C: sp.spmatrix,
        tol: float = 1e-9,
        direct_threshold: int = 200_000,
        order: np.ndarray | None = None,
    ):
        self.A, self.B, self.C = A.tocsr(), B.tocsr(), C.tocsr()
        self.nu, self.np = A.shape[0], C.shape[0]
        self.tol = tol
        self.direct = (self.nu + self.np) <= direct_threshold
        if self.direct:
            self._lu = LuSolver(saddle_blocks(A, B, C), tol=tol, order=order)
        else:
            u_order = None if order is None else order[order < self.nu]
            self._solve_A = LuSolver(self.A, order=u_order)._apply

    def solve(self, f_u: np.ndarray, f_p: np.ndarray):
        start = time.perf_counter()
        f_u = np.asarray(f_u, dtype=float)
        f_p = np.asarray(f_p, dtype=float)
        if f_u.shape != (self.nu,) or f_p.shape != (self.np,):
            raise DimensionMismatch(
                f"rhs shapes {f_u.shape}, {f_p.shape} do not match blocks ({self.nu}, {self.np})"
            )
        rhs_norm = float(np.sqrt(f_u @ f_u + f_p @ f_p))
        if rhs_norm == 0.0:
            return (np.zeros(self.nu), np.zeros(self.np)), LinearSolveReport(
                0, 0.0, time.perf_counter() - start
            )

        if self.direct:
            x = self._lu._apply(np.concatenate([f_u, -f_p]))
            if not np.all(np.isfinite(x)):
                raise SingularSystem("saddle factorization produced non-finite solution")
            u, p = x[: self.nu], x[self.nu :]
            iterations = 0
        else:
            u, p, iterations = self._solve_schur(f_u, f_p)

        ru = self.A @ u - self.B.T @ p - f_u
        rp = self.B @ u + self.C @ p - f_p
        residual = float(np.sqrt(ru @ ru + rp @ rp) / rhs_norm)
        if residual > self.tol:
            raise NotConverged("saddle solve residual above tolerance", iterations, residual)
        return (u, p), LinearSolveReport(
            iterations, residual, time.perf_counter() - start
        )

    def _solve_schur(self, f_u, f_p):
        # (C + B A^-1 B^T) p = f_p - B A^-1 f_u, then A u = f_u + B^T p
        Ainv = self._solve_A
        rhs = f_p - self.B @ Ainv(f_u)

        def schur_mv(q):
            return self.C @ q + self.B @ Ainv(self.B.T @ q)

        p, iterations = _pcg(schur_mv, rhs, self.C.diagonal(), 0.01 * self.tol)
        u = Ainv(f_u + self.B.T @ p)
        return u, p, iterations
