"""Sparse solver contracts: CG for SPD systems, one direct LDL^T for quasi-definite ones.

Every solve recomputes its true relative residual from the returned vector
and reports it; a solve that cannot meet its tolerance raises instead of
returning silently wrong results. All paths are deterministic: identical
sequences of solves produce identical outputs (no randomized pivoting,
fixed iteration order), so two factorizations of one matrix given the same
right-hand sides in the same order give bit-identical solutions.

Every direct solve is one quasi-definite LDL^T. ``LuSolver`` owns the
numbering: it sorts each block of unknowns by diagonal sign, checks that K
is symmetric (to rounding; else ValueError) and permutes K once into that
order, keeping only the lower triangle T of K[order][:, order] in CSC,
about half of K. It does not keep K: a caller that drops its own K before
``factor`` holds T alone through the factorization. ``MultifrontalLdl``
factors T with dense Cholesky kernels front by front, reading each front's
columns as one contiguous slice of T, and solves in T's numbering; the
residual check and refinement apply T + T^T - diag(T) there, so a solve
permutes its right-hand side in and its solution out once. Each front
keeps its pivot factor as a packed lower triangle and its off-diagonal
block of L (transposed) in full, exactly the entries of L.
A front's update to later unknowns is symmetric and only its lower triangle
is read, so it is formed and stored as a lower trapezoid of column panels
``EXTEND_ADD_COLUMNS`` wide, about half of the square, and lives only until
its parent front has added it. A system that is quasi-definite only up to
the signs of some rows is passed with those rows negated: the caller signs
and stacks its blocks, as ``schemes`` does for the Biot saddle, and splits
the solution; an SPD matrix (the monolithic scheme's EM block) needs no
signs, and its fronts are all positive. Every factorization is ordered:
the caller gives the order as blocks of unknowns, which are the fronts of
the LDL^T. The schemes pass ``nested_dissection`` of the unknowns'
lattice locations. Any permutation gives the exact factorization; the fill
is only reduced when the points lie on the unit-cube lattice, where every
coupling spans at most one sub-cube and a lattice plane therefore separates
the unknowns on either side of it.

A factorization runs in two phases: a symbolic pass finds each front's rows
beyond its pivots (``_beyond_sets``), and with them the factor's entry
count, and the numeric pass reads those sets. A factor of more than
``FLOAT32_ENTRIES`` entries (32 MiB as float64) stores its packed pivot
factors and L21^T in float32, a smaller one in float64; at the schemes'
sizes that is the Biot saddle from n = 16 and the monolithic EM matrix from
n = 16 (every n <= 12 factor has at most 2.4M entries). Only the stored
copy is rounded: every front is extend-added, factored and updated in
float64. The sweeps run in the factor's dtype (``stpsv`` or ``dtpsv``, J in
that dtype) and return float64; T, every residual and the refinement stay
float64 (Buttari et al., ACM TOMS 34(4), 2008; Carson-Higham, SISC 40(2),
2018). If refinement on a float32 factor stalls above the tolerance,
``LuSolver`` factors T again in float64 and keeps that factor; a solve that
still misses raises ``NotConverged`` with the true residual. The size rule
follows the measured costs (one BLAS thread): a small factor's sweep is
call-bound (0.2-0.7 ms at n = 8 in either dtype), so a float32 factor would
gain nothing there, while a large one is byte-bound (the n = 16 saddle's
float32 sweep takes 4.8 ms against 8.0 ms, 46 against 55 ms at n = 24) and
its bytes halve: 24.8 instead of 49.6 MB for the n = 16 saddle
(``BENCH_mixed_precision.json``). A solver whose factor is float32 keeps
its last ``START_SOLUTIONS`` solutions X and right-hand sides B = K X (to the
tolerance) in the factor's numbering, and once it holds that many, a solve
of b starts from X c, c the least-squares solution of B c = b: a projection
onto earlier solutions (Fischer, CMAME 163, 1998) in the residual norm, as
K may be indefinite; the first sweep solves for the correction. From
the schemes' time steps this meets the tolerance in one sweep where a cold
solve needs two (``BENCH_warm_start.json``): the span holds the
extrapolation 2 x_{n-1} - x_{n-2} and follows modes that decay
geometrically. Refinement converges from any start (Moler, J. ACM 14(2),
1967), so a start changes how many sweeps a solve takes, never whether it
meets ``tol``. A float64 factor, the refactor after a stall included,
keeps no solutions and solves cold.
Iterative SPD solves run a Jacobi-preconditioned CG: ``SpdSolver(A, tol).solve(b)``.
"""

from __future__ import annotations

import math
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


#: Nested dissection splits index sets of more than this many unknowns; a smaller one is one block.
FRONT_MAX = 128

#: Width of the column panels an update is stored, formed and extend-added in.
EXTEND_ADD_COLUMNS = 64

#: A matrix is symmetric when max|K - K^T| is at most this times max|K|.
SYMMETRY_RTOL = 1e-14

#: Most refinement sweeps of a direct solve whose first residual misses its tolerance.
REFINE_SWEEPS = 3

#: An LDL^T of more entries than this (32 MiB as float64) stores them in float32 (module doc).
FLOAT32_ENTRIES = 2**22

#: A solve on a float32 factor starts from a combination of this many earlier solutions (module doc).
START_SOLUTIONS = 4


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


def _pcg(A: sp.spmatrix, inv_diag: np.ndarray, b: np.ndarray, rtol: float):
    """CG on the SPD matrix ``A``, preconditioned by the diagonal ``inv_diag``.

    Stops once the recursive residual satisfies ||r|| <= rtol ||b|| or after
    max(1000, 10 n) iterations and returns (x, iterations); the caller
    checks the true residual. Nonpositive curvature raises NotConverged
    with the true residual of the current iterate.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0 or n == 0:
        return np.zeros(n), 0

    # x, r, z and p are updated in place, through one scratch vector
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    scratch = np.empty(n)
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
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, Ap, out=scratch)
        if np.linalg.norm(r) <= rtol * bnorm:
            break
        np.multiply(inv_diag, r, out=z)
        rz_next = r @ z
        p *= rz_next / rz
        p += z
        rz = rz_next
    return x, iterations


class SpdSolver:
    """Jacobi-preconditioned conjugate gradients for one SPD matrix, reusable across solves.

    Keeps the CSR form of ``A``, its Jacobi preconditioner 1 / diag(A) (1
    where the diagonal is not positive) and the tolerance. ``solve`` returns
    (x, LinearSolveReport); the reported relative residual is recomputed as
    ||A x - b|| / ||b|| after the iteration. Nonpositive curvature (an
    indefinite matrix) aborts with NotConverged.
    """

    def __init__(self, A: sp.spmatrix, tol: float = 1e-10):
        if not (0.0 < tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
        self.A = A.tocsr()
        self.tol = tol
        diag = self.A.diagonal()
        self._inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)

    def solve(self, b: np.ndarray):
        start = time.perf_counter()
        b = np.asarray(b, dtype=float)
        _check_square(self.A, b)
        x, iterations = _pcg(self.A, self._inv_diag, b, 0.1 * self.tol)
        bnorm = np.linalg.norm(b)
        residual = float(np.linalg.norm(b - self.A @ x) / bnorm) if bnorm > 0.0 else 0.0
        if residual > self.tol:
            raise NotConverged("conjugate gradients did not reach tolerance", iterations, residual)
        return x, LinearSolveReport(iterations, residual, time.perf_counter() - start)


def nested_dissection(points: np.ndarray) -> list[np.ndarray]:
    """Nested-dissection elimination order of unknowns located at ``points``, as blocks.

    ``points`` are (N, 3) coordinates in lattice units: the lattice planes
    sit at integer coordinates. Each index set of more than ``FRONT_MAX``
    unknowns is split at the lattice plane nearest the median of its widest
    axis, into the blocks of the points below the plane, then those of the
    points above it, then the points on it (the separator) as one block. A
    set of at most ``FRONT_MAX`` unknowns, or one within a single lattice
    slab, is one block in its given order: a block is one dense front, so
    the order inside it changes no fill. The blocks are nonempty and their
    concatenation is a permutation of ``arange(N)``.
    """
    coords = np.asarray(points, dtype=float).T.copy()
    return [b for b in _dissect(coords, np.arange(coords.shape[1])) if b.size]


def _dissect(coords: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """The blocks of ``nested_dissection`` for the unknowns ``idx``, ``coords`` (3, N) their
    locations. A module function, not a closure: a closure that calls itself is a reference
    cycle, which would keep ``coords`` alive until the cycle collector runs."""
    n = len(idx)
    if n > FRONT_MAX:
        xs = [c[idx] for c in coords]
        lo = [float(x.min()) for x in xs]
        hi = [float(x.max()) for x in xs]
        extent = [h - l for l, h in zip(lo, hi)]
        axis = extent.index(max(extent))  # the first widest, as np.argmax
        if extent[axis] >= 1.0:  # else all lie within one lattice slab
            x = xs[axis]
            k = n // 2
            part = np.partition(x, (k - 1, k))
            median = float(part[k]) if n % 2 else (float(part[k - 1]) + float(part[k])) / 2.0
            nearest = max(math.floor(median + 0.5), math.ceil(lo[axis]))
            mid = float(min(nearest, math.floor(hi[axis])))
            return _dissect(coords, idx[x < mid]) + _dissect(coords, idx[x > mid]) + [idx[x == mid]]
    return [idx]


class MultifrontalLdl:
    """Multifrontal LDL^T of a symmetric quasi-definite matrix, front by front.

    ``T`` is the lower triangle (diagonal included) of the matrix in
    elimination order, as CSC; ``starts`` are the fronts' first unknowns
    and, last, the size: front f is unknowns starts[f]..starts[f+1]-1, its
    positive-diagonal unknowns first (``LuSolver`` builds both). Each front
    reads its columns of T as one contiguous slice. The factorization is
    T + T^T - diag(T) = L J L^T with L lower triangular and J = diag(+-1)
    the sign of the diagonal. A front's pivot block [[P, Q], [Q^T, -R]] is
    factored by Cholesky: L_P = chol(P), X = L_P^{-1} Q, L_S = chol(R + X^T X);
    the block of L below it is L21 = F21 (pivot factor)^{-T} J, and its
    update to the later unknowns is F22 - L21 J L21^T. This exists for every
    symmetric permutation of a quasi-definite matrix (A and R SPD in
    [[A, B^T], [B, -R]]); any other matrix fails a Cholesky step and raises
    SingularSystem.

    The tree of fronts follows from the sparsity pattern: a front's update
    goes to the front holding its first row beyond the pivots. Each front
    stores its pivot factor as the packed lower triangle (LAPACK ``TP``
    storage) and L21^T in full, which together are exactly the entries of L.
    An update is only ever read on and below its diagonal, so the working
    F22 and every pending update are kept as lower trapezoids: one flat
    array of column panels ``EXTEND_ADD_COLUMNS`` wide, each holding its
    columns from the diagonal down (``_panels``), about half of the r x r
    square. A child's update is extend-added into its parent panel by panel,
    its lower triangle only, and released as soon as it has been added,
    before the parent is factored.

    ``entries`` is the number of stored entries, from the symbolic phase;
    ``dtype`` the stored one: float32 when ``entries`` exceeds
    ``FLOAT32_ENTRIES`` unless the caller gives it (module docstring).
    """

    def __init__(self, T: sp.csc_matrix, starts: np.ndarray, dtype=None) -> None:
        n = T.shape[0]
        self.shape = T.shape
        indptr, indices, data = T.indptr, T.indices, T.data
        positive = T.diagonal() > 0.0
        beyonds = _beyond_sets(T, starts)
        sizes = np.diff(starts).tolist()
        self.entries = int(sum(k * (k + 1) // 2 + k * R.size for k, R in zip(sizes, beyonds)))
        if dtype is None:
            dtype = np.float32 if self.entries > FLOAT32_ENTRIES else np.float64
        self.dtype = np.dtype(dtype)
        pos = np.empty(n, dtype=np.int64)  # position -> row of the current front
        pending: dict[int, list] = {}
        self.fronts = []
        for f, beyond in enumerate(beyonds):
            s, e = int(starts[f]), int(starts[f + 1])
            k, k1, r = e - s, int(positive[s:e].sum()), beyond.size
            rows = indices[indptr[s] : indptr[e]]
            vals = data[indptr[s] : indptr[e]]
            cols = np.repeat(np.arange(k), np.diff(indptr[s : e + 1]))
            children = pending.pop(f, [])
            pos[s:e] = np.arange(k)
            pos[beyond] = np.arange(r)
            F11 = np.zeros((k, k), order="F")
            F21 = np.zeros((r, k), order="F")
            F22 = np.zeros(_panels(r)[2][-1])
            piv = rows < e
            F11[rows[piv] - s, cols[piv]] = vals[piv]
            F21[pos[rows[~piv]], cols[~piv]] = vals[~piv]
            children.reverse()
            while children:  # extend-add in the order the children were factored
                R, U = children.pop()
                _extend_add(F11, F21, F22, pos[R], int(np.searchsorted(R, e)), U)
                del U
            L = _pivot_factor(F11, k1)
            V = blas.dtrsm(1.0, L, F21, side=1, lower=1, trans_a=1, overwrite_b=1)  # in F21
            L21T = np.empty((k, r), order="F")  # (V J)^T, column-major for the panels' dgemm
            np.multiply(V.T, np.where(np.arange(k) < k1, 1.0, -1.0)[:, None], out=L21T)
            if r:
                _subtract_update(F22, L21T, V)
                parent = int(np.searchsorted(starts, beyond[0], side="right")) - 1
                pending.setdefault(parent, []).append((beyond, F22))
            del V, F21
            packed, _ = lapack.dtrttp(L, uplo="L")
            # the stored copies, rounded to the factor's dtype (no copy in float64)
            packed, L21T = packed.astype(self.dtype, copy=False), L21T.astype(self.dtype, copy=False)
            self.fronts.append((s, e, k1, packed, L21T, beyond))
            del F11, F22, L  # the packed copy is kept
        # what a solve reads: each front's L21 (a view of L21T^T) and J as a +-1 vector
        self._sweep = [(s, e, packed, L21T, L21T.T, R) for s, e, _, packed, L21T, R in self.fronts]
        self._signs = np.where(positive, 1.0, -1.0).astype(self.dtype)
        self._tpsv = blas.get_blas_funcs("tpsv", dtype=self.dtype)

    @property
    def L(self) -> sp.csc_matrix:
        """The lower-triangular factor L of T + T^T - diag(T) = L J L^T, assembled from the fronts."""
        rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for s, e, k1, packed, L21T, R in self.fronts:
            j, i = np.triu_indices(e - s)  # the packed lower triangle runs down each column
            rows += [s + i, np.repeat(R, e - s)]
            cols += [s + j, np.tile(np.arange(s, e), R.size)]
            vals += [packed, L21T.T.ravel()]
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=self.shape
        )

    @property
    def U(self) -> sp.csc_matrix:
        """No upper factor is stored (it is J L^T): an empty matrix. ``perfbench/tracing.py``
        counts a factor's fill as ``L.nnz + U.nnz``, so this keeps that sum the stored entries."""
        return sp.csc_matrix(self.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(L J L^T)^{-1} b, b and the result in T's numbering: forward through L, J and back
        through L^T, in the factor's dtype; returns float64 and raises if not finite.

        Each front's triangular solve runs in place on its rows of a copy of b. J is applied
        once, after the forward sweep: no front reads another front's signed rows.
        """
        y, tpsv = np.array(b, dtype=self.dtype), self._tpsv
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite result raises below
            for s, e, packed, _, L21, R in self._sweep:
                x = y[s:e]
                tpsv(e - s, packed, x, lower=1, overwrite_x=1)
                if R.size:
                    y[R] -= L21 @ x
            y *= self._signs
            for s, e, packed, L21T, _, R in reversed(self._sweep):
                x = y[s:e]
                if R.size:
                    x -= L21T @ y[R]
                tpsv(e - s, packed, x, lower=1, trans=1, overwrite_x=1)
        if not np.all(np.isfinite(y)):
            raise SingularSystem("factorization produced non-finite solution")
        return y.astype(np.float64, copy=False)


def _beyond_sets(T: sp.csc_matrix, starts: np.ndarray) -> list[np.ndarray]:
    """The symbolic phase: each front's rows beyond its pivots, sorted.

    They are the front's own rows of T below its last pivot and its children's rows
    beyond it; a front is the child of the front holding its first row beyond its pivots.
    """
    indptr, indices = T.indptr, T.indices
    beyonds, children = [], {}
    for f in range(len(starts) - 1):
        s, e = int(starts[f]), int(starts[f + 1])
        rows = indices[indptr[s] : indptr[e]].astype(np.intp)  # a solve indexes by these
        R = np.unique(np.concatenate([rows[rows >= e]] + [R[R >= e] for R in children.pop(f, [])]))
        if R.size:
            children.setdefault(int(np.searchsorted(starts, R[0], side="right")) - 1, []).append(R)
        beyonds.append(R)
    return beyonds


def _panels(r: int):
    """Column panels of an r x r lower trapezoid, ``EXTEND_ADD_COLUMNS`` wide.

    Returns each panel's first column c0 and width w, and the offsets of the
    panels in the flat store: panel p holds rows c0..r-1 of its w columns,
    column-major, at store[offsets[p]:offsets[p + 1]].
    """
    c0 = np.arange(0, r, EXTEND_ADD_COLUMNS)
    w = np.minimum(EXTEND_ADD_COLUMNS, r - c0)
    return c0, w, np.concatenate([[0], np.cumsum((r - c0) * w)])


def _panel_views(store: np.ndarray, r: int):
    """(c0, w, panel) for each panel of the lower trapezoid ``store``; ``panel[i, j]`` is entry
    (c0 + i, c0 + j) and a view into the store."""
    c0, w, offsets = _panels(r)
    for c, width, a, b in zip(c0.tolist(), w.tolist(), offsets[:-1], offsets[1:]):
        yield c, width, store[a:b].reshape(r - c, width, order="F")


def _subtract_update(F22: np.ndarray, L21T: np.ndarray, V: np.ndarray) -> None:
    """F22 -= L21 J L21^T = L21 V^T on the panels of the lower trapezoid F22 (V = L21 J).

    One ``dgemm`` forms each panel, its diagonal block whole (its upper half
    is formed too and never read): a panel's diagonal block is not
    contiguous, so a ``dsyrk`` of it would need a copy.
    """
    for c0, w, panel in _panel_views(F22, L21T.shape[1]):
        blas.dgemm(-1.0, L21T[:, c0:], V[c0 : c0 + w], 1.0, panel, trans_a=1, trans_b=1, overwrite_c=1)


def _extend_add(F11: np.ndarray, F21: np.ndarray, F22: np.ndarray, x: np.ndarray, t: int, U):
    """Add a child's update U, a lower trapezoid in panels, into a front's F11, F21 and F22.

    The child's rows and columns sit at positions ``x`` of the front: the
    first t are its pivots (rows and columns of F11, columns of F21), the
    rest lie beyond it (rows of F21, rows and columns of the trapezoid F22).
    Only entries on or below the child's diagonal are added, one panel at a
    time, so the index arrays hold at most (rows of U) x
    ``EXTEND_ADD_COLUMNS`` entries.
    """
    r, k = F21.shape
    f11, f21 = F11.ravel(order="F"), F21.ravel(order="F")
    c0, w, offsets = _panels(r)
    first = c0.repeat(w)  # of each column's panel in F22
    base = offsets[:-1].repeat(w) + (np.arange(r) - first) * (r - first) - first  # + row = entry
    for c, width, panel in _panel_views(U, x.size):
        end = c + width
        if c < t:  # columns on the front's pivots
            j = min(end, t)
            _add_lower(f11, k * x[c:j], x[c:t], panel[: t - c, : j - c], c, c)
            _add_lower(f21, r * x[c:j], x[t:], panel[t - c :, : j - c], t, c)
        if end > t:  # columns beyond the front
            j = max(c, t)
            _add_lower(F22, base[x[j:end]], x[j:], panel[j - c :, j - c :], j, j)


def _add_lower(flat: np.ndarray, col_start, rows: np.ndarray, V, i0: int, j0: int) -> None:
    """flat[col_start[j] + rows[i]] += V[i, j] for rows i0 + i at or below columns j0 + j."""
    index = col_start[:, None] + rows  # (columns, rows), the order V's entries lie in
    VT = V.T
    h = min(max(j0 + col_start.size - i0, 0), rows.size)  # leading rows the diagonal cuts
    if h:
        lower = np.arange(j0, j0 + col_start.size)[:, None] <= np.arange(i0, i0 + h)
        np.add.at(flat, index[:, :h][lower], VT[:, :h][lower])
    np.add.at(flat, index[:, h:].ravel(), VT[:, h:].ravel())


def _pivot_factor(F11: np.ndarray, k1: int) -> np.ndarray:
    """Lower factor of a front's pivot block [[P, Q], [Q^T, -R]] (positive part first, k1 wide).

    Returns [[L_P, 0], [X^T, L_S]] with L_P = chol(P), X = L_P^{-1} Q and
    L_S = chol(R + X^T X), in place of F11's lower triangle.
    """
    if k1 == F11.shape[0]:
        return _cholesky(F11, "the matrix is not positive definite to working precision")
    if k1 == 0:
        return _cholesky(-F11, "the matrix is not quasi-definite (a front of non-positive pivots)")
    F11[:k1, :k1] = L_P = _cholesky(F11[:k1, :k1], "the matrix is not quasi-definite (a mixed front's P)")
    F11[k1:, :k1] = XT = blas.dtrsm(1.0, L_P, F11[k1:, :k1], side=1, lower=1, trans_a=1)
    F11[k1:, k1:] = _cholesky(blas.dsyrk(1.0, XT, -1.0, F11[k1:, k1:], lower=1),
                              "the matrix is not quasi-definite (a mixed front's R + X^T X)")
    return F11


def _cholesky(A: np.ndarray, why: str) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix whose lower triangle is A's; else SingularSystem(why)."""
    c, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SingularSystem(f"Cholesky step of the LDL^T failed: {why}")
    return c


class LuSolver:
    """Direct factorization with honest residual reporting; reusable across solves.

    ``order`` is the list of blocks of unknowns in elimination order, such as
    ``nested_dissection`` returns, in any sign order; blocks that are not a
    permutation of K's unknowns raise DimensionMismatch. The constructor
    sorts each block by the sign of K's diagonal, positive first (``order``
    then holds K's unknowns in the factor's numbering and ``rank`` the
    inverse), and keeps K's lower triangle in that numbering (``lower``, T,
    CSC) and its diagonal; K itself is not kept. A K that is not symmetric
    to ``SYMMETRY_RTOL`` raises ValueError. ``factor`` runs the LDL^T of T
    (``lu``, a ``MultifrontalLdl``, stored in float32 or float64 by its
    size); a symmetric K that is not quasi-definite raises SingularSystem
    there. A caller that drops K between the two holds T alone while the
    factor is built. ``solve`` takes one right-hand side in K's numbering: a
    block system's caller stacks it and splits the solution. A float32
    factor comes with ``kept``, the (2, n, ``START_SOLUTIONS``) store of the
    solver's latest solutions and right-hand sides that a solve starts from
    (module docstring); any other factor has ``kept`` None.
    """

    def __init__(self, K: sp.spmatrix, order, tol: float = 1e-9):
        K = K.tocsc()
        K.sum_duplicates()
        self.tol = tol
        n = K.shape[0]
        if n and abs(K - K.T).max() > SYMMETRY_RTOL * abs(K).max():
            raise ValueError("LuSolver factors symmetric matrices only; K is not symmetric")
        sizes = [b.size for b in order if b.size]
        perm = np.concatenate([np.zeros(0, dtype=np.int64), *order])
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise DimensionMismatch(f"blocks are not a permutation of the {n} unknowns")
        diag = K.diagonal()
        front = np.repeat(np.arange(len(sizes)), sizes)  # sorted by front, then by sign, stably
        self.order = perm = perm[np.lexsort((diag[perm] <= 0.0, front))]
        self.rank = np.empty(n, dtype=np.int64)  # unknown of K -> position in ``order``
        self.rank[perm] = np.arange(n)
        self._starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._diag = diag[perm]
        self.lower = sp.tril(K[perm][:, perm], format="csc")
        self.lu = self.kept = None  # set by ``factor``

    def factor(self, dtype=None) -> "LuSolver":
        """Build the LDL^T of T (``lu``), stored in ``dtype`` (by default by ``FLOAT32_ENTRIES``),
        and return the solver."""
        self.lu = self.kept = None  # a factor built again frees the old one first
        self.lu = MultifrontalLdl(self.lower, self._starts, dtype)
        self._upper = self.lower.T  # T^T in CSR: a view of T's arrays, built once for the solves
        if self.lu.dtype != np.float64:
            self.kept, self._solves = np.zeros((2, self.lower.shape[0], START_SOLUTIONS)), 0
        return self

    def _residual(self, b: np.ndarray, y: np.ndarray) -> np.ndarray:
        """b - (T + T^T - diag(T)) y, the residual in the factor's numbering."""
        r = b - self.lower @ y
        r -= self._upper @ y
        r += self._diag * y
        return r

    def solve(self, rhs: np.ndarray):
        """K^{-1} rhs and its report; raises if the true residual is above ``tol``.

        The residual is that of K's lower triangle mirrored, in the factor's numbering. The
        first sweep solves for rhs, or, once a float32 factor's ``kept`` is full, for the
        correction to the start X c (module docstring). A first sweep that misses ``tol`` is
        refined with the same factors while its residual falls, for at most ``REFINE_SWEEPS``
        sweeps: the report's iterations, which do not count the first sweep. If a float32
        factor leaves the residual above ``tol``, T is factored again in float64, which the
        solver keeps, and the solve starts over on it, cold. Each nonzero rhs and its solution
        replace the oldest pair in ``kept``; the projection does not depend on their order.
        """
        t0 = time.perf_counter()
        rhs = np.asarray(rhs, dtype=float)
        _check_square(self.lower, rhs)
        b = rhs[self.order]
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(b.size), LinearSolveReport(0, 0.0, time.perf_counter() - t0)
        start = None
        if self.kept is not None and self._solves >= START_SOLUTIONS:
            X, B = self.kept
            start = X @ np.linalg.lstsq(B, b, rcond=None)[0]
        y, sweeps, residual = self._refined(b, bnorm, start)
        if residual > self.tol and self.lu.dtype != np.float64:
            y, sweeps, residual = self.factor(np.float64)._refined(b, bnorm)
        if residual > self.tol:
            raise NotConverged("direct solve residual above tolerance", sweeps, residual)
        if self.kept is not None:
            self.kept[:, :, self._solves % START_SOLUTIONS] = y, b
            self._solves += 1
        return y[self.rank], LinearSolveReport(sweeps, residual, time.perf_counter() - t0)

    def _refined(self, b: np.ndarray, bnorm: float, y0: np.ndarray | None = None):
        """(y, sweeps, residual): a sweep from ``y0`` (cold without it), refined while its
        residual is above ``tol`` and falls, for at most ``REFINE_SWEEPS`` sweeps."""
        y = self.lu.solve(b) if y0 is None else y0 + self.lu.solve(self._residual(b, y0))
        sweeps = 0
        r = self._residual(b, y)
        residual = float(np.linalg.norm(r) / bnorm)
        while residual > self.tol and sweeps < REFINE_SWEEPS:
            y_next = y + self.lu.solve(r)
            r_next = self._residual(b, y_next)
            residual_next = float(np.linalg.norm(r_next) / bnorm)
            if not residual_next < residual:
                break
            y, r, residual, sweeps = y_next, r_next, residual_next, sweeps + 1
        return y, sweeps, residual


class SaddleSolver(LuSolver):
    """The Biot saddle system's ``LuSolver``: the same factor and solve under a name of its own.

    ``schemes`` builds, signs and stacks the system and splits the solution;
    a traced run reports these solves apart from those of the monolithic
    scheme's EM matrix, a plain ``LuSolver``.
    ``solve`` is the class's own attribute, so a wrapper on ``LuSolver.solve``
    sees no saddle solve.
    """

    solve = LuSolver.solve
