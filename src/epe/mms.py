"""Manufactured exact solution, derived sources, and error norms.

The built-in case uses the separable product w(x) = sin(pi x) sin(pi y)
sin(pi z) for every field: E = w sin(t) (1,1,1), u = w e^{-t} (1,1,1),
p = w e^{-t}, and H the time-periodic field with mu dH/dt + curl E = 0.
The sources j, f, g are the closed forms obtained by substituting these
fields into the strong equations; they are validated against a
finite-difference residual oracle in the test suite.

Each source is time-separable: a sum of at most three terms a_k(t) phi_k(x)
with a_k one of sin t, cos t, e^{-t}. ``SeparableSource`` keeps those terms
visible, so the time stepper can assemble every phi_k load vector once and
combine them per step with a few axpys. It is still a plain (t, pts)
evaluator; any other callable is assembled by quadrature at every step.

Every field and source term reads one table of sines and cosines of the
points (``_sin_cos``). The loads of one setup all receive the same read-only
point table, so each ``ExactSolution`` computes its sin/cos table once
(``_trig_table``) and frees it with the points.

Error norms take the cell geometry block by block: each block of cells has
its gradients and volumes computed once, for its fields and its weights.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from epe.core import PhysicalParams
from epe.fem import assembly
from epe.fem.quadrature import quadrature_rule
from epe.mesh import TetMesh

Vec = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SeparableSource:
    """The source sum_k a_k(t) phi_k(pts), as (a_k, phi_k) pairs in ``terms``.

    Called as (t, pts) it evaluates the sum, like any other source. The
    terms live in the instance ``__dict__`` (no ``__slots__``), so a wrapper
    made with ``functools.wraps`` carries them too.
    """

    terms: tuple[tuple[Callable[[float], float], Callable[[np.ndarray], np.ndarray]], ...]

    def __call__(self, t: float, pts: np.ndarray) -> np.ndarray:
        (a0, phi0), *rest = self.terms
        out = a0(t) * phi0(pts)
        for a, phi in rest:
            out += a(t) * phi(pts)
        return out


def _exp_neg(t):
    return np.exp(-t)


@dataclass(frozen=True)
class ExactSolution:
    """Evaluators of the exact fields, their needed derivatives, and sources.

    Every evaluator takes (t, pts) with pts of shape (m, 3); vector fields
    return (m, 3) and scalars (m,). ``fields`` returns (E, H, u, grad_u, p)
    at once, built from one table of sines and cosines of the points;
    grad_u is (m, 3, 3) with [r, c] = d_c u_r.
    """

    E: Vec
    H: Vec
    u: Vec
    p: Vec
    j: Vec
    f: Vec
    g: Vec
    fields: Callable[[float, np.ndarray], tuple[np.ndarray, ...]]


def _trig_table() -> Callable:
    """A ``_sin_cos`` that keeps the table of the last read-only points array while it lives.

    A read-only points array (the load point table of ``fem.assembly``) is
    taken as fixed, so the source terms and initial fields loaded on it
    share one table, freed with the array.
    """
    last: list = [None, None]          # weak reference to the points array, its table

    def forget(ref) -> None:
        if last[0] is ref:
            last[:] = None, None

    def trig(pts: np.ndarray):
        ref, table = last
        if ref is not None and ref() is pts:
            return table
        table = _sin_cos(pts)
        if not pts.flags.writeable:
            last[:] = weakref.ref(pts, forget), table
        return table

    return trig


def _sin_cos(pts: np.ndarray):
    """(sin pi x, cos pi x, sin pi y, cos pi y, sin pi z, cos pi z): the table of every field."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    pi = np.pi
    return (
        np.sin(pi * x), np.cos(pi * x),
        np.sin(pi * y), np.cos(pi * y),
        np.sin(pi * z), np.cos(pi * z),
    )


# Spatial factors, each evaluated from a table ``tr`` of ``_sin_cos``.


def _w(tr):
    sx, _, sy, _, sz, _ = tr
    return sx * sy * sz


def _grad_w(tr):
    sx, cx, sy, cy, sz, cz = tr
    pi = np.pi
    return pi * np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz], axis=1)


def _div_sum(tr):
    """w_x + w_y + w_z (the spatial factor of div u and div E)."""
    return _grad_w(tr).sum(axis=1)


def _grad_div_sum(tr):
    """Gradient of w_x + w_y + w_z."""
    sx, cx, sy, cy, sz, cz = tr
    pi2 = np.pi**2
    w = sx * sy * sz
    gx = pi2 * (cx * cy * sz + cx * sy * cz - w)
    gy = pi2 * (cx * cy * sz + sx * cy * cz - w)
    gz = pi2 * (cx * sy * cz + sx * cy * cz - w)
    return np.stack([gx, gy, gz], axis=1)


def _curl_w_ones(tr):
    """curl(w (1,1,1)) / time factor = grad(w) x (1,1,1)."""
    g = _grad_w(tr)
    return np.stack([g[:, 1] - g[:, 2], g[:, 2] - g[:, 0], g[:, 0] - g[:, 1]], axis=1)


def example61(params: PhysicalParams) -> ExactSolution:
    """The separable sine-product manufactured solution and its sources.

    The sources j (three terms: sin, cos, e^{-t}), f (one: e^{-t}) and g
    (two: e^{-t}, sin) are ``SeparableSource`` sums.

    H carries a 1/mu factor so the induction equation mu dH/dt + curl E = 0
    holds identically for any permeability (it reduces to the classic form
    at mu = 1).
    """
    eps, mu, sigma, L = params.epsilon, params.mu, params.sigma, params.L
    lam_c, G, alpha, c0, kappa = params.lambda_c, params.G, params.alpha, params.c0, params.kappa
    pi2 = np.pi**2
    ones3 = np.ones(3)
    trig = _trig_table()

    # The fields at time t from a trig table, in the order of ``fields``.
    def E(t, tr):
        return np.sin(t) * _w(tr)[:, None] * ones3

    def H(t, tr):
        return (np.cos(t) / mu) * _curl_w_ones(tr)

    def u(t, tr):
        return np.exp(-t) * _w(tr)[:, None] * ones3

    def grad_u(t, tr):
        g = np.exp(-t) * _grad_w(tr)             # (m, 3) gradient of each component
        return np.broadcast_to(g[:, None, :], (g.shape[0], 3, 3))

    def p(t, tr):
        return np.exp(-t) * _w(tr)

    def fields(t, pts):
        tr = trig(pts)
        return tuple(field(t, tr) for field in (E, H, u, grad_u, p))

    def at_points(field):
        return lambda t, pts: field(t, trig(pts))

    def j_sin(pts):
        return sigma * _w(trig(pts))[:, None] * ones3

    def j_cos(pts):
        # (eps dE/dt - curl H) / cos t, with
        # curl H = (cos t / mu) (grad(div_sum) + 3 pi^2 w (1,1,1))
        tr = trig(pts)
        w = _w(tr)
        out = eps * w[:, None] * ones3
        out -= (_grad_div_sum(tr) + 3.0 * pi2 * w[:, None] * ones3) / mu
        return out

    def j_exp(pts):
        return -L * _grad_w(trig(pts))

    def f_exp(pts):
        tr = trig(pts)
        out = -lam_c * _grad_div_sum(tr)
        out += 3.0 * G * pi2 * _w(tr)[:, None] * ones3   # -G * Laplacian(u), Lap w = -3 pi^2 w
        out += alpha * _grad_w(tr)
        return out

    def g_exp(pts):
        tr = trig(pts)
        w = _w(tr)
        out = -(c0 * w + alpha * _div_sum(tr))    # d/dt (c0 p + alpha div u)
        out += 3.0 * kappa * pi2 * w               # -kappa * Laplacian(p)
        return out

    def g_sin(pts):
        return L * _div_sum(trig(pts))            # L div E

    j = SeparableSource(((np.sin, j_sin), (np.cos, j_cos), (_exp_neg, j_exp)))
    f = SeparableSource(((_exp_neg, f_exp),))
    g = SeparableSource(((_exp_neg, g_exp), (np.sin, g_sin)))

    return ExactSolution(
        E=at_points(E), H=at_points(H), u=at_points(u), p=at_points(p), j=j, f=f, g=g,
        fields=fields,
    )


@dataclass(frozen=True)
class ErrorNorms:
    E_L2: float
    H_L2: float
    u_L2: float
    u_H1: float
    p_L2: float

    def as_dict(self) -> dict:
        return asdict(self)


#: Cells per block of the error quadrature: bounds its temporaries (the
#: grad u differences of all cells take 48 MB at n = 16). At 2048 cells,
#: two thirds of the n = 8 mesh, they peaked at 15.1 MB traced and lifted
#: the peak RSS of an n = 8 monolithic run from 86 to 93 MB; at 256 they
#: peak at 2.0 MB and the norms take no longer (traced medians 47 -> 34 ms
#: at n = 8, 267 -> 248 ms at n = 16).
ERROR_BLOCK_CELLS = 256


def error_norms(
    state,
    exact: ExactSolution,
    t: float,
    mesh: TetMesh,
    quad_degree: int = 5,
) -> ErrorNorms:
    """L2 errors of E, H, u, p and the full H1 error of u at time t.

    The H1 norm includes the L2 part: ||v||_1^2 = ||v||^2 + ||grad v||^2.
    The quadrature runs over blocks of ``ERROR_BLOCK_CELLS`` cells: int_K f = 6 V_K sum_q w_q f(x_q).
    """
    if quad_degree < 4:
        raise ValueError(f"error quadrature degree must be >= 4, got {quad_degree}")
    w = quadrature_rule(quad_degree).weights
    nq = w.size
    sq = np.zeros(5)  # squared errors of E, H, u, grad u, p
    for start in range(0, mesh.num_cells, ERROR_BLOCK_CELLS):
        cells = slice(start, start + ERROR_BLOCK_CELLS)
        g, vols = mesh.cell_geometry(cells)
        cell_w = 6.0 * vols
        discrete = (
            assembly.evaluate_E(mesh, state.E, g, quad_degree, cells),
            assembly.evaluate_H(mesh, state.H, cells)[:, None, :],
            assembly.evaluate_U(mesh, state.u, quad_degree, cells),
            assembly.evaluate_grad_U(mesh, state.u, g, cells)[:, None, :, :],
            assembly.evaluate_P(mesh, state.p, quad_degree, cells),
        )
        pts = assembly.quadrature_points(mesh, quad_degree, cells).reshape(-1, 3)
        for k, (h, ex) in enumerate(zip(discrete, exact.fields(t, pts))):
            nc = h.shape[0]
            diff = (h - ex.reshape(nc, nq, *ex.shape[1:])).reshape(nc, nq, -1)
            sq[k] += (np.einsum("cqx,cqx->cq", diff, diff) @ w) @ cell_w
    err_E, err_H, err_u, err_gu, err_p = sq
    return ErrorNorms(*np.sqrt([err_E, err_H, err_u, err_u + err_gu, err_p]))

