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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from epe.core import PhysicalParams
from epe.fem import assembly
from epe.fem.dofs import Layouts
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
    return (m, 3), scalars (m,), and grad_u returns (m, 3, 3) with
    [r, c] = d_c u_r.
    """

    E: Vec
    H: Vec
    u: Vec
    p: Vec
    grad_u: Vec
    j: Vec
    f: Vec
    g: Vec


def _trig(pts: np.ndarray):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    pi = np.pi
    return (
        np.sin(pi * x), np.cos(pi * x),
        np.sin(pi * y), np.cos(pi * y),
        np.sin(pi * z), np.cos(pi * z),
    )


def _w(pts):
    sx, _, sy, _, sz, _ = _trig(pts)
    return sx * sy * sz


def _grad_w(pts):
    sx, cx, sy, cy, sz, cz = _trig(pts)
    pi = np.pi
    return pi * np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz], axis=1)


def _div_sum(pts):
    """w_x + w_y + w_z (the spatial factor of div u and div E)."""
    return _grad_w(pts).sum(axis=1)


def _grad_div_sum(pts):
    """Gradient of w_x + w_y + w_z."""
    sx, cx, sy, cy, sz, cz = _trig(pts)
    pi2 = np.pi**2
    w = sx * sy * sz
    gx = pi2 * (cx * cy * sz + cx * sy * cz - w)
    gy = pi2 * (cx * cy * sz + sx * cy * cz - w)
    gz = pi2 * (cx * sy * cz + sx * cy * cz - w)
    return np.stack([gx, gy, gz], axis=1)


def _curl_w_ones(pts):
    """curl(w (1,1,1)) / time factor = grad(w) x (1,1,1)."""
    g = _grad_w(pts)
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

    def E(t, pts):
        return np.sin(t) * _w(pts)[:, None] * ones3

    def H(t, pts):
        return (np.cos(t) / mu) * _curl_w_ones(pts)

    def u(t, pts):
        return np.exp(-t) * _w(pts)[:, None] * ones3

    def p(t, pts):
        return np.exp(-t) * _w(pts)

    def grad_u(t, pts):
        g = np.exp(-t) * _grad_w(pts)            # (m, 3) gradient of each component
        return np.repeat(g[:, None, :], 3, axis=1)

    def j_sin(pts):
        return sigma * _w(pts)[:, None] * ones3

    def j_cos(pts):
        # (eps dE/dt - curl H) / cos t, with
        # curl H = (cos t / mu) (grad(div_sum) + 3 pi^2 w (1,1,1))
        w = _w(pts)
        out = eps * w[:, None] * ones3
        out -= (_grad_div_sum(pts) + 3.0 * pi2 * w[:, None] * ones3) / mu
        return out

    def j_exp(pts):
        return -L * _grad_w(pts)

    def f_exp(pts):
        out = -lam_c * _grad_div_sum(pts)
        out += 3.0 * G * pi2 * _w(pts)[:, None] * ones3   # -G * Laplacian(u), Lap w = -3 pi^2 w
        out += alpha * _grad_w(pts)
        return out

    def g_exp(pts):
        w = _w(pts)
        out = -(c0 * w + alpha * _div_sum(pts))    # d/dt (c0 p + alpha div u)
        out += 3.0 * kappa * pi2 * w               # -kappa * Laplacian(p)
        return out

    def g_sin(pts):
        return L * _div_sum(pts)                   # L div E

    j = SeparableSource(((np.sin, j_sin), (np.cos, j_cos), (_exp_neg, j_exp)))
    f = SeparableSource(((_exp_neg, f_exp),))
    g = SeparableSource(((_exp_neg, g_exp), (np.sin, g_sin)))

    return ExactSolution(E=E, H=H, u=u, p=p, grad_u=grad_u, j=j, f=f, g=g)


@dataclass(frozen=True)
class ErrorNorms:
    E_L2: float
    H_L2: float
    u_L2: float
    u_H1: float
    p_L2: float

    def as_dict(self) -> dict:
        return {
            "E_L2": self.E_L2,
            "H_L2": self.H_L2,
            "u_L2": self.u_L2,
            "u_H1": self.u_H1,
            "p_L2": self.p_L2,
        }


#: Cells per block of the error quadrature: bounds its temporaries (the
#: grad u differences of all cells take 48 MB at n = 16).
ERROR_BLOCK_CELLS = 2048


def error_norms(
    state,
    exact: ExactSolution,
    t: float,
    mesh: TetMesh,
    quad_degree: int = 5,
) -> ErrorNorms:
    """L2 errors of E, H, u, p and the full H1 error of u at time t.

    The H1 norm includes the L2 part: ||v||_1^2 = ||v||^2 + ||grad v||^2.
    The quadrature runs over blocks of ``ERROR_BLOCK_CELLS`` cells.
    """
    if quad_degree < 4:
        raise ValueError(f"error quadrature degree must be >= 4, got {quad_degree}")
    w, cell_w = assembly.quadrature_cell_weights(mesh, quad_degree)
    pts = assembly.quadrature_points(mesh, quad_degree)
    nq = pts.shape[1]
    sq = np.zeros(5)  # squared errors of E, H, u, grad u, p
    for start in range(0, mesh.num_cells, ERROR_BLOCK_CELLS):
        cells = slice(start, start + ERROR_BLOCK_CELLS)
        flat = pts[cells].reshape(-1, 3)
        nc = flat.shape[0] // nq
        dE = assembly.evaluate_E(mesh, state.E, quad_degree, cells) - exact.E(t, flat).reshape(nc, nq, 3)
        dH = assembly.evaluate_H(mesh, state.H, cells)[:, None, :] - exact.H(t, flat).reshape(nc, nq, 3)
        dU = assembly.evaluate_U(mesh, state.u, quad_degree, cells) - exact.u(t, flat).reshape(nc, nq, 3)
        dGu = assembly.evaluate_grad_U(mesh, state.u, cells)[:, None, :, :] - exact.grad_u(
            t, flat
        ).reshape(nc, nq, 3, 3)
        dP = assembly.evaluate_P(mesh, state.p, quad_degree, cells) - exact.p(t, flat).reshape(nc, nq)
        pointwise = np.stack(
            [
                np.einsum("cqx,cqx->cq", dE, dE),
                np.einsum("cqx,cqx->cq", dH, dH),
                np.einsum("cqx,cqx->cq", dU, dU),
                np.einsum("cqrx,cqrx->cq", dGu, dGu),
                dP * dP,
            ]
        )
        sq += (pointwise @ w) @ cell_w[cells]
    err_E, err_H, err_u, err_gu, err_p = sq

    return ErrorNorms(
        E_L2=np.sqrt(err_E),
        H_L2=np.sqrt(err_H),
        u_L2=np.sqrt(err_u),
        u_H1=np.sqrt(err_u + err_gu),
        p_L2=np.sqrt(err_p),
    )


def zero_vector_source(t, pts):
    return np.zeros((pts.shape[0], 3))


def zero_scalar_source(t, pts):
    return np.zeros(pts.shape[0])
