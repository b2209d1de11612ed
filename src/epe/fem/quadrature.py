"""Quadrature on the reference tetrahedron {x,y,z >= 0, x+y+z <= 1}.

Degrees 1 and 2 use the classical symmetric rules; degrees 3 to 6 use the
conical-product (collapsed Gauss-Jacobi) construction, which has strictly
positive weights at every degree. Weights sum to the reference volume 1/6.

The Gauss-Jacobi rules (m <= 4 points) are computed here by the
Golub-Welsch method (Math. Comp. 23, 1969): the nodes are the eigenvalues
of the symmetric tridiagonal m x m Jacobi matrix of the weight's
orthogonal polynomials, and each weight is the weight's total mass times
the squared first component of its eigenvector. numpy's ``eigh`` is all
this needs, so no module of the package imports ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_DEGREE = 6


class UnsupportedDegree(ValueError):
    """Requested exactness degree outside 1..MAX_DEGREE."""


@dataclass(frozen=True)
class QuadratureRule:
    degree: int
    points: np.ndarray    # (nq, 3) reference coordinates
    weights: np.ndarray   # (nq,), positive, sum = 1/6

    def barycentric(self) -> np.ndarray:
        """Barycentric coordinates (nq, 4) of the rule points."""
        x = self.points
        lam0 = 1.0 - x.sum(axis=1)
        return np.column_stack([lam0, x])


@cache
def quadrature_rule(degree: int) -> QuadratureRule:
    """Rule integrating all polynomials of total degree <= ``degree`` exactly."""
    if not (isinstance(degree, int) and 1 <= degree <= MAX_DEGREE):
        raise UnsupportedDegree(f"supported degrees are 1..{MAX_DEGREE}, got {degree!r}")
    if degree == 1:
        points = np.array([[0.25, 0.25, 0.25]])
        weights = np.array([1.0 / 6.0])
    elif degree == 2:
        a = 0.5854101966249685
        b = 0.1381966011250105
        points = np.array(
            [[a, b, b], [b, a, b], [b, b, a], [b, b, b]]
        )
        weights = np.full(4, 1.0 / 24.0)
    else:
        points, weights = _conical_product(degree)
    return QuadratureRule(degree=degree, points=points, weights=weights)


def _conical_product(degree: int):
    """Collapsed tensor rule: x = u, y = v(1-u), z = w(1-u)(1-v).

    The map has Jacobian (1-u)^2 (1-v), absorbed as Jacobi weights, so an
    m-point Gauss-Jacobi rule per direction is exact through degree 2m-1.
    """
    m = (degree + 2) // 2
    u, wu = _jacobi_on_unit(m, 2)
    v, wv = _jacobi_on_unit(m, 1)
    w, ww = _jacobi_on_unit(m, 0)
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    x = U
    y = V * (1.0 - U)
    z = W * (1.0 - U) * (1.0 - V)
    weights = (wu[:, None, None] * wv[None, :, None] * ww[None, None, :]).ravel()
    points = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    return points, weights


def _jacobi_on_unit(m: int, alpha: int):
    """Nodes/weights for integral of (1-t)^alpha f(t) over [0, 1].

    The Jacobi matrix of the weight (1-x)^alpha on [-1, 1] (beta = 0) has
    diagonal -alpha^2 / (s (s + 2)), s = 2k + alpha (-alpha / (alpha + 2)
    at k = 0), and off-diagonal 2k (k + alpha) / (s sqrt(s^2 - 1)) for
    k >= 1; t = (1 + x) / 2 halves it and leaves its eigenvectors as they
    are. The weight's mass on [0, 1] is 1 / (alpha + 1).
    """
    a = float(alpha)
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a
    diag = np.empty(m)
    diag[0] = -a / (a + 2.0)
    diag[1:] = -a * a / (s[1:] * (s[1:] + 2.0))
    off = 2.0 * k[1:] * (k[1:] + a) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return (1.0 + nodes) / 2.0, vectors[0] ** 2 / (a + 1.0)
