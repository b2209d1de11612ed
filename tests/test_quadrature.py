import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import epe
from epe.fem.quadrature import UnsupportedDegree, _jacobi_on_unit, quadrature_rule


def reference_monomial_integral(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the reference tetrahedron."""
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


@pytest.mark.parametrize("degree", range(1, 7))
def test_exactness_on_all_monomials(degree):
    rule = quadrature_rule(degree)
    x, y, z = rule.points.T
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = float(rule.weights @ (x**a * y**b * z**c))
                exact = reference_monomial_integral(a, b, c)
                assert got == pytest.approx(exact, rel=1e-14), (degree, a, b, c)


@pytest.mark.parametrize("degree", range(1, 7))
def test_weights_positive_and_sum_to_reference_volume(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert float(rule.weights.sum()) == pytest.approx(1 / 6, rel=1e-15)


def test_reference_volume():
    rule = quadrature_rule(1)
    assert float(rule.weights @ np.ones(rule.weights.size)) == pytest.approx(1 / 6)


def test_degree2_x_squared():
    rule = quadrature_rule(2)
    got = float(rule.weights @ rule.points[:, 0] ** 2)
    assert got == pytest.approx(1 / 60, rel=1e-14)


def test_degree4_mixed_monomial():
    rule = quadrature_rule(4)
    got = float(rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2))
    assert got == pytest.approx(4 / 5040, rel=1e-14)


def test_points_inside_reference_tet():
    for degree in range(1, 7):
        pts = quadrature_rule(degree).points
        assert np.all(pts >= 0.0)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-14)


def test_barycentric_partition_of_unity():
    lam = quadrature_rule(4).barycentric()
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(lam >= -1e-14)


@pytest.mark.parametrize("degree", [0, 7, -1, "2"])
def test_unsupported_degree(degree):
    with pytest.raises(UnsupportedDegree):
        quadrature_rule(degree)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("m", range(1, 6))
def test_gauss_jacobi_matches_scipy(m, alpha):
    """The eigenvalue rule equals scipy's Gauss-Jacobi rule, mapped to [0, 1]."""
    from scipy.special import roots_jacobi

    nodes, weights = _jacobi_on_unit(m, alpha)
    ref_nodes, ref_weights = roots_jacobi(m, alpha, 0.0)
    np.testing.assert_allclose(nodes, (1.0 + ref_nodes) / 2.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights, ref_weights / 2.0 ** (alpha + 1), rtol=1e-14, atol=0.0)


def test_no_module_imports_scipy_special():
    """In a fresh interpreter, the package's modules load without ``scipy.special``."""
    code = (
        "import sys, epe.schemes, epe.mms, epe.studies, epe.cli; "
        "print('scipy.special' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(epe.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
