"""The per-cell P1 and Nedelec bases the solver runs: ``TetMesh.cell_geometry`` and ``signed_curls``.

The cells are those of a unit-cube mesh whose vertices are jittered and then
mapped by a random affine map, so every cell is a different general
tetrahedron. Function values come from the oracles ``barycentric`` and
``edge_functions``, built on the barycentric gradients of ``cell_geometry``.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import barycentric, edge_functions
from epe.fem.assembly import signed_curls
from epe.mesh import LOCAL_EDGES, build_unit_cube_mesh

#: The first cell of the n = 1 mesh and its barycentric gradients: lam = (1 - x, x - y, y - z, z).
KUHN_VERTICES = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=float)
KUHN_GRADIENTS = np.array([[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]], dtype=float)


@pytest.fixture(scope="module")
def skewed():
    """The n = 3 mesh with jittered vertices under a random orientation-preserving affine map."""
    rng = np.random.default_rng(11)
    mesh = build_unit_cube_mesh(3)
    A = rng.standard_normal((3, 3))
    if np.linalg.det(A) < 0:
        A[:, 0] *= -1.0
    verts = (mesh.vertices + rng.uniform(-0.04, 0.04, mesh.vertices.shape)) @ A.T + rng.random(3)
    skewed = replace(mesh, vertices=verts, _cache={})
    assert np.all(skewed.cell_geometry()[1] > 0.0)
    return skewed


def cell_vertices(mesh):
    return mesh.vertices[mesh.cells]                                # (C, 4, 3)


class TestP1:
    def test_kronecker_at_vertices(self, skewed):
        cells = np.arange(skewed.num_cells)
        lam = barycentric(skewed, cells, cell_vertices(skewed))    # (C, 4 points, 4)
        np.testing.assert_allclose(lam, np.broadcast_to(np.eye(4), lam.shape), atol=1e-12)

    def test_partition_of_unity_at_centroid(self, skewed):
        cells = np.arange(skewed.num_cells)
        lam = barycentric(skewed, cells, cell_vertices(skewed).mean(axis=1, keepdims=True))
        np.testing.assert_allclose(lam.sum(axis=2), 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(lam, 0.25, rtol=0, atol=1e-12)

    def test_gradient_sum_zero(self, skewed):
        g, _ = skewed.cell_geometry()
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12 * np.abs(g).max())

    def test_reference_gradients(self, mesh1):
        g, vols = mesh1.cell_geometry()
        np.testing.assert_array_equal(mesh1.vertices[mesh1.cells[0]], KUHN_VERTICES)
        np.testing.assert_allclose(g[0], KUHN_GRADIENTS, atol=1e-14)
        assert vols[0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def affine_curl(mesh, rng):
    """Curls (C, 6, 3) of the signed edge functions, recovered from their values at 4 points per cell.

    Edge functions are affine, so values at 4 non-coplanar points determine
    the field exactly; the curl comes from the antisymmetric part of its
    Jacobian. Independent of the analytic curl formula under test.
    """
    verts = cell_vertices(mesh)
    pts = np.concatenate([verts.mean(axis=1, keepdims=True), 0.9 * verts[:, :3] + 0.1 * verts[:, 3:]], 1)
    pts += rng.uniform(-0.01, 0.01, size=pts.shape)
    g, _ = mesh.cell_geometry()
    vals = edge_functions(g, barycentric(mesh, np.arange(mesh.num_cells), pts))   # (C, 4, 6, 3)
    vals = vals * mesh.cell_edge_signs[:, None, :, None]
    fit = np.concatenate([np.ones(pts.shape[:2] + (1,)), pts], axis=2)            # affine fit x -> v
    coef = np.linalg.solve(fit, vals.reshape(*vals.shape[:2], 18))     # rows: const + Jacobian rows
    J = coef[:, 1:].reshape(-1, 3, 6, 3)                               # J[c, x, i, r] = d_x v_ir
    curl = (J[:, 1, :, 2] - J[:, 2, :, 1], J[:, 2, :, 0] - J[:, 0, :, 2], J[:, 0, :, 1] - J[:, 1, :, 0])
    return np.stack(curl, axis=2)


class TestNedelec:
    def test_duality_is_identity_on_random_cells(self, skewed):
        """The tangential moment of edge function i along local edge j is delta_ij (2-point Gauss)."""
        verts = cell_vertices(skewed)
        g, _ = skewed.cell_geometry()
        cells = np.arange(skewed.num_cells)
        gauss = (np.array([-1.0, 1.0]) / np.sqrt(3.0) + 1.0) / 2.0
        moments = np.empty((skewed.num_cells, 6, 6))
        for j, (a, b) in enumerate(LOCAL_EDGES):
            chord = verts[:, b] - verts[:, a]
            pts = verts[:, a, None, :] + gauss[None, :, None] * chord[:, None, :]
            vals = edge_functions(g, barycentric(skewed, cells, pts))                # (C, 2, 6, 3)
            moments[:, j] = 0.5 * np.einsum("cqix,cx->ci", vals, chord)
        np.testing.assert_allclose(moments, np.broadcast_to(np.eye(6), moments.shape), atol=1e-12)

    def test_curl_constant_and_consistent(self, skewed):
        rng = np.random.default_rng(12)
        curls = signed_curls(skewed)
        np.testing.assert_allclose(affine_curl(skewed, rng), curls, atol=1e-9 * np.abs(curls).max())

    def test_curl_identical_at_random_points(self, skewed):
        # lowest order: the curl is one constant per cell; values at two sets
        # of 4 random points reconstruct the same constant
        rng = np.random.default_rng(13)
        c1, c2 = affine_curl(skewed, rng), affine_curl(skewed, rng)
        np.testing.assert_allclose(c1, c2, atol=1e-9 * np.abs(c1).max())

    def test_reference_tet_curls(self, mesh1):
        # every local edge of the first cell runs from a lower to a higher vertex id: signs +1
        assert np.all(mesh1.cell_edge_signs[0] == 1)
        g = KUHN_GRADIENTS
        want = [2 * np.cross(g[a], g[b]) for a, b in LOCAL_EDGES]
        np.testing.assert_allclose(signed_curls(mesh1)[0], want, atol=1e-14)
