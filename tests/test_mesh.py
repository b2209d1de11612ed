from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
import pytest

from conftest import face_table
from epe.mesh import LOCAL_EDGES, InvalidSubdivision, build_unit_cube_mesh


def number_edges_by_sort(cells):
    """Oracle for the edge numbering: np.unique over the sorted vertex pairs of all cell edges."""
    pairs = cells[:, np.asarray(LOCAL_EDGES)]
    lo, hi = pairs.min(axis=2), pairs.max(axis=2)
    signs = np.where(pairs[:, :, 0] == lo, 1, -1).astype(np.int64)
    keyed = np.stack([lo.ravel(), hi.ravel()], axis=1)
    edges, inverse = np.unique(keyed, axis=0, return_inverse=True)
    return edges.astype(np.int64), inverse.reshape(cells.shape[0], 6).astype(np.int64), signs


def kuhn_reference_counts(n):
    """Independent enumeration of the 6-tet monotone-path subdivision.

    Entities are identified by lattice-coordinate tuples, not by any index
    arithmetic shared with the implementation.
    """
    verts, edges, faces = set(), set(), set()
    ncells = 0
    for base in product(range(n), repeat=3):
        for perm in permutations(range(3)):
            pts = [tuple(base)]
            cur = list(base)
            for axis in perm:
                cur = list(cur)
                cur[axis] += 1
                pts.append(tuple(cur))
            ncells += 1
            verts.update(pts)
            edges.update(frozenset(pair) for pair in combinations(pts, 2))
            faces.update(frozenset(tri) for tri in combinations(pts, 3))
    return len(verts), len(edges), len(faces), ncells


def euler_characteristic(mesh):
    """V - E + F - C, with the mesh's own V, E and C and the oracle's face count F."""
    num_faces = len(face_table(mesh)[0])
    return mesh.num_vertices - mesh.num_edges + num_faces - mesh.num_cells


class TestCounts:
    def test_n1_exhaustive(self, mesh1):
        num_faces = len(face_table(mesh1)[0])
        assert (mesh1.num_vertices, mesh1.num_edges, num_faces, mesh1.num_cells) == (8, 19, 18, 6)
        assert kuhn_reference_counts(1) == (8, 19, 18, 6)
        assert euler_characteristic(mesh1) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_independent_enumeration(self, n):
        mesh = build_unit_cube_mesh(n)
        V, E, F, C = kuhn_reference_counts(n)
        assert (mesh.num_vertices, mesh.num_edges, mesh.num_cells) == (V, E, C)
        assert len(face_table(mesh)[0]) == F

    def test_n2_counts_and_volume(self, mesh2):
        _, vols = mesh2.cell_geometry()
        assert (mesh2.num_vertices, mesh2.num_cells) == (27, 48)
        assert abs(vols.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(vols, 1 / 48)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_euler_and_volume(self, n):
        mesh = build_unit_cube_mesh(n)
        assert euler_characteristic(mesh) == 1
        assert abs(mesh.cell_geometry()[1].sum() - 1.0) <= 1e-12

    def test_rejects_bad_subdivision(self):
        with pytest.raises(InvalidSubdivision):
            build_unit_cube_mesh(0)
        with pytest.raises(InvalidSubdivision):
            build_unit_cube_mesh(-3)


class TestGeometry:
    def test_n1_cell_volumes(self, mesh1):
        _, vols = mesh1.cell_geometry()
        np.testing.assert_allclose(vols, 1 / 6)

    def test_mesh_size(self):
        assert build_unit_cube_mesh(4).h == pytest.approx(np.sqrt(3) / 4, rel=1e-15)

    def test_block_geometry_is_the_rows_of_the_whole_bit_for_bit(self):
        """The geometry of a block of cells (a slice, as error norms take it, or any index array)
        equals those rows of the whole mesh's geometry bit for bit, and each call computes new
        arrays: the mesh keeps none."""
        mesh = build_unit_cube_mesh(3)
        whole = mesh.cell_geometry()
        rng = np.random.default_rng(5)
        for cells in (slice(0, 17), slice(100, None), rng.permutation(mesh.num_cells)[:40]):
            for a, b in zip(mesh.cell_geometry(cells), whole):
                assert a.tobytes() == b[cells].tobytes()
        assert all(a is not b for a, b in zip(mesh.cell_geometry(), whole))

    def test_replaced_vertices_give_the_new_geometry(self):
        """``dataclasses.replace`` with new vertices reads the new mesh's geometry: doubling the
        unit cube multiplies every volume by 8 (total 8) and divides every gradient by 2."""
        mesh = build_unit_cube_mesh(2)
        g, vols = mesh.cell_geometry()
        big = replace(mesh, vertices=2.0 * mesh.vertices)
        g2, vols2 = big.cell_geometry()
        assert float(vols2.sum()) == pytest.approx(8.0, rel=1e-14)
        np.testing.assert_array_equal(vols2, 8.0 * vols)
        np.testing.assert_array_equal(g2, 0.5 * g)

    def test_positive_orientation(self, mesh3):
        verts = mesh3.vertices[mesh3.cells]
        edges = verts[:, 1:] - verts[:, :1]
        assert np.all(np.linalg.det(edges) > 0)

    def test_determinism(self):
        a, b = build_unit_cube_mesh(3), build_unit_cube_mesh(3)
        for name in ("vertices", "cells", "edges", "cell_edges", "cell_edge_signs"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestEdges:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lattice_numbering_equals_the_sorted_numbering(self, n):
        mesh = build_unit_cube_mesh(n)
        want = number_edges_by_sort(mesh.cells)
        for name, ref in zip(("edges", "cell_edges", "cell_edge_signs"), want):
            got = getattr(mesh, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    def test_global_orientation(self, mesh3):
        assert np.all(mesh3.edges[:, 0] < mesh3.edges[:, 1])

    def test_sign_consistency(self, mesh2):
        # sign * global edge vector equals the local edge vector, per cell edge
        verts = mesh2.vertices
        for c in range(mesh2.num_cells):
            cell = mesh2.cells[c]
            for k, (a, b) in enumerate(LOCAL_EDGES):
                local_vec = verts[cell[b]] - verts[cell[a]]
                e = mesh2.edges[mesh2.cell_edges[c, k]]
                global_vec = verts[e[1]] - verts[e[0]]
                np.testing.assert_allclose(
                    mesh2.cell_edge_signs[c, k] * global_vec, local_vec, atol=1e-15
                )

    def test_every_edge_used(self, mesh2):
        assert set(mesh2.cell_edges.ravel()) == set(range(mesh2.num_edges))

    def test_boundary_edges(self, mesh2):
        # boundary edges join boundary vertices; wall edges are flagged
        for idx in np.flatnonzero(mesh2.boundary_edge):
            a, b = mesh2.edges[idx]
            assert mesh2.boundary_vertex[a] and mesh2.boundary_vertex[b]
        va, vb = mesh2.vertices[mesh2.edges[:, 0]], mesh2.vertices[mesh2.edges[:, 1]]
        on_wall = np.zeros(mesh2.num_edges, dtype=bool)
        for axis in range(3):
            for wall in (0.0, 1.0):
                on_wall |= (np.abs(va[:, axis] - wall) < 1e-14) & (
                    np.abs(vb[:, axis] - wall) < 1e-14
                )
        np.testing.assert_array_equal(on_wall, mesh2.boundary_edge)

    def test_n1_boundary(self, mesh1):
        # only the body diagonal is interior at n=1
        assert mesh1.boundary_edge.sum() == 18
        interior = mesh1.edges[~mesh1.boundary_edge]
        np.testing.assert_array_equal(interior, [[0, 7]])


class TestConformity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_face_incidence(self, n):
        mesh = build_unit_cube_mesh(n)
        faces, counts = face_table(mesh)
        assert set(counts.tolist()) <= {1, 2}
        boundary = counts == 1
        # every single-cell face lies on a wall of the cube
        for tri in faces[boundary]:
            coords = mesh.vertices[tri]
            assert any(
                np.allclose(coords[:, axis], wall)
                for axis in range(3)
                for wall in (0.0, 1.0)
            )
        # interior faces are shared by exactly two cells
        assert np.all(counts[~boundary] == 2)
