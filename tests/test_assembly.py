import numpy as np
import pytest
import scipy.sparse as sp

import epe.schemes
from conftest import (
    LOCAL_FACES,
    barycentric,
    cellwise_curl,
    edge_functions,
    face_table,
    quadrature_forms,
    signed_edge_values,
)
from epe.fem.assembly import (
    FORM_SPACES,
    CellPattern,
    assemble_load,
    assemble_matrix,
    curl_dof_operator,
    evaluate_E,
    gradient_operator,
    quadrature_points,
)
from epe.fem.dofs import LayoutMismatch, make_layouts, reduce_matrix
from epe.fem.quadrature import quadrature_rule
from epe.mesh import build_unit_cube_mesh
from epe.mms import example61
from epe.schemes import Discretization, initial_state

SYMMETRIC_FORMS = ["MASS_E", "P_MASS", "P_STIFF", "U_MASS"]


def sym_error(A):
    d = (A - A.T).tocoo()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


@pytest.fixture(scope="module")
def lay2(mesh2):
    return make_layouts(mesh2)


class TestMatrices:
    @pytest.mark.parametrize("form", SYMMETRIC_FORMS)
    def test_symmetric_tags(self, mesh2, lay2, form):
        A = assemble_matrix(mesh2, form, 1.0)
        scale = float(np.abs(A.data).max())
        assert sym_error(A) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_h_mass_is_the_load_of_one(self, n, params):
        """The H mass, held as its diagonal ``m_H``, is (e_d, e_d) on each cell: the load of the
        constant field (1, 1, 1), a positive volume per H DOF, adding up to 3."""
        mesh = build_unit_cube_mesh(n)
        disc = Discretization(mesh, params)
        lay, m_H = disc.layouts, disc.m_H
        ones = assemble_load(mesh, lay.H, lambda t, x: np.ones((x.shape[0], 3)), 0.0)
        np.testing.assert_allclose(m_H, ones, rtol=1e-14, atol=0.0)
        assert m_H.shape == (lay.H.count,) and np.all(m_H > 0.0)
        assert float(m_H.sum()) == pytest.approx(3.0, rel=1e-13)

    def test_elasticity_symmetric(self, mesh2, lay2):
        A = assemble_matrix(mesh2, "ELASTICITY", (2.0, 1.0))
        assert sym_error(A) <= 1e-12 * float(np.abs(A.data).max())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_p_mass_integrates_one(self, n):
        mesh = build_unit_cube_mesh(n)
        lay = make_layouts(mesh)
        M = assemble_matrix(mesh, "P_MASS", 1.0)
        ones = np.ones(lay.P.count)
        assert float(ones @ (M @ ones)) == pytest.approx(1.0, rel=1e-13)

    def test_p_stiff_kills_constants(self, mesh2, lay2):
        K = assemble_matrix(mesh2, "P_STIFF", 2.0)
        assert np.abs(K @ np.ones(lay2.P.count)).max() <= 1e-13

    def test_curl_of_rotation_field(self, mesh3):
        # E = b x x lies in the edge space: its edge moments are exact at the
        # edge midpoints, and curl E = 2b on every cell
        b = np.array([0.3, -1.2, 0.7])
        verts, edges = mesh3.vertices, mesh3.edges
        tangents = verts[edges[:, 1]] - verts[edges[:, 0]]
        moments = np.einsum("ex,ex->e", np.cross(b, verts[edges].mean(axis=1)), tangents)
        curl = (curl_dof_operator(mesh3) @ moments).reshape(-1, 3)
        np.testing.assert_allclose(curl, np.broadcast_to(2.0 * b, curl.shape), rtol=0, atol=1e-12)

    def test_every_form_is_assembled_by_the_discretization(self, mesh2, params, monkeypatch):
        # a form that neither a Discretization, its elasticity block nor the initial
        # projection assembles is dead code in the form table
        forms = []

        def spy(mesh, form, *args, **kwargs):
            forms.append(form)
            return assemble_matrix(mesh, form, *args, **kwargs)

        monkeypatch.setattr(epe.schemes, "assemble_matrix", spy)
        disc = Discretization(mesh2, params)
        disc.elasticity()
        initial_state(disc, example61(params))
        assert set(forms) == set(FORM_SPACES)

    @pytest.mark.parametrize("form", sorted(FORM_SPACES))
    def test_form_stores_no_zero(self, mesh3, params, form):
        """The exact zeros of the closed forms are dropped once assembled."""
        coeff = {"ELASTICITY": (params.lambda_c, params.G), "DIV_COUPLING": params.alpha}.get(form, 1.0)
        A = assemble_matrix(mesh3, form, coeff)
        assert A.nnz and np.all(A.data != 0.0)

    def test_curl_stores_no_zero(self, mesh3):
        W = curl_dof_operator(mesh3)
        assert W.nnz and np.all(W.data != 0.0) and W.has_sorted_indices

    def test_grad_form_of_linear_pressure(self, mesh2, lay2):
        # p = x_0 lies in P1, so G @ p = (grad p, N_i) = (e_0, N_i), with G = M_E D
        G = assemble_matrix(mesh2, "MASS_E", 1.0) @ gradient_operator(mesh2)
        e0 = lambda t, x: np.tile([1.0, 0.0, 0.0], (x.shape[0], 1))
        ref = assemble_load(mesh2, lay2.E, e0, 0.0)
        np.testing.assert_allclose(G @ mesh2.vertices[:, 0], ref, rtol=0.0, atol=1e-13)

    def test_coefficient_scaling(self, mesh2, lay2):
        A1 = assemble_matrix(mesh2, "MASS_E", 1.0)
        A3 = assemble_matrix(mesh2, "MASS_E", 3.0)
        diff = (3.0 * A1 - A3).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() <= 1e-14

    def test_layout_mismatch_rejected(self, mesh2):
        with pytest.raises(LayoutMismatch):
            assemble_matrix(mesh2, "NO_SUCH_FORM", 1.0)

    def test_elasticity_spd_after_elimination(self, mesh2, lay2):
        A = assemble_matrix(mesh2, "ELASTICITY", (2.0, 1.0))
        A_ff = reduce_matrix(A, lay2.U, lay2.U).toarray()
        eigs = np.linalg.eigvalsh(A_ff)
        assert eigs.min() > 0.0

    def test_gradient_fields_are_curl_free(self, mesh2, lay2):
        # discrete gradient of any P1 function: edge coefficients p_b - p_a
        rng = np.random.default_rng(2)
        p = rng.standard_normal(lay2.P.count)
        egrad = p[mesh2.edges[:, 1]] - p[mesh2.edges[:, 0]]
        W = curl_dof_operator(mesh2)
        assert np.abs(W @ egrad).max() <= 1e-12
        assert np.abs(cellwise_curl(mesh2, egrad)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_operator_is_the_edge_difference(self, n):
        """``gradient_operator`` maps p to p_b - p_a on each edge (a, b), as built by hand above,
        storing two entries per edge; M_E D is the quadrature oracle's (grad p, N_e) coupling."""
        mesh = build_unit_cube_mesh(n)
        D = gradient_operator(mesh)
        assert D.shape == (mesh.num_edges, mesh.num_vertices) and D.nnz == 2 * mesh.num_edges
        p = np.random.default_rng(3).standard_normal(mesh.num_vertices)
        assert np.array_equal(D @ p, p[mesh.edges[:, 1]] - p[mesh.edges[:, 0]])
        G = quadrature_forms(mesh, make_layouts(mesh))["grad"]
        assert abs(assemble_matrix(mesh, "MASS_E", 1.0) @ D - G).max() <= 1e-15 * abs(G).max()


def unique_pattern(rows, cols, shape):
    """Oracle: the CSR pattern and the 0/1 scatter of ``CellPattern``, by ``np.unique``."""
    keys = (rows[:, :, None] * shape[1] + cols[:, None, :]).ravel()
    unique, slot = np.unique(keys, return_inverse=True)
    indptr = np.searchsorted(unique, np.arange(shape[0] + 1) * shape[1])
    scatter = sp.csc_matrix(
        (np.ones(keys.size), slot, np.arange(keys.size + 1)), shape=(unique.size, keys.size)
    )
    return unique % shape[1], indptr, scatter.tocsr()


def entity_maps(mesh, cell_order, edge_ids, vertex_ids):
    """Per-cell edge and vertex maps with the cells reordered and the entities renumbered."""
    return {
        "edges": (edge_ids[mesh.cell_edges[cell_order]], mesh.num_edges),
        "vertices": (vertex_ids[mesh.cells[cell_order]], mesh.num_vertices),
    }


PATTERN_PAIRS = [("edges", "edges"), ("edges", "vertices"), ("vertices", "vertices")]


def assert_pattern_matches_unique(maps, pair, rng):
    (rows, nrow), (cols, ncol) = (maps[kind] for kind in pair)
    got = CellPattern(rows, cols, (nrow, ncol))
    indices, indptr, scatter = unique_pattern(rows, cols, (nrow, ncol))
    np.testing.assert_array_equal(got.indices, indices)
    np.testing.assert_array_equal(got.indptr, indptr)
    mine = got.scatter.tocsr()      # its local entries in increasing order within each row
    assert mine.shape == scatter.shape
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(mine, attr), getattr(scatter, attr))
    # every stored entry sums its local entries in the oracle's order, bit for bit
    loc = rng.standard_normal((rows.shape[0], rows.shape[1], cols.shape[1]))
    assert np.array_equal(got.sum(loc), scatter @ loc.ravel())


class TestCellPattern:
    @pytest.mark.parametrize("pair", PATTERN_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stable_sort_matches_the_unique_oracle(self, n, pair):
        mesh = build_unit_cube_mesh(n)
        same = (np.arange(mesh.num_cells), np.arange(mesh.num_edges), np.arange(mesh.num_vertices))
        assert_pattern_matches_unique(entity_maps(mesh, *same), pair, np.random.default_rng(n))

    @pytest.mark.parametrize("pair", PATTERN_PAIRS)
    def test_stable_sort_matches_the_unique_oracle_on_a_permuted_mesh(self, mesh4, pair):
        """Cells in random order and edges and vertices randomly renumbered: the keys no longer
        arrive in the lattice's runs."""
        rng = np.random.default_rng(21)
        perms = (rng.permutation(m) for m in (mesh4.num_cells, mesh4.num_edges, mesh4.num_vertices))
        assert_pattern_matches_unique(entity_maps(mesh4, *perms), pair, rng)


def quadrature_load_E(mesh, lay, f):
    """Oracle: the E load by the degree-2 rule over the signed Nedelec values."""
    w = quadrature_rule(2).weights
    _, vols = mesh.cell_geometry()
    pts = quadrature_points(mesh, 2)
    fvals = f(0.0, pts.reshape(-1, 3)).reshape(pts.shape)
    loc = 6.0 * vols[:, None] * np.einsum("q,cqix,cqx->ci", w, signed_edge_values(mesh, 2), fvals)
    b = np.zeros(lay.E.count)
    np.add.at(b, mesh.cell_edges, loc)
    return b


def p1_forms_by_cells(mesh, lay, params):
    """Oracle: the P1 forms summed cell by cell from dense local matrices (U DOF 3 v + comp)."""
    g, vols = mesh.cell_geometry()
    S = (1.0 + np.eye(4)) / 20.0
    out = {
        "P_MASS": np.zeros((lay.P.count, lay.P.count)),
        "P_STIFF": np.zeros((lay.P.count, lay.P.count)),
        "U_MASS": np.zeros((lay.U.count, lay.U.count)),
        "ELASTICITY": np.zeros((lay.U.count, lay.U.count)),
        "DIV_COUPLING": np.zeros((lay.P.count, lay.U.count)),
    }
    for c, cell in enumerate(mesh.cells):
        V, G = vols[c], g[c]
        u = (3 * cell[:, None] + np.arange(3)).ravel()
        flat = G.ravel()
        out["P_MASS"][np.ix_(cell, cell)] += V * S
        out["P_STIFF"][np.ix_(cell, cell)] += V * G @ G.T
        out["U_MASS"][np.ix_(u, u)] += V * np.kron(S, np.eye(3))
        out["ELASTICITY"][np.ix_(u, u)] += V * (
            params.lambda_c * np.outer(flat, flat) + params.G * np.kron(G @ G.T, np.eye(3))
        )
        out["DIV_COUPLING"][np.ix_(cell, u)] += params.alpha * V / 4.0 * np.tile(flat, (4, 1))
    return out


def rel_max(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestClosedForms:
    """Closed-form local matrices, loads and E values against cellwise and quadrature oracles."""

    @pytest.mark.parametrize("form", ["MASS_E"])
    def test_edge_forms_match_quadrature(self, mesh3, form):
        lay = make_layouts(mesh3)
        want = quadrature_forms(mesh3, lay)[form]
        got = assemble_matrix(mesh3, form)
        assert rel_max(got.toarray(), want.toarray()) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_grad_coupling_matches_quadrature(self, n, params):
        """The discretization's G_ff, built as M_E D on the free DOFs, is the quadrature oracle's
        (grad p, N_e) coupling there."""
        disc = Discretization(build_unit_cube_mesh(n), params)
        L = disc.layouts
        want = reduce_matrix(quadrature_forms(disc.mesh, L)["grad"], L.E, L.P)
        assert disc.G_ff.shape == want.shape
        assert rel_max(disc.G_ff.toarray(), want.toarray()) <= 1e-14

    def test_p1_forms_match_the_cellwise_sum(self, mesh2, lay2, params):
        coeffs = {"ELASTICITY": (params.lambda_c, params.G), "DIV_COUPLING": params.alpha}
        for form, want in p1_forms_by_cells(mesh2, lay2, params).items():
            got = assemble_matrix(mesh2, form, coeffs.get(form, 1.0))
            assert rel_max(got.toarray(), want) <= 1e-13, form

    def test_E_load_matches_quadrature(self, mesh3):
        lay = make_layouts(mesh3)
        f = lambda t, x: np.stack([np.sin(3 * x[:, 1]), x[:, 0] * x[:, 2], np.exp(x[:, 0])], axis=1)
        got = assemble_load(mesh3, lay.E, f, 0.0)
        assert rel_max(got, quadrature_load_E(mesh3, lay, f)) <= 1e-13

    @pytest.mark.parametrize("degree", [2, 5])
    def test_E_evaluation_matches_quadrature(self, mesh3, degree):
        coefs = np.random.default_rng(23).standard_normal(mesh3.num_edges)
        signed = coefs[mesh3.cell_edges]
        want = np.einsum("ci,cqix->cqx", signed, signed_edge_values(mesh3, degree))
        assert rel_max(evaluate_E(mesh3, coefs, mesh3.cell_geometry()[0], degree), want) <= 1e-13


class TestEvaluate:
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_E_matches_the_reference_basis(self, mesh2, lay2, degree):
        rng = np.random.default_rng(22)
        coefs = rng.standard_normal(lay2.E.count)
        got = evaluate_E(mesh2, coefs, mesh2.cell_geometry()[0], degree)
        pts = quadrature_points(mesh2, degree)
        for cidx in rng.choice(mesh2.num_cells, size=8, replace=False):
            want = evaluate_in_cell(mesh2, cidx, coefs, pts[cidx])
            np.testing.assert_allclose(got[cidx], want, rtol=0.0, atol=1e-12)


class TestLoads:
    def test_zero_source(self, mesh2, lay2):
        b = assemble_load(mesh2, lay2.E, lambda t, x: np.zeros((x.shape[0], 3)), 0.0)
        assert np.all(b == 0.0)

    def test_unit_source_into_P_sums_to_volume(self, mesh2, lay2):
        b = assemble_load(mesh2, lay2.P, lambda t, x: np.ones(x.shape[0]), 0.0)
        assert float(b.sum()) == pytest.approx(1.0, rel=1e-13)

    def test_linear_source_matches_high_degree_oracle(self, mesh2, lay2):
        f = lambda t, x: x[:, 0]
        b2 = assemble_load(mesh2, lay2.P, f, 0.0)
        # oracle: (f, lam_m) on every cell by the degree-6 rule, summed into the vertices
        w, six_v = quadrature_rule(6).weights, 6.0 * mesh2.cell_geometry()[1]
        fq = f(0.0, quadrature_points(mesh2, 6).reshape(-1, 3)).reshape(mesh2.num_cells, -1)
        local = six_v[:, None] * ((w * fq) @ quadrature_rule(6).barycentric())
        b6 = np.bincount(mesh2.cells.ravel(), local.ravel(), lay2.P.count)
        np.testing.assert_allclose(b2, b6, atol=1e-12)

    def test_load_is_linear_functional(self, mesh2, lay2):
        f1 = lambda t, x: np.sin(x[:, 0])[:, None] * np.ones(3)
        f2 = lambda t, x: np.cos(x[:, 1])[:, None] * np.ones(3)
        fsum = lambda t, x: f1(t, x) + f2(t, x)
        b = assemble_load(mesh2, lay2.E, fsum, 0.0)
        b12 = assemble_load(mesh2, lay2.E, f1, 0.0) + assemble_load(mesh2, lay2.E, f2, 0.0)
        np.testing.assert_allclose(b, b12, atol=1e-14)


class TestDirichlet:
    def test_n2_pressure_layout_single_interior_dof(self, mesh2, lay2):
        M = assemble_matrix(mesh2, "P_MASS", 1.0)
        A_ff, b_f = reduce_matrix(M, lay2.P, lay2.P), lay2.P.reduce(np.ones(lay2.P.count))
        assert A_ff.shape == (1, 1) and b_f.shape == (1,)
        assert lay2.P.num_free == (2 - 1) ** 3

    def test_n1_fully_constrained_scalar_space(self, mesh1):
        lay = make_layouts(mesh1)
        assert lay.P.num_free == 0 and lay.U.num_free == 0
        M = assemble_matrix(mesh1, "P_MASS", 1.0)
        A_ff, b_f = reduce_matrix(M, lay.P, lay.P), lay.P.reduce(np.ones(lay.P.count))
        assert A_ff.shape == (0, 0)
        np.testing.assert_array_equal(lay.P.extend(b_f[:0] * 0.0), np.zeros(lay.P.count))

    def test_reduction_preserves_symmetry(self, mesh2, lay2):
        A = assemble_matrix(mesh2, "ELASTICITY", (2.0, 1.0))
        A_ff = reduce_matrix(A, lay2.U, lay2.U)
        assert sym_error(A_ff) <= 1e-12 * max(1.0, float(np.abs(A_ff.data).max()))

    def test_extend_puts_zeros_on_boundary(self, mesh2, lay2):
        x = np.arange(lay2.P.num_free, dtype=float) + 1.0
        full = lay2.P.extend(x)
        assert np.all(full[lay2.P.constrained] == 0.0)
        np.testing.assert_array_equal(full[lay2.P.free], x)


class TestConformity:
    def test_tangential_continuity_across_interior_faces(self, mesh2, lay2):
        """Jump of the tangential trace across interior faces vanishes."""
        rng = np.random.default_rng(20)
        coefs = rng.standard_normal(lay2.E.count)
        jumps = tangential_jumps(mesh2, coefs, rng, nfaces=20)
        assert max(jumps) <= 1e-11

    def test_single_edge_dof_continuity(self, mesh1):
        # a global field with one active edge DOF stays tangentially conforming
        lay = make_layouts(mesh1)
        coefs = np.zeros(lay.E.count)
        interior_edge = int(np.flatnonzero(~mesh1.boundary_edge)[0])
        coefs[interior_edge] = 1.0
        rng = np.random.default_rng(21)
        jumps = tangential_jumps(mesh1, coefs, rng, nfaces=6)
        assert max(jumps) <= 1e-12


def tangential_jumps(mesh, coefs, rng, nfaces):
    """Max tangential-trace jumps across randomly chosen interior faces."""
    faces, counts = face_table(mesh)
    interior = np.flatnonzero(counts == 2)
    chosen = rng.choice(interior, size=min(nfaces, interior.size), replace=False)

    face_to_cells = {}
    for c, cell in enumerate(mesh.cells):
        for tri in LOCAL_FACES:
            key = tuple(sorted(cell[list(tri)]))
            face_to_cells.setdefault(key, []).append(c)

    jumps = []
    for fidx in chosen:
        tri = faces[fidx]
        cells = face_to_cells[tuple(tri)]
        assert len(cells) == 2
        pts = sample_face_points(mesh.vertices[tri], rng)
        a, b, c = mesh.vertices[tri]
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        traces = []
        for cidx in cells:
            vals = evaluate_in_cell(mesh, cidx, coefs, pts)
            traces.append(vals - np.outer(vals @ normal, normal))
        jumps.append(float(np.abs(traces[0] - traces[1]).max()))
    return jumps


def sample_face_points(tri_verts, rng):
    bary = rng.dirichlet(np.ones(3), size=4)
    return bary @ tri_verts


def evaluate_in_cell(mesh, cidx, coefs, pts):
    """Oracle: the E field of ``coefs`` at points ``pts`` (m, 3) of cell ``cidx``, shape (m, 3)."""
    g, _ = mesh.cell_geometry()
    vals = edge_functions(g[[cidx]], barycentric(mesh, [cidx], pts[None]))[0]   # (m, 6, 3)
    signed = coefs[mesh.cell_edges[cidx]] * mesh.cell_edge_signs[cidx]
    return np.einsum("mix,i->mx", vals, signed)
