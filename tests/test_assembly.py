import numpy as np
import pytest
import scipy.sparse as sp

import epe.schemes
from conftest import barycentric, cellwise_curl, edge_functions
from epe.fem.assembly import (
    FORM_SPACES,
    assemble_load,
    assemble_matrix,
    curl_dof_operator,
    evaluate_E,
    quadrature_points,
)
from epe.fem.dofs import LayoutMismatch, make_layouts, reduce_matrix
from epe.fem.quadrature import quadrature_rule
from epe.mesh import build_unit_cube_mesh
from epe.schemes import Discretization

SYMMETRIC_FORMS = ["MASS_E", "H_MASS", "P_MASS", "P_STIFF", "U_MASS"]


def sym_error(A):
    d = (A - A.T).tocoo()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


@pytest.fixture(scope="module")
def lay2(mesh2):
    return make_layouts(mesh2)


class TestMatrices:
    @pytest.mark.parametrize("form", SYMMETRIC_FORMS)
    def test_symmetric_tags(self, mesh2, lay2, form):
        spaces = {"MASS_E": "E", "H_MASS": "H", "P_MASS": "P", "P_STIFF": "P", "U_MASS": "U"}
        layout = getattr(lay2, spaces[form])
        A = assemble_matrix(mesh2, layout, layout, form, 1.0)
        scale = float(np.abs(A.data).max())
        assert sym_error(A) <= 1e-12 * scale

    def test_elasticity_symmetric(self, mesh2, lay2):
        A = assemble_matrix(mesh2, lay2.U, lay2.U, "ELASTICITY", (2.0, 1.0))
        assert sym_error(A) <= 1e-12 * float(np.abs(A.data).max())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_p_mass_integrates_one(self, n):
        mesh = build_unit_cube_mesh(n)
        lay = make_layouts(mesh)
        M = assemble_matrix(mesh, lay.P, lay.P, "P_MASS", 1.0)
        ones = np.ones(lay.P.count)
        assert float(ones @ (M @ ones)) == pytest.approx(1.0, rel=1e-13)

    def test_p_stiff_kills_constants(self, mesh2, lay2):
        K = assemble_matrix(mesh2, lay2.P, lay2.P, "P_STIFF", 2.0)
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
        # a form no Discretization assembles is dead code in the form table
        forms = []

        def spy(mesh, row_layout, col_layout, form, *args, **kwargs):
            forms.append(form)
            return assemble_matrix(mesh, row_layout, col_layout, form, *args, **kwargs)

        monkeypatch.setattr(epe.schemes, "assemble_matrix", spy)
        Discretization(mesh2, make_layouts(mesh2), params)
        assert set(forms) == set(FORM_SPACES)

    def test_grad_form_of_linear_pressure(self, mesh2, lay2):
        # p = x_0 lies in P1, so G_pe @ p = (grad p, N_i) = (e_0, N_i)
        G = assemble_matrix(mesh2, lay2.E, lay2.P, "GRAD_P_TO_E", 1.0)
        e0 = lambda t, x: np.tile([1.0, 0.0, 0.0], (x.shape[0], 1))
        ref = assemble_load(mesh2, lay2.E, e0, 0.0)
        np.testing.assert_allclose(G @ mesh2.vertices[:, 0], ref, rtol=0.0, atol=1e-13)

    def test_coefficient_scaling(self, mesh2, lay2):
        A1 = assemble_matrix(mesh2, lay2.E, lay2.E, "MASS_E", 1.0)
        A3 = assemble_matrix(mesh2, lay2.E, lay2.E, "MASS_E", 3.0)
        diff = (3.0 * A1 - A3).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() <= 1e-14

    def test_layout_mismatch_rejected(self, mesh2, lay2):
        with pytest.raises(LayoutMismatch):
            assemble_matrix(mesh2, lay2.P, lay2.P, "MASS_E", 1.0)
        with pytest.raises(LayoutMismatch):
            assemble_matrix(mesh2, lay2.E, lay2.E, "NO_SUCH_FORM", 1.0)

    def test_elasticity_spd_after_elimination(self, mesh2, lay2):
        A = assemble_matrix(mesh2, lay2.U, lay2.U, "ELASTICITY", (2.0, 1.0))
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


def signed_edge_values(mesh, degree):
    """Oracle: the signed lam_a grad lam_b - lam_b grad lam_a at the rule points, (C, nq, 6, 3)."""
    g, _ = mesh.cell_geometry()
    vals = edge_functions(g, quadrature_rule(degree).barycentric())
    return vals * mesh.cell_edge_signs[:, None, :, None]


def quadrature_forms(mesh, lay):
    """Oracle: MASS_E and GRAD_P_TO_E by the degree-2 rule, which integrates both exactly."""
    w = quadrature_rule(2).weights
    g, vols = mesh.cell_geometry()
    vals = signed_edge_values(mesh, 2)
    mass = 6.0 * vols[:, None, None] * np.einsum("q,cqix,cqjx->cij", w, vals, vals)
    grad = 6.0 * vols[:, None, None] * np.einsum("q,cqix,cmx->cim", w, vals, g)
    ce = mesh.cell_edges
    M_E = sp.coo_matrix(
        (mass.ravel(), (np.repeat(ce, 6, axis=1).ravel(), np.tile(ce, 6).ravel())),
        shape=(lay.E.count, lay.E.count),
    )
    G = sp.coo_matrix(
        (grad.ravel(), (np.repeat(ce, 4, axis=1).ravel(), np.tile(mesh.cells, 6).ravel())),
        shape=(lay.E.count, lay.P.count),
    )
    return {"MASS_E": M_E.tocsr(), "GRAD_P_TO_E": G.tocsr()}


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

    @pytest.mark.parametrize("form", ["MASS_E", "GRAD_P_TO_E"])
    def test_edge_forms_match_quadrature(self, mesh3, form):
        lay = make_layouts(mesh3)
        want = quadrature_forms(mesh3, lay)[form]
        got = assemble_matrix(mesh3, lay.E, getattr(lay, FORM_SPACES[form][1]), form)
        assert rel_max(got.toarray(), want.toarray()) <= 1e-13

    def test_p1_forms_match_the_cellwise_sum(self, mesh2, lay2, params):
        coeffs = {"ELASTICITY": (params.lambda_c, params.G), "DIV_COUPLING": params.alpha}
        for form, want in p1_forms_by_cells(mesh2, lay2, params).items():
            rows, cols = (getattr(lay2, space) for space in FORM_SPACES[form])
            got = assemble_matrix(mesh2, rows, cols, form, coeffs.get(form, 1.0))
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
        assert rel_max(evaluate_E(mesh3, coefs, degree), want) <= 1e-13


class TestEvaluate:
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_E_matches_the_reference_basis(self, mesh2, lay2, degree):
        rng = np.random.default_rng(22)
        coefs = rng.standard_normal(lay2.E.count)
        got = evaluate_E(mesh2, coefs, degree)
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
        b2 = assemble_load(mesh2, lay2.P, f, 0.0, quad_degree=2)
        b6 = assemble_load(mesh2, lay2.P, f, 0.0, quad_degree=6)
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
        M = assemble_matrix(mesh2, lay2.P, lay2.P, "P_MASS", 1.0)
        A_ff, b_f = reduce_matrix(M, lay2.P, lay2.P), lay2.P.reduce(np.ones(lay2.P.count))
        assert A_ff.shape == (1, 1) and b_f.shape == (1,)
        assert lay2.P.num_free == (2 - 1) ** 3

    def test_n1_fully_constrained_scalar_space(self, mesh1):
        lay = make_layouts(mesh1)
        assert lay.P.num_free == 0 and lay.U.num_free == 0
        M = assemble_matrix(mesh1, lay.P, lay.P, "P_MASS", 1.0)
        A_ff, b_f = reduce_matrix(M, lay.P, lay.P), lay.P.reduce(np.ones(lay.P.count))
        assert A_ff.shape == (0, 0)
        np.testing.assert_array_equal(lay.P.extend(b_f[:0] * 0.0), np.zeros(lay.P.count))

    def test_reduction_preserves_symmetry(self, mesh2, lay2):
        A = assemble_matrix(mesh2, lay2.U, lay2.U, "ELASTICITY", (2.0, 1.0))
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
    interior = np.flatnonzero(mesh.face_cell_count == 2)
    chosen = rng.choice(interior, size=min(nfaces, interior.size), replace=False)

    face_to_cells = {}
    from epe.mesh import LOCAL_FACES

    for c, cell in enumerate(mesh.cells):
        for tri in LOCAL_FACES:
            key = tuple(sorted(cell[list(tri)]))
            face_to_cells.setdefault(key, []).append(c)

    jumps = []
    for fidx in chosen:
        tri = mesh.faces[fidx]
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
