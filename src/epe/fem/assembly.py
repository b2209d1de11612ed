"""Vectorized Galerkin assembly of all bilinear forms and load vectors.

Every matrix is assembled on the FULL DOF set (no boundary elimination);
reduction happens afterwards through the layout helpers. All integrands are
polynomial of degree at most 2, so the degree-2 rule ``ASSEMBLY_DEGREE``
integrates every form exactly.

Forms (``FORM_SPACES``): the E, H, P and U masses, the pressure-gradient
coupling into E, elasticity, the divergence coupling and the P stiffness.
The curl has no form: curl E_h is cellwise constant, so
``curl_dof_operator`` (W) is the whole discrete curl, the curl coupling is
M_H W and the curl-curl block is W^T M_H W.

Conventions:
  - A cell's Nedelec function for local edge i is multiplied by the stored
    cell-edge sign, so all cells agree on the global (low vertex -> high
    vertex) edge direction; tangential conformity follows.
  - U DOFs are vertex-major: dof = 3*vertex + component. H DOFs are
    cell-major: dof = 3*cell + component.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from epe.fem.dofs import DofLayout, LayoutMismatch
from epe.fem.quadrature import quadrature_rule
from epe.mesh import LOCAL_EDGES, TetMesh

#: Exactness degree of the rule every matrix is assembled with.
ASSEMBLY_DEGREE = 2

#: test space x trial space of every supported form tag
FORM_SPACES = {
    "MASS_E": ("E", "E"),
    "H_MASS": ("H", "H"),
    "GRAD_P_TO_E": ("E", "P"),
    "ELASTICITY": ("U", "U"),
    "DIV_COUPLING": ("P", "U"),
    "P_MASS": ("P", "P"),
    "P_STIFF": ("P", "P"),
    "U_MASS": ("U", "U"),
}


def _basis_data(mesh: TetMesh, degree: int) -> dict:
    """Per-mesh cache of quadrature values shared by all forms."""
    key = ("basis", degree)
    if key in mesh._cache:
        return mesh._cache[key]
    rule = quadrature_rule(degree)
    lam = rule.barycentric()                      # (nq, 4)
    grads, vols = mesh.cell_geometry()            # (C, 4, 3), (C,)
    data = {
        "rule": rule,
        "w": rule.weights,
        "lam": lam,
        "grads": grads,
        "vols": vols,
        "points": np.einsum("qm,cmx->cqx", lam, mesh.vertices[mesh.cells]),
    }
    mesh._cache[key] = data
    return data


def _edge_function(d: dict, a: int, b: int, cells=slice(None)) -> np.ndarray:
    """Unsigned Nedelec function lam_a grad lam_b - lam_b grad lam_a at rule points, (C, nq, 3)."""
    lam, g = d["lam"], d["grads"][cells]
    return lam[None, :, a, None] * g[:, None, b, :] - lam[None, :, b, None] * g[:, None, a, :]


def _signed_edge_values(mesh: TetMesh, degree: int) -> np.ndarray:
    """Signed Nedelec values at quadrature points, shape (C, nq, 6, 3)."""
    key = ("nedelec_vals", degree)
    if key in mesh._cache:
        return mesh._cache[key]
    d = _basis_data(mesh, degree)
    vals = np.empty((mesh.num_cells, d["lam"].shape[0], 6, 3))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        vals[:, :, i, :] = _edge_function(d, a, b)
    vals *= mesh.cell_edge_signs[:, None, :, None]
    mesh._cache[key] = vals
    return vals


def signed_curls(mesh: TetMesh) -> np.ndarray:
    """Signed constant curls of the cell edge functions, shape (C, 6, 3)."""
    key = "signed_curls"
    if key in mesh._cache:
        return mesh._cache[key]
    g, _ = mesh.cell_geometry()
    curls = np.empty((mesh.num_cells, 6, 3))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        curls[:, i, :] = 2.0 * np.cross(g[:, a, :], g[:, b, :])
    curls *= mesh.cell_edge_signs[:, :, None]
    mesh._cache[key] = curls
    return curls


def _u_dofs(mesh: TetMesh) -> np.ndarray:
    """(C, 12) global U DOFs in local vertex-major order."""
    return (3 * mesh.cells[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 12)


def _h_dofs(mesh: TetMesh) -> np.ndarray:
    return 3 * np.arange(mesh.num_cells)[:, None] + np.arange(3)[None, :]


def _to_csr(rows, cols, data, shape) -> sp.csr_matrix:
    mat = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return mat.tocsr()


def assemble_matrix(
    mesh: TetMesh,
    row_layout: DofLayout,
    col_layout: DofLayout,
    form: str,
    coeff=1.0,
) -> sp.csr_matrix:
    """Assemble the full (unreduced) Galerkin matrix of ``form``.

    ``coeff`` is a scalar for every form except ELASTICITY, which takes the
    pair (lambda_c, G).
    """
    if form not in FORM_SPACES:
        raise LayoutMismatch(f"unknown form {form!r}")
    want_row, want_col = FORM_SPACES[form]
    if (row_layout.space, col_layout.space) != (want_row, want_col):
        raise LayoutMismatch(
            f"form {form} expects spaces {want_row} x {want_col}, "
            f"got {row_layout.space} x {col_layout.space}"
        )
    shape = (row_layout.count, col_layout.count)
    d = _basis_data(mesh, ASSEMBLY_DEGREE)
    w, lam, g, vols = d["w"], d["lam"], d["grads"], d["vols"]
    six_v = 6.0 * vols

    if form == "MASS_E":
        vals = _signed_edge_values(mesh, ASSEMBLY_DEGREE)
        loc = coeff * six_v[:, None, None] * np.einsum("q,cqix,cqjx->cij", w, vals, vals)
        ce = mesh.cell_edges
        rows = np.broadcast_to(ce[:, :, None], loc.shape)
        cols = np.broadcast_to(ce[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "H_MASS":
        return sp.diags(np.repeat(coeff * vols, 3)).tocsr()

    if form == "GRAD_P_TO_E":
        vals = _signed_edge_values(mesh, ASSEMBLY_DEGREE)
        loc = coeff * six_v[:, None, None] * np.einsum("q,cqix,cmx->cim", w, vals, g)
        rows = np.broadcast_to(mesh.cell_edges[:, :, None], loc.shape)
        cols = np.broadcast_to(mesh.cells[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "ELASTICITY":
        lambda_c, shear = coeff
        gflat = g.reshape(-1, 12)                # gflat[c, 3m+a] = d_a lam_m
        gg = np.einsum("clx,cmx->clm", g, g)
        eye3 = np.eye(3)
        loc = lambda_c * vols[:, None, None] * gflat[:, :, None] * gflat[:, None, :]
        loc += shear * vols[:, None, None] * np.einsum(
            "clm,ba->clbma", gg, eye3
        ).reshape(-1, 12, 12)
        ud = _u_dofs(mesh)
        rows = np.broadcast_to(ud[:, :, None], loc.shape)
        cols = np.broadcast_to(ud[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "DIV_COUPLING":
        gflat = g.reshape(-1, 12)
        loc = coeff * (vols / 4.0)[:, None, None] * np.broadcast_to(
            gflat[:, None, :], (mesh.num_cells, 4, 12)
        )
        rows = np.broadcast_to(mesh.cells[:, :, None], loc.shape)
        cols = np.broadcast_to(_u_dofs(mesh)[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "P_MASS":
        S = np.einsum("q,qi,qj->ij", w, lam, lam)
        loc = coeff * six_v[:, None, None] * S[None, :, :]
        rows = np.broadcast_to(mesh.cells[:, :, None], loc.shape)
        cols = np.broadcast_to(mesh.cells[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "P_STIFF":
        gg = np.einsum("clx,cmx->clm", g, g)
        loc = coeff * vols[:, None, None] * gg
        rows = np.broadcast_to(mesh.cells[:, :, None], loc.shape)
        cols = np.broadcast_to(mesh.cells[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    if form == "U_MASS":
        S = np.einsum("q,qi,qj->ij", w, lam, lam)
        eye3 = np.eye(3)
        loc = coeff * six_v[:, None, None] * np.einsum("lm,ba->lbma", S, eye3).reshape(
            1, 12, 12
        )
        ud = _u_dofs(mesh)
        rows = np.broadcast_to(ud[:, :, None], loc.shape)
        cols = np.broadcast_to(ud[:, None, :], loc.shape)
        return _to_csr(rows, cols, loc, shape)

    raise LayoutMismatch(f"unhandled form {form!r}")


def curl_dof_operator(mesh: TetMesh) -> sp.csr_matrix:
    """Map E coefficients to the cellwise-constant curl components (3C x E).

    Row 3c+d holds (curl E_h)_d on cell c; no volume weighting. This is the
    exact curl of the discrete field: the magnetic-field update applies it
    directly, and the curl coupling and curl-curl block are M_H W and
    W^T M_H W.
    """
    curls = signed_curls(mesh)                   # (C, 6, 3)
    loc = np.transpose(curls, (0, 2, 1))         # (C, 3, 6)
    rows = np.broadcast_to(_h_dofs(mesh)[:, :, None], loc.shape)
    cols = np.broadcast_to(mesh.cell_edges[:, None, :], loc.shape)
    return _to_csr(rows, cols, loc, (3 * mesh.num_cells, mesh.num_edges))


def assemble_load(
    mesh: TetMesh, layout: DofLayout, f, t: float, quad_degree: int = ASSEMBLY_DEGREE
) -> np.ndarray:
    """Load vector (f(t, .), basis_i) for every DOF i of ``layout``.

    ``f(t, pts)`` takes points of shape (m, 3) and returns (m, 3) for the
    vector spaces E, H, U and (m,) for P.
    """
    d = _basis_data(mesh, quad_degree)
    w, lam, vols, pts = d["w"], d["lam"], d["vols"], d["points"]
    nc, nq = pts.shape[0], pts.shape[1]
    fvals = np.asarray(f(t, pts.reshape(-1, 3)))
    b = np.zeros(layout.count)

    if layout.space == "E":
        fvals = fvals.reshape(nc, nq, 3)
        vals = _signed_edge_values(mesh, quad_degree)
        loc = 6.0 * vols[:, None] * np.einsum("q,cqix,cqx->ci", w, vals, fvals)
        np.add.at(b, mesh.cell_edges, loc)
    elif layout.space == "H":
        fvals = fvals.reshape(nc, nq, 3)
        loc = 6.0 * vols[:, None] * np.einsum("q,cqx->cx", w, fvals)
        np.add.at(b, _h_dofs(mesh), loc)
    elif layout.space == "U":
        fvals = fvals.reshape(nc, nq, 3)
        loc = 6.0 * vols[:, None, None] * np.einsum("q,qm,cqx->cmx", w, lam, fvals)
        np.add.at(b, _u_dofs(mesh), loc.reshape(nc, 12))
    elif layout.space == "P":
        fvals = fvals.reshape(nc, nq)
        loc = 6.0 * vols[:, None] * np.einsum("q,qm,cq->cm", w, lam, fvals)
        np.add.at(b, mesh.cells, loc)
    else:
        raise LayoutMismatch(f"unknown space {layout.space!r}")
    return b


# Field evaluation at quadrature points (error norms, output) -----------------


def evaluate_E(mesh: TetMesh, coefs: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete E field at the rule points of ``cells`` (default all), shape (C, nq, 3).

    Summed edge by edge: at the error-norm degree, the (C, nq, 6, 3) table of
    ``_signed_edge_values`` would be a run's largest array (95 MB at n = 16).
    """
    d = _basis_data(mesh, quad_degree)
    signed = coefs[mesh.cell_edges[cells]] * mesh.cell_edge_signs[cells]     # (C, 6)
    E = np.zeros((signed.shape[0], d["lam"].shape[0], 3))
    for i, (a, b) in enumerate(LOCAL_EDGES):
        E += signed[:, i, None, None] * _edge_function(d, a, b, cells)
    return E


def evaluate_H(mesh: TetMesh, coefs: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Cellwise-constant H field of ``cells`` (default all), shape (C, 3)."""
    return coefs.reshape(mesh.num_cells, 3)[cells]


def evaluate_U(mesh: TetMesh, coefs: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete displacement at the rule points of ``cells`` (default all), shape (C, nq, 3)."""
    d = _basis_data(mesh, quad_degree)
    nodal = coefs.reshape(-1, 3)[mesh.cells[cells]]     # (C, 4, 3)
    return np.einsum("qm,cmx->cqx", d["lam"], nodal)


def evaluate_grad_U(mesh: TetMesh, coefs: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Cellwise-constant displacement gradient of ``cells``, shape (C, 3, 3): [r, x] = d_x u_r."""
    g, _ = mesh.cell_geometry()
    nodal = coefs.reshape(-1, 3)[mesh.cells[cells]]
    return np.einsum("cmr,cmx->crx", nodal, g[cells])


def evaluate_P(mesh: TetMesh, coefs: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete pressure at the rule points of ``cells`` (default all), shape (C, nq)."""
    d = _basis_data(mesh, quad_degree)
    return np.einsum("qm,cm->cq", d["lam"], coefs[mesh.cells[cells]])


def quadrature_points(mesh: TetMesh, quad_degree: int) -> np.ndarray:
    """Physical rule points of every cell, shape (C, nq, 3)."""
    return _basis_data(mesh, quad_degree)["points"]


def quadrature_cell_weights(mesh: TetMesh, quad_degree: int):
    """(weights (nq,), 6*volumes (C,)) so that int_K f = 6V_K sum_q w_q f(x_q)."""
    d = _basis_data(mesh, quad_degree)
    return d["w"], 6.0 * d["vols"]
