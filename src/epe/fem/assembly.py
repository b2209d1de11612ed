"""Vectorized Galerkin assembly of all bilinear forms and load vectors.

Every matrix is assembled on the FULL DOF set (no boundary elimination) of
the two spaces its form names in ``FORM_SPACES``; reduction happens
afterwards through the layout helpers.

Local matrices are closed forms. Every lowest-order integrand is a product
of barycentric coordinates lam_m and their constant gradients, and
int_K lam_i lam_j = V (1 + delta_ij) / 20. So each local matrix is the cell
volume V times a constant, a product of gradients or, for the Nedelec
mass, a fixed linear map of gg = grad lam . grad lam (C, 4, 4): for edges
i = (a, b) and j = (c, d), with S = 1 + delta,
  int N_i . N_j = V/20 [S_ac gg_bd - S_ad gg_bc - S_bc gg_ad + S_bd gg_ac].
Cell-local values are summed into CSR through a ``CellPattern``: the
pattern of one pair of cell index maps (edges or vertices) and a sparse 0/1
scatter of every local entry into it, both from one stable argsort of the
local entries' keys. The U forms fill the vertex-pair pattern with 3 x 3
blocks (1 x 3 for the divergence coupling). The entries a form sums to
exactly zero (on the Kuhn lattice, many) are dropped, so each matrix stores
its nonzeros only.

Loads are integrated by the degree-2 rule ``LOAD_DEGREE`` (exact for
sources linear in x) through per-cell vertex moments F_m = int_K lam_m f;
the Nedelec load of edge (a, b) is F_a . grad lam_b - F_b . grad lam_a.

Setup tables: a ``tables`` dict keeps what more than one form, load or
operator reads: each ``CellPattern`` (keyed by whether its rows and columns
hang on edges; only M_E reads the edge pattern), the whole mesh's
``TetMesh.cell_geometry`` ("geometry"), the cells' gradient Gram matrices
("gram") and the read-only point table of the load rule ("points"). Only
this module knows the keys, and only ``schemes.Discretization`` passes a
dict (its ``setup_tables``): a run builds each table once, until
``Discretization.order`` clears them.

Forms (``FORM_SPACES``): the E, P and U masses, elasticity, the divergence
coupling and the P stiffness.
The H mass is diagonal, held as its diagonal ``h_mass``: the cell volumes.
The curl has no form: curl E_h is cellwise constant, so
``curl_dof_operator`` (W) is the whole discrete curl, the curl coupling is
M_H W and the curl-curl block is W^T M_H W. E vanishes on the constrained
edges, so ``schemes.Discretization`` keeps only W's free columns (W_f).
The gradient has no form either: ``gradient_operator`` (D) is the signed
edge-vertex incidence, with W D = 0, and grad(P1) lies in the Nedelec space,
so the pressure-gradient coupling (grad p, N_e) is exactly M_E D:
``schemes.Discretization`` builds its free block G_ff as the product of the
free blocks of M_E and D. The field evaluators (error norms, output) take
the gradients of the cells they evaluate.

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

#: Exactness degree of the rule every load vector is integrated with.
LOAD_DEGREE = 2

#: test space x trial space of every supported form tag
FORM_SPACES = {
    "MASS_E": ("E", "E"),
    "ELASTICITY": ("U", "U"),
    "DIV_COUPLING": ("P", "U"),
    "P_MASS": ("P", "P"),
    "P_STIFF": ("P", "P"),
    "U_MASS": ("U", "U"),
}

#: Low and high local vertex of each of the six local edges.
_A, _B = np.array(LOCAL_EDGES).T

#: int_K lam_i lam_j / V.
_P1_MASS = (1.0 + np.eye(4)) / 20.0


def _edge_mass_table() -> np.ndarray:
    """Coefficients of gg_lm in the unsigned int N_i . N_j / V, (16, 36)."""
    mass = np.zeros((4, 4, 6, 6))
    S = _P1_MASS
    for i, (a, b) in enumerate(LOCAL_EDGES):
        for j, (c, d) in enumerate(LOCAL_EDGES):
            mass[b, d, i, j] += S[a, c]
            mass[b, c, i, j] -= S[a, d]
            mass[a, d, i, j] -= S[b, c]
            mass[a, c, i, j] += S[b, d]
    return mass.reshape(16, 36)


_EDGE_MASS = _edge_mass_table()


def signed_curls(mesh: TetMesh, tables: dict | None = None) -> np.ndarray:
    """Signed constant curls of the cell edge functions (C, 6, 3); ``tables`` as in ``assemble_matrix``."""
    g, _ = _geometry(mesh, tables)
    curls = 2.0 * np.cross(g[:, _A, :], g[:, _B, :])
    return curls * mesh.cell_edge_signs[:, :, None]


class CellPattern:
    """CSR pattern of cell-local matrices on a pair of cell index maps, and where local entries go.

    ``rows`` (C, r) and ``cols`` (C, c) are the entities (edges or vertices)
    each cell's rows and columns hang on; ``shape`` counts those entities.
    ``scatter`` is the 0/1 map (CSR) from the C r c local entries to the
    stored entries they add into. Both come from one stable argsort of the
    local entries' keys row * ncol + col; being stable, it lists the local
    entries of each stored entry in increasing order, so ``sum`` adds them
    in that order.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        keys = (rows[:, :, None] * shape[1] + cols[:, None, :]).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        unique = keys[starts]
        self.shape = shape
        self.indices = unique % shape[1]
        self.indptr = np.searchsorted(unique, np.arange(shape[0] + 1) * shape[1])
        self.scatter = sp.csr_matrix(
            (np.ones(keys.size), order, np.append(starts, keys.size)), shape=(unique.size, keys.size)
        )

    def sum(self, loc: np.ndarray) -> np.ndarray:
        """Sum local values ``loc`` (C, r, c, ...) into the stored entries, (nnz, ...)."""
        summed = self.scatter @ loc.reshape(self.scatter.shape[1], -1)
        return summed.reshape(-1, *loc.shape[3:])

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with stored values ``data``: (nnz,) entries or (nnz, br, bc) blocks."""
        if data.ndim == 1:
            return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        shape = (self.shape[0] * data.shape[1], self.shape[1] * data.shape[2])
        return sp.bsr_matrix((data, self.indices, self.indptr), shape=shape).tocsr()


def _pattern(mesh: TetMesh, key: tuple[bool, bool], tables: dict) -> CellPattern:
    """The ``CellPattern`` of rows and columns on edges (True) or vertices (False), kept in ``tables``."""
    if key not in tables:
        (rows, nrow), (cols, ncol) = (
            (mesh.cell_edges, mesh.num_edges) if on_edges else (mesh.cells, mesh.num_vertices)
            for on_edges in key
        )
        tables[key] = CellPattern(rows, cols, (nrow, ncol))
    return tables[key]


def _geometry(mesh: TetMesh, tables: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """``mesh.cell_geometry()`` of all cells, kept in ``tables`` when one is given."""
    if tables is not None and "geometry" not in tables:
        tables["geometry"] = mesh.cell_geometry()
    return mesh.cell_geometry() if tables is None else tables["geometry"]


def _gram(mesh: TetMesh, tables: dict) -> np.ndarray:
    """gg[c, l, m] = grad lam_l . grad lam_m on cell c, shape (C, 4, 4), kept in ``tables``."""
    if "gram" not in tables:
        g, _ = _geometry(mesh, tables)
        tables["gram"] = g @ g.transpose(0, 2, 1)
    return tables["gram"]


def _load_points(mesh: TetMesh, tables: dict) -> np.ndarray:
    """Read-only physical points of the load rule in every cell, flat (C nq, 3), kept in ``tables``.

    Every load on one table receives this same array, so a source that
    caches per points array (``mms`` does) evaluates its table once.
    """
    if "points" not in tables:
        pts = quadrature_points(mesh, LOAD_DEGREE).reshape(-1, 3)
        pts.flags.writeable = False
        tables["points"] = pts
    return tables["points"]


def _assembled_values(mesh: TetMesh, form: str, coeff, pattern: CellPattern, tables: dict):
    """Stored values of ``form`` on ``pattern``: (nnz,), or (nnz, br, bc) blocks for U columns."""
    g, vols = _geometry(mesh, tables)
    V = vols[:, None, None]
    gg = _gram(mesh, tables)
    eye3 = np.eye(3)
    if form == "MASS_E":
        s = mesh.cell_edge_signs
        loc = (gg.reshape(-1, 16) @ _EDGE_MASS).reshape(-1, 6, 6)
        loc *= coeff * V
        loc *= s[:, :, None] * s[:, None, :]
        return pattern.sum(loc)
    if form == "P_MASS":
        return pattern.sum(coeff * V * _P1_MASS)
    if form == "P_STIFF":
        return pattern.sum(coeff * V * gg)
    if form == "U_MASS":
        return pattern.sum(coeff * V * _P1_MASS)[:, None, None] * eye3
    if form == "ELASTICITY":
        # block (l, m) = V [lambda_c grad lam_l grad lam_m^T + G gg_lm I]
        # the grad lam_l grad lam_m^T part is summed one (d1, d2) component at a time
        lambda_c, shear = coeff
        summed = np.empty((pattern.scatter.shape[0], 3, 3))
        for d1 in range(3):
            for d2 in range(3):
                outer = g[:, :, None, d1] * g[:, None, :, d2]
                outer *= V
                summed[:, d1, d2] = pattern.sum(outer)
        summed *= lambda_c
        summed += shear * pattern.sum(V * gg)[:, None, None] * eye3
        return summed
    if form == "DIV_COUPLING":
        # row: pressure vertex m; column block: displacement vertex l, component b
        loc = np.broadcast_to((coeff / 4.0 * V * g)[:, None, :, :], (g.shape[0], 4, 4, 3))
        return pattern.sum(loc)[:, None, :]
    raise LayoutMismatch(f"unhandled form {form!r}")


def assemble_matrix(mesh: TetMesh, form: str, coeff=1.0, tables: dict | None = None) -> sp.csr_matrix:
    """Assemble the full (unreduced) Galerkin matrix of ``form`` on its ``FORM_SPACES``.

    ``coeff`` is a scalar for every form except ELASTICITY, which takes the
    pair (lambda_c, G). ``tables`` keeps the setup tables (see the module
    docstring): pass one dict to every form and load of a mesh to build
    each table once, and clear it when setup ends. Entries that sum to
    exactly zero are not stored.
    """
    if form not in FORM_SPACES:
        raise LayoutMismatch(f"unknown form {form!r}")
    tables = {} if tables is None else tables
    pattern = _pattern(mesh, tuple(space == "E" for space in FORM_SPACES[form]), tables)
    A = pattern.csr(_assembled_values(mesh, form, coeff, pattern, tables))
    A.eliminate_zeros()
    return A


def curl_dof_operator(mesh: TetMesh, tables: dict | None = None) -> sp.csr_matrix:
    """Map E coefficients to the cellwise-constant curl components (3C x E).

    Row 3c+d holds (curl E_h)_d on cell c; no volume weighting. This is the
    exact curl of the discrete field: the magnetic-field update applies its
    free columns directly, and the curl coupling and curl-curl block are
    M_H W and W^T M_H W. Zero curl components are not stored.
    """
    # row 3c+d holds the d-th curl component of cell c's six edge functions
    values = np.transpose(signed_curls(mesh, tables), (0, 2, 1)).ravel()
    cols = np.repeat(mesh.cell_edges, 3, axis=0).ravel()
    W = sp.csr_matrix(
        (values, cols, np.arange(0, values.size + 1, 6)), shape=(3 * mesh.num_cells, mesh.num_edges)
    ).sorted_indices()
    W.eliminate_zeros()
    return W


def h_mass(mesh: TetMesh, tables: dict | None = None) -> np.ndarray:
    """The diagonal of the H mass M_H (3C,): each cell's volume, once per component."""
    return np.repeat(_geometry(mesh, tables)[1], 3)


def gradient_operator(mesh: TetMesh) -> sp.csr_matrix:
    """Map P1 coefficients to the edge coefficients of their gradient (E x V).

    Lowest-order Nedelec and P1 form an exact sequence (Whitney forms), so
    grad p_h = sum_e (p_b - p_a) N_e for edges e = (a, b): row e holds -1 at
    a and +1 at b, the signed edge-vertex incidence D. Hence W D = 0 and
    M_E D is the pressure-gradient coupling G_pe.
    """
    E = mesh.num_edges
    values = np.tile([-1.0, 1.0], E)
    return sp.csr_matrix(
        (values, mesh.edges.ravel(), np.arange(0, 2 * E + 1, 2)), shape=(E, mesh.num_vertices)
    )


def assemble_load(
    mesh: TetMesh,
    layout: DofLayout,
    f,
    t: float,
    tables: dict | None = None,
) -> np.ndarray:
    """Load vector (f(t, .), basis_i) for every DOF i of ``layout``, by the ``LOAD_DEGREE`` rule.

    ``f(t, pts)`` takes read-only points of shape (m, 3) and returns (m, 3)
    for the vector spaces E, H, U and (m,) for P. ``tables`` keeps the
    rule's point table and the geometry, as in ``assemble_matrix``.
    """
    rule = quadrature_rule(LOAD_DEGREE)
    w, lam = rule.weights, rule.barycentric()
    pts = _load_points(mesh, {} if tables is None else tables)
    g, vols = _geometry(mesh, tables)
    fvals = np.asarray(f(t, pts)).reshape(mesh.num_cells, w.size, -1)
    six_v = 6.0 * vols[:, None, None]
    if layout.space == "H":
        return (six_v[:, 0] * (w @ fvals)).ravel()
    moments = six_v * ((w[:, None] * lam).T @ fvals)      # (C, 4, k): int lam_m f
    if layout.space == "E":
        M = moments @ g.transpose(0, 2, 1)                 # M[c, m, n] = F_m . grad lam_n
        loc, dofs = (M[:, _A, _B] - M[:, _B, _A]) * mesh.cell_edge_signs, mesh.cell_edges
    elif layout.space == "U":
        loc, dofs = moments, 3 * mesh.cells[:, :, None] + np.arange(3)
    else:
        loc, dofs = moments, mesh.cells
    return np.bincount(dofs.ravel(), loc.ravel(), layout.count)


# Field evaluation at quadrature points (error norms, output) -----------------


def evaluate_E(mesh: TetMesh, coefs: np.ndarray, g: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete E field at the rule points of ``cells`` (default all), shape (C, nq, 3).

    With K the antisymmetric (4, 4) matrix of the signed edge coefficients (K_ab = -K_ba = e
    for edge (a, b)), the field is lam^T K g, g the barycentric gradients of ``cells``.
    """
    signed = coefs[mesh.cell_edges[cells]] * mesh.cell_edge_signs[cells]     # (C, 6)
    K = np.zeros((signed.shape[0], 4, 4))
    K[:, _A, _B] = signed
    K[:, _B, _A] = -signed
    return quadrature_rule(quad_degree).barycentric() @ (K @ g)


def evaluate_H(mesh: TetMesh, coefs: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Cellwise-constant H field of ``cells`` (default all), shape (C, 3)."""
    return coefs.reshape(mesh.num_cells, 3)[cells]


def evaluate_U(mesh: TetMesh, coefs: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete displacement at the rule points of ``cells`` (default all), shape (C, nq, 3)."""
    return quadrature_rule(quad_degree).barycentric() @ coefs.reshape(-1, 3)[mesh.cells[cells]]


def evaluate_grad_U(mesh: TetMesh, coefs: np.ndarray, g: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Cellwise-constant grad u of ``cells`` (``g`` as in ``evaluate_E``), (C, 3, 3): [r, x] = d_x u_r."""
    nodal = coefs.reshape(-1, 3)[mesh.cells[cells]]
    return np.einsum("cmr,cmx->crx", nodal, g)


def evaluate_P(mesh: TetMesh, coefs: np.ndarray, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Discrete pressure at the rule points of ``cells`` (default all), shape (C, nq)."""
    return coefs[mesh.cells[cells]] @ quadrature_rule(quad_degree).barycentric().T


def quadrature_points(mesh: TetMesh, quad_degree: int, cells=slice(None)) -> np.ndarray:
    """Physical rule points of ``cells`` (default all), shape (C, nq, 3); computed, not cached."""
    return quadrature_rule(quad_degree).barycentric() @ mesh.vertices[mesh.cells[cells]]

