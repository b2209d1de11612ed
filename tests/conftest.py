import numpy as np
import pytest
import scipy.sparse as sp

from epe.core import PhysicalParams, build_config
from epe.fem.assembly import assemble_matrix, signed_curls
from epe.fem.dofs import reduce_matrix
from epe.fem.quadrature import quadrature_rule
from epe.linalg import FRONT_MAX, LuSolver
from epe.mesh import LOCAL_EDGES, build_unit_cube_mesh
from epe.schemes import Discretization, State


@pytest.fixture(scope="session")
def config():
    """Headline study configuration (tau = 0.0025, T = 0.1, splitting)."""
    return build_config()


@pytest.fixture(scope="session")
def params(config):
    return config.params


@pytest.fixture(scope="session")
def mesh1():
    return build_unit_cube_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return build_unit_cube_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return build_unit_cube_mesh(3)


@pytest.fixture(scope="session")
def mesh4():
    return build_unit_cube_mesh(4)


@pytest.fixture(scope="session")
def disc2(mesh2, params):
    return Discretization(mesh2, params)


@pytest.fixture(scope="session")
def disc3(mesh3, params):
    return Discretization(mesh3, params)


def full_operator(disc, form, coeff=1.0):
    """The full (unreduced) matrix of ``form`` on ``disc``'s mesh, assembled here.

    The discretization keeps only the free blocks a time step applies, so
    tests that need B_div, M_P, K_P or M_U assemble them.
    """
    return assemble_matrix(disc.mesh, form, coeff)


def blocks(order, size=FRONT_MAX):
    """The elimination order ``order`` cut into consecutive blocks of at most ``size`` unknowns.

    ``blocks(np.arange(n))`` keeps the natural numbering; ``blocks(perm, 1)``
    makes each unknown a front of its own.
    """
    order = np.asarray(order)
    return np.array_split(order, max(1, -(-order.size // size)))


def saddle_blocks(A, B, C):
    """Oracle: the Biot step's symmetric quasi-definite matrix [[A, -B^T], [-B, -C]], as CSC."""
    return sp.bmat([[A, -B.T], [-B, -C]], format="csc")


def monolithic_blocks(A_em, A_el, B, G, C):
    """Oracle: the coupled step's 3-block (E, u, p) matrix with its u rows negated,
    [[A_em, 0, -G], [0, -A_el, B^T], [-G^T, B, C]], as CSC; G is tau L G_ff.

    Symmetric, and quasi-definite in {E, p} | {u} when L^2 < sigma kappa; its
    right-hand side is (rhs_E, -f_u, f_p).
    """
    return sp.bmat([[A_em, None, -G], [None, -A_el, B.T], [-G.T, B, C]], format="csc")


def elasticity_ff(disc):
    """The elasticity block A_el on the free U DOFs, assembled here."""
    p, L = disc.params, disc.layouts
    return reduce_matrix(full_operator(disc, "ELASTICITY", (p.lambda_c, p.G)), L.U, L.U)


class BhOperator:
    """Discrete pressure-to-dilation map: p -> alpha div u with a(u, v) = (p, alpha div v).

    Self-adjoint and monotone on the constrained pressure space; the inner
    product (Bh p, q) equals q^T B A^{-1} B^T p on free DOFs.
    """

    def __init__(self, disc: Discretization):
        self.disc = disc
        self._lu_A = LuSolver(disc.elasticity(), disc.order("U"), tol=1e-8).factor()

    def displacement(self, p_free: np.ndarray) -> np.ndarray:
        """Free U DOFs of the u with a(u, v) = (p, alpha div v), p given on the free P DOFs."""
        u_free, _ = self._lu_A.solve(self.disc.B_ff.T @ p_free)
        return u_free

    def inner(self, p_full: np.ndarray, q_full: np.ndarray) -> float:
        """(Bh p, q) in L2."""
        L = self.disc.layouts.P
        return float(L.reduce(q_full) @ (self.disc.B_ff @ self.displacement(L.reduce(p_full))))


def discrete_energy(
    state: State, params: PhysicalParams, tau: float, disc: Discretization, bh: BhOperator
) -> float:
    """Energy eps||E||^2 + mu||H||^2 + ((c0 + Bh) p, p) + tau kappa ||grad p||^2."""
    p_free = disc.layouts.P.reduce(state.p)
    S = params.epsilon * float(state.E @ (disc.M_E @ state.E))
    S += params.mu * float(state.H @ (disc.m_H * state.H))
    S += params.c0 * float(p_free @ (disc.M_P_ff @ p_free))
    S += bh.inner(state.p, state.p)
    S += tau * params.kappa * float(p_free @ (disc.K_P_ff @ p_free))
    return S


#: Local faces (vertex triples) of a tetrahedron.
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def face_table(mesh):
    """Oracle for the faces: sorted vertex triples (F, 3) in lexicographic order, and the
    number of cells incident to each, by ``np.unique`` over the sorted triples of all cells."""
    triples = np.sort(mesh.cells[:, np.asarray(LOCAL_FACES)], axis=2).reshape(-1, 3)
    return np.unique(triples, axis=0, return_counts=True)


def cellwise_curl(mesh, coefs):
    """Oracle for the discrete curl W: curl of the edge field ``coefs`` per cell, shape (C, 3).

    Sums the signed constant curls of each cell's six edge functions; it
    does not go through ``curl_dof_operator``.
    """
    return np.einsum("cix,ci->cx", signed_curls(mesh), coefs[mesh.cell_edges])


def edge_functions(g, lam):
    """Oracle: the Nedelec functions lam_a grad lam_b - lam_b grad lam_a of the local edges (a, b).

    ``g`` holds barycentric gradients (C, 4, 3) and ``lam`` barycentric
    coordinates (C, m, 4) or (m, 4); returns unsigned values (C, m, 6, 3).
    """
    a, b = np.array(LOCAL_EDGES).T
    lam = np.broadcast_to(lam, (g.shape[0],) + np.shape(lam)[-2:])
    return lam[:, :, a, None] * g[:, None, b, :] - lam[:, :, b, None] * g[:, None, a, :]


def signed_edge_values(mesh, degree):
    """Oracle: the signed lam_a grad lam_b - lam_b grad lam_a at the rule points, (C, nq, 6, 3)."""
    g, _ = mesh.cell_geometry()
    vals = edge_functions(g, quadrature_rule(degree).barycentric())
    return vals * mesh.cell_edge_signs[:, None, :, None]


def quadrature_forms(mesh, lay):
    """Oracle: the full E mass ("MASS_E") and (grad p, N_e) coupling ("grad") by the degree-2 rule,
    which integrates both exactly; it goes through neither the closed forms nor ``gradient_operator``."""
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
    return {"MASS_E": M_E.tocsr(), "grad": G.tocsr()}


def barycentric(mesh, cells, pts):
    """Oracle: barycentric coordinates (len(cells), m, 4) of points ``pts`` (len(cells), m, 3).

    lam_m(x) = delta_m0 + grad lam_m . (x - v_0), with v_0 the first vertex of the cell.
    """
    g, _ = mesh.cell_geometry()
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    lam = np.einsum("cmx,cjx->cmj", pts - v0[:, None, :], g[cells])
    lam[:, :, 0] += 1.0
    return lam


def zero_state(layouts):
    """The state with every coefficient zero, at n = 0, t = 0."""
    return State(
        E=np.zeros(layouts.E.count),
        H=np.zeros(layouts.H.count),
        u=np.zeros(layouts.U.count),
        p=np.zeros(layouts.P.count),
        n=0,
        t=0.0,
    )
