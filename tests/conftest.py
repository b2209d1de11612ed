import numpy as np
import pytest

from epe.core import build_config
from epe.fem.assembly import signed_curls
from epe.fem.dofs import make_layouts
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
    return Discretization(mesh2, make_layouts(mesh2), params)


@pytest.fixture(scope="session")
def disc3(mesh3, params):
    return Discretization(mesh3, make_layouts(mesh3), params)


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
