import numpy as np
import pytest

from epe.core import build_config
from epe.fem.assembly import signed_curls
from epe.fem.dofs import make_layouts
from epe.mesh import build_unit_cube_mesh
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


def random_tet(rng, min_det=1e-2):
    """Random nondegenerate, positively oriented tetrahedron vertices."""
    while True:
        verts = rng.random((4, 3))
        mat = np.ones((4, 4))
        mat[:, 1:] = verts
        det = np.linalg.det(mat)
        if abs(det) < min_det:
            continue
        if det < 0:
            verts[[2, 3]] = verts[[3, 2]]
        return verts


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
