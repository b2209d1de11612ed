"""Degree-of-freedom layouts and homogeneous Dirichlet elimination.

Space tags and their DOFs:
  E: one tangential moment per mesh edge (boundary edges constrained)
  H: three vector components per cell (no constraints)
  U: three displacement components per vertex (boundary vertices constrained)
  P: one pressure value per vertex (boundary vertices constrained)

Constrained DOFs always carry the value 0; the reduction strategy is row
and column elimination, with solutions extended by zeros afterwards.
``free_dof_points`` locates each free DOF on the mesh lattice, which is
what the nested-dissection ordering of the LDL^T factorizations works from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from epe.mesh import TetMesh

SPACE_TAGS = ("E", "H", "U", "P")


class LayoutMismatch(ValueError):
    """Layout does not match the space a form or operation expects."""


@dataclass(frozen=True)
class DofLayout:
    space: str
    count: int
    constrained: np.ndarray   # bool mask over all DOFs

    def __post_init__(self):
        if self.space not in SPACE_TAGS:
            raise LayoutMismatch(f"unknown space tag {self.space!r}")
        if self.constrained.shape != (self.count,):
            raise LayoutMismatch("constrained mask must cover every DOF")

    @cached_property
    def free(self) -> np.ndarray:
        return np.flatnonzero(~self.constrained)

    @property
    def num_free(self) -> int:
        return int((~self.constrained).sum())

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Restrict a full vector to the unconstrained DOFs."""
        return np.asarray(vec)[self.free]

    def extend(self, reduced: np.ndarray) -> np.ndarray:
        """Zero-extend a reduced vector back to the full DOF set."""
        full = np.zeros(self.count)
        full[self.free] = reduced
        return full


class Layouts(NamedTuple):
    E: DofLayout
    H: DofLayout
    U: DofLayout
    P: DofLayout


def make_layouts(mesh: TetMesh) -> Layouts:
    nv, nc, ne = mesh.num_vertices, mesh.num_cells, mesh.num_edges
    vec_constrained = np.repeat(mesh.boundary_vertex, 3)
    return Layouts(
        E=DofLayout("E", ne, mesh.boundary_edge.copy()),
        H=DofLayout("H", 3 * nc, np.zeros(3 * nc, dtype=bool)),
        U=DofLayout("U", 3 * nv, vec_constrained),
        P=DofLayout("P", nv, mesh.boundary_vertex.copy()),
    )


def free_dof_points(mesh: TetMesh, layout: DofLayout) -> np.ndarray:
    """Location of every free DOF of ``layout`` in lattice units (coordinates times n).

    P: its vertex; U: its vertex, once per component; E: the edge midpoint;
    H: the cell centroid, once per component. Lattice planes sit at integer
    coordinates, and the values are exact multiples of 1/4.
    """
    lattice = np.rint(mesh.vertices * mesh.n)
    if layout.space == "E":
        points = lattice[mesh.edges].mean(axis=1)
    elif layout.space == "H":
        points = np.repeat(lattice[mesh.cells].mean(axis=1), 3, axis=0)
    elif layout.space == "U":
        points = np.repeat(lattice, 3, axis=0)
    else:
        points = lattice
    if points.shape[0] != layout.count:
        raise LayoutMismatch(f"layout {layout.space} does not belong to this mesh")
    return points[layout.free]


def reduce_matrix(A: sp.spmatrix, row_layout: DofLayout, col_layout: DofLayout) -> sp.csr_matrix:
    """Drop constrained rows and columns of a full assembled matrix."""
    if A.shape != (row_layout.count, col_layout.count):
        raise LayoutMismatch(
            f"matrix shape {A.shape} does not match layouts "
            f"({row_layout.count}, {col_layout.count})"
        )
    return A.tocsr()[row_layout.free][:, col_layout.free].tocsr()
