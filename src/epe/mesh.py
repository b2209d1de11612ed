"""Structured tetrahedral mesh of the unit cube.

Each lattice sub-cube is split into the six tetrahedra that share its main
diagonal (the Kuhn/Freudenthal pattern), so refinements nest and every cell
has the same volume 1/(6 n^3). Entities are numbered deterministically:
vertices lexicographically on the lattice, edges as sorted vertex pairs in
lexicographic order. Every edge is globally oriented from its lower to its
higher vertex index; each cell stores, for its six local edges, the global
edge index and the sign relating local to global direction.

Edges are numbered by lattice arithmetic, without a sort: an edge joins a
vertex v to v + d for one of the seven monotone steps d of ``EDGE_STEPS``,
whose vertex-id offsets increase in that order, so the lexicographic edge id
of (v, d) is a running count over the (V, 7) table of steps that stay on
the lattice (each such step is an edge of some cell). Faces are not
numbered: no finite-element space lives on them (E is on edges, H on cells,
u and p on vertices).

A mesh caches nothing: ``TetMesh.cell_geometry`` computes the cells'
gradients and volumes on every call. Setup keeps the whole mesh's in the
setup tables of ``fem.assembly``; error norms take them block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np


class InvalidSubdivision(ValueError):
    """Subdivision count below 1."""


#: Local edges of a tetrahedron as ordered local vertex pairs.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Lattice steps from an edge's low vertex to its high vertex, in increasing
#: order of the vertex-id offset (i, j, k) . (s^2, s, 1), s = n + 1.
EDGE_STEPS = np.array([(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)])


@dataclass(frozen=True)
class TetMesh:
    """Immutable tetrahedral partition of [0,1]^3 with oriented entities."""

    n: int
    vertices: np.ndarray          # (V, 3) float
    cells: np.ndarray             # (C, 4) int, positively oriented
    edges: np.ndarray             # (E, 2) int, each row (a, b) with a < b
    cell_edges: np.ndarray        # (C, 6) int, global edge index per local edge
    cell_edge_signs: np.ndarray   # (C, 6) int, +1 local matches global, else -1
    boundary_vertex: np.ndarray   # (V,) bool
    boundary_edge: np.ndarray     # (E,) bool
    h: float                      # max cell diameter = sqrt(3)/n

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def cell_geometry(self, cells=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric gradients (C,4,3) and signed volumes (C,) of ``cells`` (default all), in closed form.

        With e_k = x_k - x_0 the edges from a cell's first vertex, the signed volume is det / 6,
        det = e_1 . (e_2 x e_3), and grad lam_k (k = 1, 2, 3) is the cross product of the other two
        edges (cyclically) over det; grad lam_0 = -(grad lam_1 + grad lam_2 + grad lam_3). Computed
        row by row on every call: a block's rows equal those of all cells bit for bit.
        """
        verts = self.vertices[self.cells[cells]]     # (C, 4, 3)
        e = verts[:, 1:, :] - verts[:, :1, :]        # (C, 3, 3) edges from vertex 0
        grads = np.empty(verts.shape)
        grads[:, 1:, :] = np.cross(e[:, [1, 2, 0], :], e[:, [2, 0, 1], :])   # e2 x e3, e3 x e1, e1 x e2
        det = np.einsum("cj,cj->c", e[:, 0, :], grads[:, 1, :])
        grads[:, 1:, :] /= det[:, None, None]
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        return grads, det / 6.0


def build_unit_cube_mesh(n: int) -> TetMesh:
    """Partition [0,1]^3 into 6*n^3 tetrahedra on the uniform lattice.

    The six tetrahedra of each sub-cube are generated by the axis
    permutations of the monotone lattice path from the cube's low corner to
    its high corner, so all cells share the main-diagonal direction. Cell
    vertex tuples are reordered where needed to make every signed volume
    positive.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidSubdivision(f"subdivisions per edge must be an integer >= 1, got {n!r}")
    n = int(n)

    side = n + 1
    ii, jj, kk = np.meshgrid(np.arange(side), np.arange(side), np.arange(side), indexing="ij")
    lattice = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    vertices = lattice.astype(float) / n
    boundary_vertex = np.any((lattice == 0) | (lattice == n), axis=1)

    def vid(i, j, k):
        return (i * side + j) * side + k

    # Monotone-path tetrahedra of the unit cube, fixed local order per axis
    # permutation; odd permutations get their last two vertices swapped so
    # the signed volume is positive.
    corner_tets = []
    for perm in sorted(permutations(range(3))):
        steps = np.zeros((4, 3), dtype=int)
        for m, axis in enumerate(perm, start=1):
            steps[m] = steps[m - 1]
            steps[m, axis] = 1
        parity = _permutation_parity(perm)
        order = [0, 1, 2, 3] if parity > 0 else [0, 1, 3, 2]
        corner_tets.append(steps[order])
    corner_tets = np.asarray(corner_tets)        # (6, 4, 3)

    base = np.stack(np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"), axis=-1)
    base = base.reshape(-1, 3)                   # (n^3, 3) sub-cube low corners
    # cells[c*6 + t] = tet t of sub-cube c
    corners = base[:, None, None, :] + corner_tets[None, :, :, :]   # (n^3, 6, 4, 3)
    cells = vid(corners[..., 0], corners[..., 1], corners[..., 2]).reshape(-1, 4)

    edges, cell_edges, cell_edge_signs = _number_edges(lattice, cells, n)
    edge_boundary = _boundary_edges(lattice, edges, n)

    mesh = TetMesh(
        n=n,
        vertices=vertices,
        cells=cells,
        edges=edges,
        cell_edges=cell_edges,
        cell_edge_signs=cell_edge_signs,
        boundary_vertex=boundary_vertex,
        boundary_edge=edge_boundary,
        h=np.sqrt(3.0) / n,
    )
    edges_from_0 = vertices[cells[:, 1:]] - vertices[cells[:, :1]]   # their det is 6 x signed volume
    assert np.all(np.linalg.det(edges_from_0) > 0.0), "cell orientation must be positive"
    return mesh


def _permutation_parity(perm) -> int:
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _number_edges(lattice: np.ndarray, cells: np.ndarray, n: int):
    side = n + 1
    offsets = EDGE_STEPS @ np.array([side * side, side, 1])
    on_lattice = np.all(lattice[:, None, :] + EDGE_STEPS[None, :, :] <= n, axis=2)   # (V, 7)
    ids = np.cumsum(on_lattice.ravel()).reshape(on_lattice.shape) - 1
    low, step = np.nonzero(on_lattice)
    edges = np.stack([low, low + offsets[step]], axis=1)
    pairs = cells[:, np.asarray(LOCAL_EDGES)]   # (C, 6, 2) ordered local pairs
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    signs = np.where(pairs[:, :, 0] == lo, 1, -1).astype(np.int64)
    cell_edges = ids[lo, np.searchsorted(offsets, hi - lo)]
    return edges.astype(np.int64), cell_edges.astype(np.int64), signs


def _boundary_edges(lattice: np.ndarray, edges: np.ndarray, n: int) -> np.ndarray:
    a, b = lattice[edges[:, 0]], lattice[edges[:, 1]]
    on_common_wall = ((a == 0) & (b == 0)) | ((a == n) & (b == n))
    return np.any(on_common_wall, axis=1)
