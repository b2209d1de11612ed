"""Legacy ASCII VTK output of simulation states (one file per step)."""

from __future__ import annotations

from pathlib import Path

from epe.fem import assembly
from epe.mesh import TetMesh


def write_vtk(path, mesh: TetMesh, state) -> Path:
    """Write an unstructured-grid snapshot.

    Point data: displacement u (vectors), pressure p (scalars). Cell data:
    magnetic field H (vectors) and the electric field E interpolated at
    cell centroids (vectors).
    """
    path = Path(path)
    centroid_rule = 1
    g, _ = mesh.cell_geometry()
    E_cell = assembly.evaluate_E(mesh, state.E, g, centroid_rule)[:, 0, :]
    H_cell = assembly.evaluate_H(mesh, state.H)
    u_pts = state.u.reshape(-1, 3)

    lines = [
        "# vtk DataFile Version 3.0",
        f"electroporoelasticity state n={state.n} t={state.t:.6e}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    lines += [" ".join(f"{c:.9e}" for c in v) for v in mesh.vertices]
    lines.append(f"CELLS {mesh.num_cells} {5 * mesh.num_cells}")
    lines += ["4 " + " ".join(map(str, cell)) for cell in mesh.cells]
    lines.append(f"CELL_TYPES {mesh.num_cells}")
    lines += ["10"] * mesh.num_cells

    lines.append(f"POINT_DATA {mesh.num_vertices}")
    lines.append("VECTORS u double")
    lines += [" ".join(f"{c:.9e}" for c in v) for v in u_pts]
    lines.append("SCALARS p double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [f"{v:.9e}" for v in state.p]

    lines.append(f"CELL_DATA {mesh.num_cells}")
    lines.append("VECTORS H double")
    lines += [" ".join(f"{c:.9e}" for c in v) for v in H_cell]
    lines.append("VECTORS E double")
    lines += [" ".join(f"{c:.9e}" for c in v) for v in E_cell]

    path.write_text("\n".join(lines) + "\n")
    return path


class VtkObserver:
    """Observer hook writing a snapshot ``state_NNNNN.vtk`` every ``every`` steps."""

    def __init__(self, out_dir, mesh: TetMesh, every: int = 1):
        if every < 1:
            raise ValueError(f"dump interval must be >= 1, got {every}")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.mesh = mesh
        self.every = every

    def __call__(self, n, t, state, energy, wall):
        if n % self.every == 0:
            write_vtk(self.out_dir / f"state_{n:05d}.vtk", self.mesh, state)
