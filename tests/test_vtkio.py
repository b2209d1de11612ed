import numpy as np
import pytest

from epe.cli import EXIT_OK, EXIT_VALIDATION, main
from epe.fem.assembly import evaluate_E
from epe.schemes import State
from epe.vtkio import VtkObserver, write_vtk


def sections(path):
    """Map each section keyword of a legacy VTK file to (header words, following lines)."""
    lines = path.read_text().splitlines()
    out = {}
    for i, line in enumerate(lines):
        words = line.split()
        if words and words[0] in ("POINTS", "CELLS", "CELL_TYPES", "POINT_DATA", "CELL_DATA"):
            out[words[0]] = (words, lines[i + 1 :])
        if words[:2] == ["VECTORS", "E"]:
            out["E"] = (words, lines[i + 1 :])
    return out


@pytest.fixture
def random_state(mesh2):
    rng = np.random.default_rng(50)
    return State(
        E=rng.standard_normal(mesh2.num_edges),
        H=rng.standard_normal(3 * mesh2.num_cells),
        u=rng.standard_normal(3 * mesh2.num_vertices),
        p=rng.standard_normal(mesh2.num_vertices),
        n=3,
        t=0.0075,
    )


def test_run_writes_a_file_every_k_steps(tmp_path):
    # 4 steps with a file every 2: the states n = 0, 2, 4
    argv = ["run", "--n", "2", "--T", "0.01", "--tau", "0.0025", "--vtk-every", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    names = sorted(p.name for p in tmp_path.glob("*.vtk"))
    assert names == ["state_00000.vtk", "state_00002.vtk", "state_00004.vtk"]


def test_observer_counts(tmp_path, mesh2, random_state):
    obs = VtkObserver(tmp_path, mesh2, every=3)
    for n in range(8):
        obs(n, 0.0, random_state, None, 0.0)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"state_0000{n}.vtk" for n in (0, 3, 6)]


def test_grid_section_counts(tmp_path, mesh2, random_state):
    sec = sections(write_vtk(tmp_path / "s.vtk", mesh2, random_state))
    nv, nc = mesh2.num_vertices, mesh2.num_cells
    assert sec["POINTS"][0] == ["POINTS", str(nv), "double"]
    assert sec["CELLS"][0] == ["CELLS", str(nc), str(5 * nc)]
    assert sec["CELL_TYPES"][0] == ["CELL_TYPES", str(nc)]
    cells = np.array([line.split() for line in sec["CELLS"][1][:nc]], dtype=int)
    np.testing.assert_array_equal(cells[:, 0], 4)
    np.testing.assert_array_equal(cells[:, 1:], mesh2.cells)
    assert sec["CELL_TYPES"][1][:nc] == ["10"] * nc
    assert sec["POINT_DATA"][0] == ["POINT_DATA", str(nv)]
    assert sec["CELL_DATA"][0] == ["CELL_DATA", str(nc)]


def test_cell_E_is_the_centroid_value(tmp_path, mesh2, random_state):
    sec = sections(write_vtk(tmp_path / "s.vtk", mesh2, random_state))
    E_cell = np.array([line.split() for line in sec["E"][1][: mesh2.num_cells]], dtype=float)
    want = evaluate_E(mesh2, random_state.E, mesh2.cell_geometry()[0], 1)[:, 0, :]
    np.testing.assert_allclose(E_cell, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


@pytest.mark.parametrize("every", [0, -1])
def test_interval_below_one_rejected(tmp_path, mesh2, every):
    with pytest.raises(ValueError):
        VtkObserver(tmp_path, mesh2, every=every)
    argv = ["run", "--n", "2", "--T", "0.01", "--tau", "0.0025", "--vtk-every", str(every)]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
