"""Golden error norms of ``epe run`` with the default configuration.

The values were recorded from the solver before source loads were
precomputed; any refactor of assembly, loads or time stepping must
reproduce them to 1e-12 relative. The run below mirrors ``epe run``:
example 6.1 sources, headline parameters (T = 0.1, tau = 0.0025, 40 steps).
"""

import pytest

from epe.core import build_config
from epe.mesh import build_unit_cube_mesh
from epe.mms import error_norms, example61
from epe.schemes import Sources, run

GOLDEN = {
    ("splitting", 4): {
        "E_L2": 0.03424547148979787,
        "H_L2": 0.6059186323857454,
        "u_L2": 0.10981289829400237,
        "u_H1": 1.4502145300686344,
        "p_L2": 0.07875085202302483,
    },
    ("splitting", 8): {
        "E_L2": 0.017096483231202136,
        "H_L2": 0.3058925553351719,
        "u_L2": 0.029117415496349948,
        "u_H1": 0.754684024822641,
        "p_L2": 0.022201922477671096,
    },
    ("monolithic", 4): {
        "E_L2": 0.03397184133640972,
        "H_L2": 0.6059186323857593,
        "u_L2": 0.10981301780867193,
        "u_H1": 1.4502146199488193,
        "p_L2": 0.07884650592969374,
    },
    ("monolithic", 8): {
        "E_L2": 0.017003624858744997,
        "H_L2": 0.30589255533517995,
        "u_L2": 0.02911750649531166,
        "u_H1": 0.7546840629526166,
        "p_L2": 0.02225183953784178,
    },
}


@pytest.mark.parametrize("scheme,n", sorted(GOLDEN))
def test_run_errors_match_golden(scheme, n):
    config = build_config(None, {"mesh_n": n, "scheme": scheme})
    exact = example61(config.params)
    mesh = build_unit_cube_mesh(n)
    result = run(config, Sources(j=exact.j, f=exact.f, g=exact.g), exact, mesh=mesh)
    errs = error_norms(result.state, exact, config.grid.T, mesh, config.quad_error).as_dict()
    for name, ref in GOLDEN[(scheme, n)].items():
        assert errs[name] == pytest.approx(ref, rel=1e-12, abs=0.0), name
