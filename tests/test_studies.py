import math
from dataclasses import replace

import numpy as np
import pytest

from epe.core import SCHEMES, grid_for_step
from epe.fem.assembly import assemble_matrix
from epe.mesh import build_unit_cube_mesh
from epe.mms import example61
from epe.schemes import Sources, run
from epe.studies import (
    CSV_HEADER,
    DEFAULT_TAU_REF,
    DEFAULT_TAUS,
    ERROR_FIELDS,
    TIMING_FIELDS,
    StudyRow,
    benchmark,
    convergence_order,
    report_csv,
    spatial_convergence,
    temporal_convergence,
)

#: The paper proves O(tau + h) for the splitting scheme: order 1 in h for
#: E, H and u in H1, order 1 in tau. The margin covers the pre-asymptotic
#: range of these coarse meshes and steps, not a lower rate.
MIN_ORDER = 0.9


def parse_report_csv(text: str) -> list:
    """Re-parse an emitted CSV into StudyRow values."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0] == CSV_HEADER
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append(
            StudyRow(
                scheme=cells[0],
                n=int(cells[1]),
                h=float(cells[2]),
                tau=float(cells[3]),
                errors={f: float(c) for f, c in zip(ERROR_FIELDS, cells[4:9])},
                orders={f: float(c) for f, c in zip(ERROR_FIELDS, cells[9:14]) if c != ""},
                timings=dict(zip(TIMING_FIELDS, map(float, cells[14:19]))),
            )
        )
    return rows


def test_benchmark_csv_roundtrip_and_phases_add_up(config):
    report = benchmark([2], config)
    rows = parse_report_csv(report_csv(report))
    assert [(r.scheme, r.n) for r in rows] == [("monolithic", 2), ("splitting", 2)]
    for row, parsed in zip(report.rows, rows):
        assert set(parsed.timings) == set(TIMING_FIELDS)
        for key in TIMING_FIELDS:
            assert parsed.timings[key] == pytest.approx(row.timings[key], rel=1e-14, abs=1e-15)
        t = parsed.timings
        assert t["initial"] > 0.0
        assert abs(t["assemble"] + t["factorize"] + t["initial"] + t["loop"] - t["total"]) <= 1e-9


def test_convergence_order_of_a_zero_error_is_nan():
    assert convergence_order(0.4, 0.1, 0.5, 0.25) == pytest.approx(2.0, rel=1e-14)
    for e_prev, e_curr in ((0.0, 0.0), (0.1, 0.0), (0.0, 0.1)):
        assert math.isnan(convergence_order(e_prev, e_curr, 0.5, 0.25))


def test_spatial_orders_are_first_order(config):
    orders = spatial_convergence([4, 8, 12], config).rows[-1].orders
    for field in ("E_L2", "H_L2", "u_H1"):
        assert orders[field] >= MIN_ORDER, (field, orders)


def mass_matrix_norms(mesh, state, ref) -> dict:
    """Oracle: discrete L2 norms of state - ref (and the H1 norm of u) by assembled mass and
    stiffness matrices, as the temporal study measured them before it called ``error_norms``."""
    K_U = assemble_matrix(mesh, "ELASTICITY", (0.0, 1.0))
    M_U, M_P, M_E = (assemble_matrix(mesh, form) for form in ("U_MASS", "P_MASS", "MASS_E"))
    m_H = np.repeat(mesh.cell_geometry()[1], 3)
    dE, dH, du, dp = (getattr(state, f) - getattr(ref, f) for f in "EHup")
    u_sq = du @ (M_U @ du)
    return {
        "E_L2": np.sqrt(dE @ (M_E @ dE)),
        "H_L2": np.sqrt(dH @ (m_H * dH)),
        "u_L2": np.sqrt(u_sq),
        "u_H1": np.sqrt(u_sq + du @ (K_U @ du)),
        "p_L2": np.sqrt(dp @ (M_P @ dp)),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_temporal_norms_match_the_mass_matrix_norms(config, scheme):
    """At n = 3 the study's norms equal the mass-matrix norms of the same final states to 1e-12,
    and each row reports the wall times of its own run."""
    config = replace(config, scheme=scheme)
    taus, tau_ref = (0.05, 0.025), 0.003125
    report = temporal_convergence(3, taus, config, tau_ref)
    mesh = build_unit_cube_mesh(3)
    exact = example61(config.params)

    def final_state(tau):
        cfg = replace(config, mesh_n=3, grid=grid_for_step(config.grid.T, tau))
        return run(cfg, Sources(j=exact.j, f=exact.f, g=exact.g), exact, mesh=mesh).state

    ref = final_state(tau_ref)
    assert sorted(row.tau for row in report.rows) == sorted(taus)
    for row in report.rows:
        want = mass_matrix_norms(mesh, final_state(row.tau), ref)
        for field in ERROR_FIELDS:
            assert row.errors[field] == pytest.approx(want[field], rel=1e-12, abs=0.0), field
        t = row.timings
        assert t["loop"] > 0.0
        assert abs(sum(t[k] for k in TIMING_FIELDS[:-1]) - t["total"]) <= 1e-9


def test_temporal_orders_are_first_order(config):
    report = temporal_convergence(4, DEFAULT_TAUS, config, DEFAULT_TAU_REF)
    assert len(report.rows) == len(DEFAULT_TAUS)
    for row in report.rows[1:]:
        for field in ("E_L2", "H_L2"):
            assert row.orders[field] >= MIN_ORDER, (row.tau, field, row.orders)
