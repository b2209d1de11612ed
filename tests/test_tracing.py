"""The benchmark's per-layer tracer still finds every ``epe`` name it wraps or reads.

``perfbench/tracing.py`` lists a wrapped name that no longer exists in
``Tracer.absent`` and reads its metrics as 0 instead of failing; this test
turns such a silent zero into a failure. The tracer is loaded from its file
and not changed.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import epe.linalg
import epe.schemes
from epe.mms import example61
from epe.schemes import Sources, run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
def test_tracer_wraps_every_name_and_reads_the_factors(tracing, scheme, config, mesh2):
    originals = (epe.schemes.make_scheme, epe.linalg.LuSolver.__init__)
    exact = example61(config.params)
    cfg = replace(config, mesh_n=2, scheme=scheme)
    with tracing.Tracer() as tracer:
        result = run(cfg, Sources(j=exact.j, f=exact.f, g=exact.g), exact,
                     observers=[tracer.observer], mesh=mesh2)
    assert tracer.absent == []
    assert (epe.schemes.make_scheme, epe.linalg.LuSolver.__init__) == originals
    layers = tracer.layer_metrics(result.timings.loop)
    assert layers["linalg.lu_count"] == (1 if scheme == "splitting" else 2)
    assert layers["linalg.lu_fill"] > 0
    # each direct solve is counted under one name only: every step solves the saddle, and a
    # monolithic step also the EM matrix
    saddle, lu = layers["linalg.saddle_solves"], layers["linalg.lu_solves"]
    assert (saddle, lu) == ((cfg.grid.N, 0) if scheme == "splitting" else (cfg.grid.N, cfg.grid.N))
