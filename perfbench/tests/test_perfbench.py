"""Tests of the benchmark: it drives what ``epe run`` runs, its trace adds up, it runs end to end.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import solve  # noqa: E402
from run import END_TO_END_UNITS, LAYER_UNITS  # noqa: E402
from tracing import LOOP_CHILDREN, Tracer  # noqa: E402
from workloads import NORM_NAMES, NORM_RTOL, WORKLOADS, Workload, load_golden, norm_mismatches  # noqa: E402

epe = solve.import_epe()

#: The wrapped children (loads and linear solves) cover at least this share of
#: the loop at n = 4; the rest is matvecs, right-hand sides and the H update.
CHILDREN_MIN_SHARE = 0.75


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_norms_equal_those_printed_by_epe_run(capsys):
    from epe.cli import main

    assert main(["run", "--n", "4"]) == 0
    printed = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if line.startswith("err_")
    )
    out = solve.solve(Workload("n4", "splitting", 4, 0.0025))
    assert {f"err_{k}": f"{v:.6e}" for k, v in out["norms"].items()} == printed


@pytest.mark.parametrize("scheme", ["splitting", "monolithic"])
def test_traced_loop_children_add_up_to_loop(scheme):
    steps = 10
    with Tracer() as tracer:
        out = solve.solve(Workload("n4", scheme, 4, 0.1 / steps), tracer)
    layers = out["layers"]
    children = sum(layers[key] for key in LOOP_CHILDREN)

    # The observer stamps and run()'s own loop timer measure the same loop.
    assert out["loop_s"] == pytest.approx(out["program_loop_s"], rel=0.05)
    assert children + layers["schemes.step_self_s"] == pytest.approx(out["loop_s"])
    assert CHILDREN_MIN_SHARE * out["loop_s"] <= children <= out["loop_s"]
    assert layers["mms.source_s"] <= layers["fem.assembly.load_s"]

    assert layers["fem.assembly.load_calls"] == 3 * steps
    solves = {"splitting": ("cg", "saddle"), "monolithic": ("lu",)}[scheme]
    for kind in ("cg", "saddle", "lu"):
        assert layers[f"linalg.{kind}_solves"] == (steps if kind in solves else 0)
    assert layers["linalg.lu_count"] == 1 and layers["linalg.lu_fill"] > 0
    assert layers["linalg.failures"] == 0
    assert out["absent"] == []


def test_removed_name_is_reported_absent(monkeypatch):
    # Splitting runs never call LuSolver.solve, so the solve still succeeds.
    monkeypatch.delattr(epe.linalg.LuSolver, "solve")
    with Tracer() as tracer:
        out = solve.solve(WORKLOADS["tiny-n2"], tracer)
    assert out["absent"] == ["epe.linalg.LuSolver.solve"]
    assert out["layers"]["linalg.lu_solve_s"] == 0.0
    assert not norm_mismatches(out["norms"], load_golden()["tiny-n2"])


def test_tracer_restores_what_it_wrapped():
    originals = (epe.schemes.make_scheme, epe.linalg.SpdSolver.solve, epe.schemes.Discretization.load)
    with Tracer():
        assert epe.schemes.make_scheme is not originals[0]
    assert (epe.schemes.make_scheme, epe.linalg.SpdSolver.solve, epe.schemes.Discretization.load) == originals


def test_untraced_solve_imports_no_wrapper():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import solve; "
        "solve.main(['--workload', 'tiny-n2']); print('tracing' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "False"


def test_accuracy_check_tolerance():
    golden = load_golden()["tiny-n2"]
    assert norm_mismatches(dict(golden), golden) == []
    assert norm_mismatches({k: v * (1 + 0.5 * NORM_RTOL) for k, v in golden.items()}, golden) == []
    off = dict(golden, p_L2=golden["p_L2"] * (1 + 2 * NORM_RTOL))
    assert norm_mismatches(off, golden) == ["p_L2"]
    assert norm_mismatches({}, golden) == list(NORM_NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_end_to_end(trace):
    proc = run_bench("--workload", "tiny-n2", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    context = json.loads(proc.stdout.splitlines()[-2])["context"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER_UNITS if trace == "1" else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert context["seed"] == 3 and context["sizes"]["dofs.E_free"] == 26


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert set(load_golden()) == set(WORKLOADS)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "tiny-n2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
