import errno
import os
import pathlib
import warnings

import pytest

import epe.studies
from epe.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

TINY = ["--T", "0.01", "--tau", "0.005"]


def run_cli(argv, capsys):
    """Run ``epe`` in-process; fail on any unclosed file it leaves behind."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    return code, capsys.readouterr().out


def test_bench_prints_the_speedup_table_and_writes_the_report(tmp_path, capsys):
    code, out = run_cli(["bench", "--n", "2", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert "| h | splitting total (s) | monolithic total (s) | speedup |" in out
    assert "| 1/2 |" in out and "speedup at n=2:" in out
    assert (tmp_path / "bench.csv").is_file()
    assert (tmp_path / "bench.md").read_text() in out
    assert out.rstrip().endswith(f"wrote {tmp_path / 'bench.csv'}, {tmp_path / 'bench.md'}")


@pytest.mark.parametrize(
    "argv,stem",
    [
        (["convergence", "--n", "2,3"] + TINY, "convergence"),
        (["convergence-time", "--n", "3", "--taus", "0.005,0.01", "--tau-ref", "0.000625"]
         + TINY, "convergence_time"),
    ],
)
def test_studies_print_the_table_they_write(argv, stem, tmp_path, capsys):
    code, out = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert {p.name for p in tmp_path.iterdir()} == {f"{stem}.csv", f"{stem}.md"}
    assert (tmp_path / f"{stem}.md").read_text() in out
    assert out.rstrip().splitlines()[-1].startswith(f"wrote {tmp_path / stem}.csv")


def test_mesh_info_reports_the_n2_mesh(capsys):
    code, out = run_cli(["mesh-info", "--n", "2", "--csv"], capsys)
    assert code == EXIT_OK
    rows = dict(line.rsplit("  ", 1) for line in out.splitlines()[:10])
    assert {k.strip(): v for k, v in rows.items()} == {
        "subdivisions n": "2",
        "vertices": "27",
        "edges": "98",
        "cells": "48",
        "max cell diameter": "0.866025403784",
        "boundary vertices": "26",
        "boundary edges": "72",
        "min cell volume": "0.0208333333333",
        "max cell volume": "0.0208333333333",
        "total volume": "1",
    }
    assert out.splitlines()[10:] == ["n,V,E,C,diameter", "2,27,98,48,8.660254037844386e-01"]


def test_an_unwritable_report_directory_exits_with_the_io_code(tmp_path, capsys):
    """A report directory under a regular file cannot be made: the study runs, then nothing is
    written and the OS error, which names the path, is reported with exit code 3."""
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out_dir = blocker / "sub"
    code = main(["convergence", "--n", "2"] + TINY + ["--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("epe: i/o error:") and str(out_dir) in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "kept\n"


def test_run_out_without_vtk_every_is_refused(tmp_path, capsys):
    """``epe run`` writes only VTK snapshots, so ``--out`` alone would write nothing: it exits 1
    with a message, before any solve, and makes no directory."""
    out_dir = tmp_path / "run"
    code = main(["run", "--n", "2"] + TINY + ["--out", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert "epe: validation error: epe run writes only VTK snapshots: --out needs --vtk-every" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists() and not list(tmp_path.iterdir())


def test_a_failed_report_write_names_the_report_directory(tmp_path, capsys, monkeypatch):
    """A write that fails (here a full disk) raises an OSError with no file name; the message
    still says which report directory could not be written."""

    def full_disk(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pathlib.Path, "write_text", full_disk)
    code = main(["convergence", "--n", "2"] + TINY + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("epe: i/o error:") and os.strerror(errno.ENOSPC) in err
    assert str(tmp_path) in err


@pytest.mark.parametrize("scheme,n", [("monolithic", 4), ("monolithic", 8), ("splitting", 8)])
def test_the_low_storage_low_permeability_limit_runs(scheme, n, capsys):
    """c0 = kappa = 1e-8 with L = 1e-5 is admissible; a direct solve there misses saddle_tol
    once and is refined with the same factor, so the run exits 0 instead of 2."""
    argv = ["run", "--scheme", scheme, "--c0", "1e-8", "--kappa", "1e-8", "--L", "1e-5", "--n", str(n)]
    code, out = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert f"scheme={scheme} n={n}" in out


def test_convergence_time_reports_nan_for_a_zero_error(tmp_path, capsys):
    """At n = 2 the coupling block is zero, so u does not depend on tau and its errors are 0."""
    argv = ["convergence-time", "--n", "2", "--taus", "0.005,0.01", "--tau-ref", "0.000625"]
    code, out = run_cli(argv + TINY + ["--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    last = (tmp_path / "convergence_time.csv").read_text().splitlines()[-1].split(",")
    assert float(last[6]) == 0.0 and last[11] == "nan"  # err_u_L2 and its order
    assert "| nan |" in out


def test_convergence_time_runs_the_scheme_it_is_given(tmp_path, capsys):
    argv = ["convergence-time", "--n", "2", "--taus", "0.005,0.01", "--tau-ref", "0.000625"]
    code, _ = run_cli(argv + TINY + ["--scheme", "monolithic", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    rows = (tmp_path / "convergence_time.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.split(",")[0] == "monolithic" for row in rows)


@pytest.mark.parametrize(
    "steps,message",
    [
        (["--taus", "0.005,0.01", "--tau-ref", "0"], "reference step tau_ref must be positive, got 0.0"),
        (["--taus", "0.005,0", "--tau-ref", "0.000625"], "every step tau must be positive"),
        (["--taus", "0.005,-0.01", "--tau-ref", "0.000625"], "every step tau must be positive"),
        (["--n", "0", "--taus", "0.005,0.01", "--tau-ref", "0.000625"], "mesh_n must be >= 1, got 0"),
    ],
)
def test_convergence_time_rejects_a_non_positive_step_by_name(steps, message, tmp_path, capsys):
    """An explicit 0 is refused, not replaced by the default nor caught by accident."""
    code = main(["convergence-time", "--n", "2", *steps, *TINY, "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "convergence_time.csv").exists()


@pytest.mark.parametrize(
    "taus,tau_ref,tau",
    [("0.03,0.01", "0.000625", "0.03"), ("0.02,0.01", "0.0007", "0.0007")],
)
def test_convergence_time_refuses_a_step_that_does_not_divide_T(taus, tau_ref, tau, tmp_path, capsys):
    """A study step is refused as ``epe run --tau`` refuses it, not rounded to T / round(T / tau)."""
    code = main(["convergence-time", "--n", "2", "--taus", taus, "--tau-ref", tau_ref,
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert f"tau={tau} does not divide T=0.1 into whole steps" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert main(["run", "--n", "2", "--tau", tau]) == EXIT_VALIDATION
    assert f"tau={tau} does not divide T=0.1 into whole steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["convergence", "--n", ","], "--n"),
        (["bench", "--n", ","], "--n"),
        (["convergence-time", "--n", "2", "--taus", ","], "--taus"),
    ],
)
def test_an_empty_list_is_refused_by_flag_name(argv, flag, tmp_path, capsys):
    """An empty comma list is refused, not replaced by the default sweep."""
    code = main(argv + TINY + ["--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert f"argument {flag}: expected at least one value, got ','" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["convergence", "--n", "2,2"] + TINY, "repeated mesh size [2]"),
        (["convergence-time", "--n", "2", "--taus", "0.05,0.05", "--tau-ref", "0.003125"],
         "repeated step tau [0.05]"),
        (["bench", "--n", "2,3,2"] + TINY, "repeated mesh size [2]"),
    ],
)
def test_a_repeated_study_value_is_refused_before_any_solve(argv, message, tmp_path, capsys, monkeypatch):
    """Two rows at one h or tau have no convergence order (and two bench rows of one n disagree
    between the CSV and the table), so a repeated value exits 1 before the first run."""
    runs = []
    monkeypatch.setattr(epe.studies, "run", lambda *args, **kwargs: runs.append(1))
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert f"epe: validation error: {message}" in capsys.readouterr().err
    assert runs == [] and not list(tmp_path.iterdir())
