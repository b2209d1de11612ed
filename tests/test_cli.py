import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import epe.cli
from epe.cli import EXIT_NUMERICAL, EXIT_OK, main
from epe.fem.assembly import curl_dof_operator

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
    for ext in ("csv", "md", "svg"):
        assert (tmp_path / f"{stem}.{ext}").is_file()
    assert (tmp_path / f"{stem}.md").read_text() in out
    assert out.rstrip().splitlines()[-1].startswith(f"wrote {tmp_path / stem}.csv")


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


def test_self_check_passes(capsys):
    code, out = run_cli(["self-check"], capsys)
    assert code == EXIT_OK
    checks = out.splitlines()[:-1]
    assert checks and all(line.startswith("[PASS] ") for line in checks)
    assert out.splitlines()[-1] == "self-check: OK"


def test_self_check_fails_on_a_corrupted_discrete_curl(capsys, monkeypatch):
    def corrupted(mesh):
        """W with the column of edge 0 scaled by 2."""
        scale = np.ones(mesh.num_edges)
        scale[0] = 2.0
        return curl_dof_operator(mesh) @ sp.diags(scale)

    monkeypatch.setattr(epe.cli, "curl_dof_operator", corrupted)
    code, out = run_cli(["self-check"], capsys)
    assert code == EXIT_NUMERICAL
    failed = [line for line in out.splitlines() if line.startswith("[FAIL] ")]
    assert len(failed) == 2 and all("discrete curl of a P1 gradient" in line for line in failed)
