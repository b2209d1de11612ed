import pytest

from epe.studies import TIMING_FIELDS, benchmark, parse_report_csv, report_csv


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
