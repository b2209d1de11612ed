"""Benchmark workloads and the golden error norms every solve is checked against.

Each workload is one fixed run of the built-in Example 6.1 problem with the
default physical parameters and T = 0.1. Its inputs are deterministic, so the
benchmark's seed is recorded but selects nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: A norm that differs from its golden value by more than this share fails.
#: Far below the 5e-3 gap between the two schemes at n = 8, far above the
#: solver tolerances.
NORM_RTOL = 1e-6

NORM_NAMES = ("E_L2", "H_L2", "u_L2", "u_H1", "p_L2")


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n: int
    tau: float
    T: float = 0.1

    @property
    def steps(self) -> int:
        return round(self.T / self.tau)


WORKLOADS = {
    w.name: w
    for w in (
        # The headline setup: the only workload where the n-dependent layers
        # (mesh, operator assembly, factorisation, error norms) weigh much.
        Workload("headline-n16", "splitting", 16, 0.0025),
        # Set-up is a few percent of the run; the per-step path is everything.
        Workload("many-steps-n8", "splitting", 8, 0.00025),
        # The other linalg path: one 4-block LU instead of CG + saddle LU.
        Workload("monolithic-n8", "monolithic", 8, 0.0025),
        # Smoke workload for the benchmark's own tests; not in BENCHMARK.json.
        Workload("tiny-n2", "splitting", 2, 0.025),
    )
}


def load_golden() -> dict:
    """Golden error norms per workload, recorded from the solver as committed."""
    return json.loads((HERE / "golden.json").read_text())["norms"]


def norm_mismatches(norms: dict, golden: dict) -> list[str]:
    """Names of the norms that are missing or off their golden value by more than NORM_RTOL."""
    bad = []
    for name in NORM_NAMES:
        value, ref = norms.get(name), golden[name]
        if value is None or not abs(value - ref) <= NORM_RTOL * abs(ref):
            bad.append(name)
    return bad
