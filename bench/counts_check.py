"""The benchmark's own tests: its exact counts repeat between runs of one seed.

Run with ``python3 -m pytest bench/counts_check.py`` (about 30 s).  Each
case runs one traced repetition twice, each time in a fresh interpreter,
and requires every count the benchmark reports to be identical.  The
repetitions used are 0 (rho = 1, also checked against ``golden.json``) and
1 (rho drawn from seed 1).
"""
from __future__ import annotations

import json
import shutil

import pytest

import run
from workloads import WORKLOADS

COUNTS = (
    "solver.n_fev",
    "solver.n_steps",
    "solver.n_rejected",
    "solver.snapshot_bytes",
    "equilibrium.free_energy_calls",
    "tails.tail_density_calls",
    "maximum_principle.snapshots_checked",
    "coefficients.rate_calls",
    "experiments.bytes_written",
    "trace.spans",
)
SEED = 1


def traced_counts(workload: str, rep: int, out) -> dict[str, dict]:
    configs = run.write_configs(out, workload, SEED, rep)
    golden = json.loads(run.GOLDEN.read_text())[workload] if rep == 0 else None
    result = run.spawn({"configs": configs, "out": str(out), "mode": "traced", "golden": golden})
    assert result is not None, "worker failed"
    counts = {}
    for record in result["experiments"]:
        assert record["problems"] == [], record["problems"]
        counts[record["label"]] = {key: record["layers"][key] for key in COUNTS}
    return counts


@pytest.mark.parametrize("rep", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload, rep):
    out = run.ROOT / ".bench_out" / f"counts_check-{workload}-rep{rep}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    first = traced_counts(workload, rep, out)
    second = traced_counts(workload, rep, out)
    assert first == second
    assert all(c["solver.n_fev"] > 0 for c in first.values())
