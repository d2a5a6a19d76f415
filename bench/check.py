"""The benchmark's own check of an experiment's outputs.

It does not trust the pipeline's verdict.  From the final snapshot it
recomputes the density drift with the public ``density`` and the tail
density G_j = sum_{i >= j} c_i with its own suffix sum, and checks
G_j <= r_j against the emitted dominating sequence r.  At rho = 1 it also
compares t0, lambda, n_switch and the certified bounds with ``golden.json``.

The golden tolerance is GOLDEN_RTOL_FACTOR times the run's ``rel_tol``, not
bit equality: on the flagship configs the certified bounds move by under
0.5 rel_tol when rel_tol goes from 1e-8 to 1e-10, so any method as accurate
as the current one passes with a wide margin.
"""
from __future__ import annotations

import numpy as np

GOLDEN_RTOL_FACTOR = 100.0
DRIFT_LIMIT = 1e-10  # the integrate stage's own gate on rho drift
DOMINATION_TOL_FACTOR = 1e-10  # times rho, the library's default tol_dom


def golden_values(report) -> dict:
    """The values the golden check compares, as this run produced them."""
    values = {
        "t0": report.t0,
        "lambda": report.witness.get("lambda"),
        "n_switch": report.witness.get("n_switch"),
    }
    for stage in report.stages:
        if stage.name.startswith("certified_"):
            values[stage.name] = stage.info["certified"]
    return values


def check_report(report, density, golden: dict | None) -> list[str]:
    """Problems found in one experiment's outputs; empty when all hold."""
    problems = []
    if not report.verdict:
        failed = [s.name for s in report.stages if s.gating and not s.ok]
        problems.append(f"verdict is False (failed stages: {failed})")
    snaps = report.trajectory.snapshots
    rho0 = density(snaps[0].c)
    drift = abs(density(snaps[-1].c) - rho0) / rho0
    if not drift <= DRIFT_LIMIT:
        problems.append(f"density drift {drift:.3g} at the last snapshot exceeds {DRIFT_LIMIT:g}")
    if report.supersolution is None:
        problems.append("no dominating sequence was built")
    else:
        c = snaps[-1].c
        g = np.cumsum(c[::-1])[::-1]
        gap = g - report.supersolution.r[: len(c)]
        if np.any(gap > DOMINATION_TOL_FACTOR * rho0):
            j = int(np.argmax(gap)) + 1
            problems.append(f"final tail density exceeds r at j={j} by {gap[j - 1]:.3g}")
    if golden is not None:
        problems += _compare_golden(golden_values(report), golden, report.config.rel_tol)
    return problems


def _compare_golden(observed: dict, golden: dict, rel_tol: float) -> list[str]:
    if not golden:
        return ["no golden values for this config"]
    rtol = GOLDEN_RTOL_FACTOR * rel_tol
    problems = []
    for key, want in golden.items():
        got = observed.get(key)
        if key == "n_switch":
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= rtol * max(1.0, abs(want))
        if not ok:
            problems.append(f"{key} = {got!r}, golden {want!r} (rtol {rtol:g})")
    return problems
