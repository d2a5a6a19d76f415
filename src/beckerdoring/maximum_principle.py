"""Tail-domination checks of a run against a dominating sequence.

With the monomer concentration capped, the tail evolution is a Metzler
system (non-negative off-diagonal entries), which preserves the
non-positive orthant: a dominating sequence at one time stays dominating
while the cap holds.  Here that is checked on the computed snapshots,
never proved.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .solver import Trajectory
from .tails import tail_density

DOMINATION_TOL_FACTOR = 1e-10  # times the density


class DominationReport(NamedTuple):
    """Outcome of comparing tail densities against a dominating sequence.

    ``max_gap`` <= ``tol`` means domination holds over the window;
    ``first_violation`` is (t, j, gap) for the earliest snapshot and
    smallest index exceeding it.
    """

    holds: bool
    max_gap: float
    tol: float
    first_violation: tuple[float, int, float] | None
    n_snapshots: int


def check_domination(
    trajectory: Trajectory,
    r: np.ndarray,
    t_start: float,
) -> DominationReport:
    """Check G_j(t) <= r_j for every snapshot with t >= t_start.

    ``r`` is the dominating sequence, at least as long as the truncation
    (a supersolution's ``r``).  The slack, reported as ``tol``, absorbs
    integrator round-off: a fixed ``DOMINATION_TOL_FACTOR`` = 1e-10 times
    the run's density; at finite truncation no epsilon-shift is needed.
    The window is checked in one pass over the snapshot matrix, trimmed to
    the run's support.
    """
    r = np.asarray(r, dtype=float)
    times = trajectory.times
    start = int(np.searchsorted(times, t_start - 1e-12))
    if start == len(times):
        raise ParameterError("no snapshots at or after t_start")
    n = trajectory.n
    if len(r) < n:
        raise ParameterError("dominating sequence shorter than the truncation")
    eps = DOMINATION_TOL_FACTOR * max(float(trajectory.rho[0]), 1e-300)
    window = trajectory.states[start:]
    # the stored head ends at the run's support: the columns past it are
    # zero, so they change neither the suffix sums nor the largest gaps
    m = trajectory.support
    gaps = tail_density(window) - r[:m]
    tail_gaps = 0.0 - r[m:n]  # G_j = 0 past the support, in every snapshot
    worst = np.maximum(np.max(gaps, axis=1, initial=-math.inf), np.max(tail_gaps, initial=-math.inf))
    max_gap = float(np.max(worst))
    first: tuple[float, int, float] | None = None
    violated = np.flatnonzero(worst > eps)
    if len(violated):
        row = np.concatenate([gaps[violated[0]], tail_gaps])
        j = int(np.argmax(row > eps)) + 1
        first = (float(times[start + violated[0]]), j, float(row[j - 1]))
    return DominationReport(
        holds=max_gap <= eps,
        max_gap=max_gap,
        tol=eps,
        first_violation=first,
        n_snapshots=len(window),
    )
