"""Sign preservation for Metzler systems and tail-domination checks.

A matrix with non-negative off-diagonal entries generates a flow that
preserves the non-positive orthant; for the tail comparison this means a
dominating sequence at one time stays dominating while the monomer
concentration remains capped.  Here the finite-dimensional principle is
checked numerically on instances, never proved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rk import solve_rk54
from .coefficients import CoefficientModel
from .errors import ParameterError
from .solver import Trajectory
from .tails import tail_density

DEFAULT_SIGN_TOL = 1e-9
SIGN_CHECK_OUTPUTS = 50  # output times at which the sign of u is checked
DEFAULT_DOMINATION_TOL_FACTOR = 1e-10  # times the density


@dataclass(frozen=True, eq=False)
class MetzlerSystem:
    """A linear system u' = A u with non-negative off-diagonal entries.

    Stored either dense or as tridiagonal bands (sub, diag, sup).  ``c_row``
    is the maximum absolute row sum, the growth constant of the positive
    part under the flow.
    """

    n: int
    dense: np.ndarray | None
    sub: np.ndarray | None
    diag: np.ndarray | None
    sup: np.ndarray | None
    c_row: float

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "MetzlerSystem":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError("matrix must be square")
        off = a - np.diag(np.diag(a))
        if np.any(off < 0):
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            raise ParameterError(f"negative off-diagonal entry at ({i + 1}, {j + 1})")
        c = float(np.max(np.sum(np.abs(a), axis=1)))
        return cls(n=a.shape[0], dense=a, sub=None, diag=None, sup=None, c_row=c)

    @classmethod
    def from_tridiagonal(cls, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> "MetzlerSystem":
        sub = np.asarray(sub, dtype=float)
        diag = np.asarray(diag, dtype=float)
        sup = np.asarray(sup, dtype=float)
        n = len(diag)
        if len(sub) != n - 1 or len(sup) != n - 1:
            raise ParameterError("band lengths must be n-1, n, n-1")
        if np.any(sub < 0) or np.any(sup < 0):
            raise ParameterError("negative off-diagonal entry in bands")
        rowsum = np.abs(diag).copy()
        rowsum[1:] += np.abs(sub)
        rowsum[:-1] += np.abs(sup)
        return cls(n=n, dense=None, sub=sub, diag=diag, sup=sup, c_row=float(np.max(rowsum)))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense @ u
        out = self.diag * u
        out[1:] += self.sub * u[:-1]
        out[:-1] += self.sup * u[1:]
        return out

    def to_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense.copy()
        return np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)


def build_tail_comparison_matrix(
    model: CoefficientModel, omega: float, j_lo: int, j_hi: int
) -> MetzlerSystem:
    """Tridiagonal comparison operator for tail entries j_lo..j_hi.

    Row j carries sub-diagonal a_{j-1} omega, diagonal -(a_{j-1} omega + b_j)
    and super-diagonal b_j; interior row sums vanish, reflecting that the
    tail flow only moves mass between neighbours.
    """
    if omega <= 0:
        raise ParameterError("omega must be positive")
    if not (2 <= j_lo <= j_hi):
        raise ParameterError("need 2 <= j_lo <= j_hi")
    a_prev, b_j = model.rate_pairs(j_hi)
    a_prev = a_prev[j_lo - 2 :] * omega
    b_j = b_j[j_lo - 2 :]
    diag = -(a_prev + b_j)
    sub = a_prev[1:]
    sup = b_j[:-1]
    return MetzlerSystem.from_tridiagonal(sub, diag, sup)


@dataclass
class SignPreservationResult:
    ok: bool
    tol_used: float
    times: np.ndarray
    max_component: np.ndarray  # max_j u_j(t) per output time
    y_end: np.ndarray


def verify_sign_preservation(
    system: MetzlerSystem,
    u0: np.ndarray,
    t_end: float,
    slack: Callable[[float], np.ndarray] | None = None,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
) -> SignPreservationResult:
    """Integrate u' = A u + slack(t) from u0 <= 0 and check u stays <= tol.

    ``slack`` is an optional non-positive forcing t -> s(t) exercising the
    inequality u' <= A u.  The tolerance defaults to 1e-9 scaled by the initial norm;
    integrator drift makes exact non-positivity unattainable.
    """
    u0 = np.asarray(u0, dtype=float)
    if len(u0) != system.n:
        raise ParameterError("initial vector length mismatch")
    if np.any(u0 > 0):
        raise ParameterError("initial data must be componentwise <= 0")

    def f(t: float, u: np.ndarray) -> np.ndarray:
        du = system.matvec(u)
        return du if slack is None else du + slack(t)

    t_eval = np.linspace(0.0, t_end, SIGN_CHECK_OUTPUTS)
    sol = solve_rk54(f, 0.0, u0, t_end, rel_tol=rel_tol, abs_tol=abs_tol, t_eval=t_eval)
    tol = DEFAULT_SIGN_TOL * max(1.0, float(np.max(np.abs(u0))))
    max_comp = np.max(sol.y_eval, axis=1)
    return SignPreservationResult(
        ok=bool(np.all(max_comp <= tol)),
        tol_used=tol,
        times=t_eval,
        max_component=max_comp,
        y_end=sol.y,
    )


@dataclass
class DominationReport:
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
    tol_dom: float | None = None,
) -> DominationReport:
    """Check G_j(t) <= r_j for every snapshot with t >= t_start.

    ``r`` is the dominating sequence, at least as long as the truncation
    (a supersolution's ``r``).  The tolerance absorbs integrator
    round-off and defaults to 1e-10 times the run's density; at finite
    truncation no epsilon-shift is needed.  The window is checked in one
    pass over the snapshot matrix, trimmed to the run's support.
    """
    r = np.asarray(r, dtype=float)
    times = trajectory.times
    start = int(np.searchsorted(times, t_start - 1e-12))
    if start == len(times):
        raise ParameterError("no snapshots at or after t_start")
    n = trajectory.n
    if len(r) < n:
        raise ParameterError("dominating sequence shorter than the truncation")
    rho = float(trajectory.rho[0])
    eps = tol_dom if tol_dom is not None else DEFAULT_DOMINATION_TOL_FACTOR * max(rho, 1e-300)
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
