"""Critical quantities, monomer-activity solves and equilibrium profiles.

The central object is the power series F(z) = sum_i i Q_i z^i.  Its radius
of convergence is the critical monomer density z_s; F(z_s) is the critical
density rho_s; and for a subcritical target density rho the monomer
activity z_bar solves F(z_bar) = rho.  Everything is evaluated through the
log-space detailed-balance prefix to dodge overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel, detailed_balance
from .errors import FreeEnergyDomainError, NumericalError, ParameterError, SupercriticalError

_N_SERIES_DEFAULT = 100_000
_N_CAP = 1 << 21


@dataclass(frozen=True)
class CriticalValues:
    """Root-test estimate of z_s and the partial-sum estimate of rho_s.

    ``diverges`` marks partial sums that keep growing at the scan end
    (rho_s = +inf); ``inconclusive`` marks sums that neither stabilized nor
    grew measurably.
    """

    z_s: float
    rho_s: float
    diverges: bool
    inconclusive: bool
    n_used: int


def critical_values(model: CoefficientModel, n: int = _N_SERIES_DEFAULT, tol: float = 1e-8) -> CriticalValues:
    """Estimate (z_s, rho_s) from the detailed-balance prefix of length n.

    z_s is the reciprocal of the tail-averaged ratio Q_{i+1}/Q_i.  The
    partial sums of i Q_i z_s^i are declared divergent when the second half
    of the range still grows them by more than a factor 1 + tol_div, and
    converged when it contributes less than tol relative.
    """
    if model.table_length is not None:
        n = min(n, model.table_length)
    db = detailed_balance(model, n)
    z_s = 1.0 / db.ratio_tail
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(under="ignore"):
        terms = np.exp(np.log(i) + db.log_q + i * math.log(z_s))
    s_half = float(np.sum(terms[: n // 2]))
    s_full = float(np.sum(terms))
    tol_div = max(tol, 1e-6)
    if s_half > 0 and s_full > s_half * (1.0 + tol_div):
        return CriticalValues(z_s=z_s, rho_s=math.inf, diverges=True, inconclusive=False, n_used=n)
    stabilized = s_full - s_half <= tol * s_full
    return CriticalValues(
        z_s=z_s, rho_s=s_full, diverges=False, inconclusive=not stabilized, n_used=n
    )


def density_at_activity(
    model: CoefficientModel,
    z: float,
    tol_abs: float,
    n_start: int = 256,
    n_cap: int = _N_CAP,
) -> tuple[float, bool]:
    """Evaluate F(z) = sum_i i Q_i z^i by adaptive truncation.

    The truncation doubles until the geometric tail-remainder bound drops
    below ``tol_abs``.  Returns ``(value, converged)``; a non-converged
    value means the series is (numerically) divergent at this z and should
    be treated as +inf by callers that bracket.
    """
    return _density_at_activity(_LogQPrefix(model), z, tol_abs, n_start, n_cap)


class _LogQPrefix:
    """log Q_1..Q_n of a model for any n, computed once at the largest n
    asked for so far: the recursion is a running sum, so a longer prefix
    starts with the bits of every shorter one."""

    def __init__(self, model: CoefficientModel):
        self.model = model
        self._log_q = np.empty(0)

    def __call__(self, n: int) -> np.ndarray:
        if len(self._log_q) < n:
            self._log_q = detailed_balance(self.model, n).log_q
        return self._log_q[:n]


def _density_at_activity(
    log_q_prefix: _LogQPrefix, z: float, tol_abs: float, n_start: int = 256, n_cap: int = _N_CAP
) -> tuple[float, bool]:
    model = log_q_prefix.model
    if z < 0:
        raise ParameterError("activity must be non-negative")
    if z == 0.0:
        return 0.0, True
    if model.table_length is not None:
        n_cap = min(n_cap, model.table_length)
    log_z = math.log(z)
    n = min(n_start, n_cap)
    while True:
        i = np.arange(1, n + 1, dtype=float)
        log_t = np.log(i) + log_q_prefix(n) + i * log_z
        with np.errstate(under="ignore"):
            terms = np.exp(log_t)
        total = float(np.sum(terms))
        t_last = terms[-1]
        if t_last == 0.0:
            return total, True
        r = math.exp(float(np.mean(np.diff(log_t[-6:]))))
        if r < 1.0 - 1e-12:
            remainder = t_last * r / (1.0 - r)
            if remainder <= tol_abs:
                return total + remainder, True
        if n >= n_cap:
            return total, False
        n = min(2 * n, n_cap)


def solve_monomer_activity(
    model: CoefficientModel,
    rho: float,
    tol: float = 1e-12,
    critical: CriticalValues | None = None,
) -> float:
    """Solve F(z_bar) = rho for the monomer activity of a subcritical density.

    Bisection on [0, z_s), exploiting strict monotonicity of F.  The upper
    bracket starts at 0.999 z_s and creeps toward z_s while F there is
    still below rho.  Raises SupercriticalError when rho >= rho_s.
    """
    if rho <= 0:
        raise ParameterError("density must be positive")
    if critical is None:
        critical = critical_values(model)
    if not critical.diverges and rho >= critical.rho_s:
        raise SupercriticalError(
            f"density {rho:.6g} is not below the critical density {critical.rho_s:.6g}"
        )
    tol_series = tol * rho / 10.0
    log_q_prefix = _LogQPrefix(model)

    def f(z: float) -> float:
        value, converged = _density_at_activity(log_q_prefix, z, tol_series)
        return value if converged else math.inf

    hi = 0.999 * critical.z_s
    expansions = 0
    while f(hi) < rho:
        hi = critical.z_s - 0.5 * (critical.z_s - hi)
        expansions += 1
        if expansions > 64:
            raise NumericalError(
                "could not bracket the monomer activity below the critical density"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        value = f(mid)
        if abs(value - rho) <= tol * rho:
            return mid
        if value < rho:
            lo = mid
        else:
            hi = mid
    z_bar = 0.5 * (lo + hi)
    residual = abs(f(z_bar) - rho)
    if not residual <= tol * rho:
        raise NumericalError(
            f"activity solve stalled: |F(z) - rho| = {residual:.3g} > {tol * rho:.3g}"
        )
    return z_bar


@dataclass(frozen=True, eq=False)
class EquilibriumData:
    """A subcritical equilibrium profile Q_i z_bar^i with its critical data.

    ``cut_index`` is the first (1-based) index zeroed by double underflow,
    None when every entry is representable.  ``tail_bound`` estimates the
    density carried beyond the truncation.
    """

    z_s: float
    rho_s: float
    z_bar: float
    profile: np.ndarray
    log_profile: np.ndarray
    rho: float
    cut_index: int | None
    tail_bound: float

    @property
    def n(self) -> int:
        return len(self.profile)


def equilibrium_profile(
    model: CoefficientModel,
    z_bar: float,
    n: int,
    critical: CriticalValues | None = None,
) -> EquilibriumData:
    """Build the length-n equilibrium profile for a given monomer activity."""
    if critical is None:
        critical = critical_values(model, max(_N_SERIES_DEFAULT, n))
    if z_bar < 0 or z_bar >= critical.z_s * (1 + 1e-9):
        raise ParameterError(f"activity {z_bar} outside [0, z_s = {critical.z_s:.6g})")
    if z_bar == 0.0:
        return EquilibriumData(
            z_s=critical.z_s,
            rho_s=critical.rho_s,
            z_bar=0.0,
            profile=np.zeros(n),
            log_profile=np.full(n, -np.inf),
            rho=0.0,
            cut_index=1,
            tail_bound=0.0,
        )
    db = detailed_balance(model, n)
    i = np.arange(1, n + 1, dtype=float)
    log_profile = db.log_q + i * math.log(z_bar)
    with np.errstate(under="ignore"):
        profile = np.exp(log_profile)
    zero = np.nonzero(profile == 0.0)[0]
    cut = int(zero[0]) + 1 if len(zero) else None
    rho = math.fsum(i * profile)
    if profile[-1] > 0.0:
        r = math.exp(
            float(log_profile[-1] - log_profile[-2]) + math.log(n + 1) - math.log(n)
        )
        tail = n * profile[-1] * r / (1.0 - r) if r < 1.0 else math.inf
    else:
        tail = 0.0
    return EquilibriumData(
        z_s=critical.z_s,
        rho_s=critical.rho_s,
        z_bar=z_bar,
        profile=profile,
        log_profile=log_profile,
        rho=rho,
        cut_index=cut,
        tail_bound=tail,
    )


def support_length(c: np.ndarray) -> int:
    """1 + the last index that is non-zero in any row of ``c``; 0 for all zeros.

    Entries past it are exactly zero in every row, so they add exactly
    nothing to a c-weighted sum; ``c`` is one state or one state per row.
    """
    nonzero = np.flatnonzero(np.any(c, axis=0) if np.ndim(c) == 2 else c)
    return int(nonzero[-1]) + 1 if len(nonzero) else 0


def relative_free_energy(c: np.ndarray, equilibrium: EquilibriumData) -> float | np.ndarray:
    """Free energy of states relative to an equilibrium profile.

    H = sum_i (c_i log(c_i / Q_i) - c_i + Q_i) with 0 log 0 = 0; non-negative
    by termwise convexity.  ``c`` is one state (returns a float) or a matrix
    with one state per row (returns one value per row), summed pairwise
    along the row.  Past the rows' common support each term is Q_i, so that
    tail is one constant.  The equilibrium carries log Q_i, so mass past the
    profile's underflow cut still gets a finite value; mass where log Q_i is
    -inf (a zero activity) raises with the 1-based index of the first such
    entry in the first row that has one.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1:] != equilibrium.profile.shape:
        raise ParameterError("state and equilibrium must share the truncation length")
    rows = np.atleast_2d(c)
    h = _free_energy_head(rows[:, : support_length(rows)], equilibrium)
    return float(h[0]) if c.ndim == 1 else h


def _free_energy_head(head: np.ndarray, equilibrium: EquilibriumData) -> np.ndarray:
    """``relative_free_energy`` of the rows of a matrix whose columns from
    head.shape[1] on are zero, given only its first head.shape[1] columns."""
    m = head.shape[1]
    profile = equilibrium.profile
    q, log_q = profile[:m], equilibrium.log_profile[:m]
    if np.any(head < 0):
        raise ParameterError("concentrations must be non-negative")
    pos = head > 0
    _, bad = np.nonzero(pos & (log_q == -np.inf))
    if len(bad):
        raise FreeEnergyDomainError(int(bad[0]) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pos, head * (np.log(head) - log_q) - head + q, q)
    return terms.sum(axis=1) + profile[m:].sum()
