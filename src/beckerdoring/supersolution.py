"""Constructive dominating sequences for the capped-monomer comparison flow.

Given a cap omega < z_s on the monomer concentration and a non-increasing
tail profile g that vanishes within the truncation, the construction returns
a sequence r with r_1 >= rho, the one-sided balance inequality

    a_{j-1} omega (r_{j-1} - r_j) + b_j (r_{j+1} - r_j) <= 0

at every interior index, termwise domination r_j >= g_j, and weighted sums
controlled by those of g.  The decay rate lambda lives strictly between the
weight-growth bound delta and z_s/omega; past the switch index the
fragmentation rate wins against lambda * omega * a_{j-1}, which is what
makes the geometric envelope a valid continuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel, detailed_balance
from .errors import NoSwitchIndexError, NumericalError, ParameterError, PhiDecayError

_SCAN_DEFAULT = 100_000
TAIL_DECAY_TOL = 1e-6  # g_N must be below this share of rho: g is taken as 0 past N


def _z_s_estimate(model: CoefficientModel, n_max: int) -> float:
    if model.z_s_param is not None:
        return model.z_s_param
    return 1.0 / detailed_balance(model, min(n_max, _SCAN_DEFAULT)).ratio_tail


def choose_lambda(
    model: CoefficientModel,
    omega: float,
    delta: float = 1.0,
    n_max: int = _SCAN_DEFAULT,
    z_s_est: float | None = None,
) -> tuple[float, int]:
    """Pick the decay rate lambda and the switch index for a given cap.

    lambda is the geometric mean of delta and the admissible ceiling; the
    ceiling is additionally capped at 1 + 1/omega when possible, which keeps
    r_1 >= rho automatic (for omega(lambda-1) > 1 the prefix patch alone
    cannot guarantee it).  The switch index is the smallest index past which
    b_j >= lambda omega a_{j-1} holds throughout the scanned range.
    """
    if model.table_length is not None:
        n_max = min(n_max, model.table_length)
    if z_s_est is None:
        z_s_est = _z_s_estimate(model, n_max)
    if omega <= 0 or omega >= z_s_est:
        raise ParameterError(f"omega must lie in (0, z_s = {z_s_est:.6g}), got {omega}")
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    ceiling = z_s_est / omega
    if delta >= ceiling:
        raise ParameterError(f"delta must be below z_s/omega = {ceiling:.6g}")
    capped = min(ceiling, 1.0 + 1.0 / omega)
    if capped > delta * (1 + 1e-9):
        ceiling = capped
    lam = math.sqrt(delta * ceiling)

    a_prev, b_j = model.rate_pairs(n_max)
    ok = b_j >= lam * omega * a_prev
    if not ok[-1]:
        raise NoSwitchIndexError(
            f"b_j >= lambda omega a_(j-1) still fails at j = {n_max}; "
            "omega is too close to z_s for this truncation"
        )
    bad = np.nonzero(~ok)[0]
    n_switch = int(bad[-1]) + 3 if len(bad) else 1  # one past the last failing j = bad + 2
    return lam, n_switch


@dataclass(frozen=True)
class SupersolutionParams:
    """The tuple (omega, rho, delta, lambda, switch index) fixing a build."""

    omega: float
    rho: float
    delta: float
    lam: float
    n_switch: int

    def __post_init__(self):
        if not (1 <= self.delta < self.lam):
            raise ParameterError("need 1 <= delta < lambda")
        if self.omega <= 0 or self.rho <= 0:
            raise ParameterError("omega and rho must be positive")
        if self.n_switch < 1:
            raise ParameterError("switch index must be >= 1")


def make_params(
    model: CoefficientModel,
    omega: float,
    rho: float,
    delta: float = 1.0,
    n_max: int = _SCAN_DEFAULT,
    z_s_est: float | None = None,
) -> SupersolutionParams:
    lam, n_switch = choose_lambda(model, omega, delta, n_max, z_s_est)
    return SupersolutionParams(omega=omega, rho=rho, delta=delta, lam=lam, n_switch=n_switch)


@dataclass(frozen=True, eq=False)
class Supersolution:
    """A dominating sequence with its construction witness.

    ``s`` holds the increments r_j - r_{j+1} on [n_switch, N] (zeros
    before); ``tail_value`` is the geometric continuation sum added past
    the truncation, which preserves the balance inequality at j = N.
    """

    r: np.ndarray
    s: np.ndarray
    lam: float
    n_switch: int
    omega: float
    rho: float
    tail_value: float
    uniform_bound: float

    @property
    def n(self) -> int:
        return len(self.r)


def build_supersolution(model: CoefficientModel, params: SupersolutionParams, g: np.ndarray) -> Supersolution:
    """Construct a dominating sequence above the tail profile g.

    g must be non-negative, non-increasing, start at or below rho and have
    decayed below TAIL_DECAY_TOL * rho by the truncation end (it is treated as
    zero beyond).  Increments follow s_{j+1} = max(s_j / lambda, h_{j+1})
    with h the first differences of g; before the switch index the sequence
    is the constant max(rho, r_{switch}).
    """
    g = np.asarray(g, dtype=float)
    n = len(g)
    rho, lam, omega, ns = params.rho, params.lam, params.omega, params.n_switch
    if n < 3:
        raise ParameterError("profile too short")
    if np.any(g < 0):
        raise ParameterError("profile must be non-negative")
    if np.any(g[1:] > g[:-1] * (1 + 1e-12) + 1e-300):
        raise ParameterError("profile must be non-increasing")
    if g[0] > rho * (1 + 1e-12):
        raise ParameterError(f"g_1 = {g[0]:.6g} exceeds the density {rho:.6g}")
    if g[-1] > TAIL_DECAY_TOL * rho:
        raise ParameterError(
            f"g_N = {g[-1]:.3g} has not decayed below {TAIL_DECAY_TOL:g} * rho; "
            "enlarge the truncation (the construction needs g -> 0)"
        )
    if ns > n - 2:
        raise NoSwitchIndexError(
            f"switch index {ns} leaves no room in a truncation of length {n}"
        )

    h = np.empty(n)
    h[:-1] = g[:-1] - g[1:]
    h[-1] = g[-1]

    s = np.zeros(n)
    s_start = rho / (lam * omega)
    if omega * (lam - 1.0) > 1.0:
        # keep r at the switch index at or above rho; the constant prefix
        # patch cannot repair a deficit here once omega exceeds 1
        s_start = max(s_start, rho * (lam - 1.0) / lam)
    s[ns - 1] = s_start + h[ns - 1]
    inv_lam = 1.0 / lam
    for j in range(ns, n):
        s[j] = max(s[j - 1] * inv_lam, h[j])

    tail_value = float(s[-1]) / (lam - 1.0)
    r = np.zeros(n)
    r[ns - 1 :] = np.cumsum(s[ns - 1 :][::-1])[::-1] + tail_value
    if ns > 1:
        r[: ns - 1] = max(rho, r[ns - 1])
    # guard termwise domination against summation round-off
    r = np.maximum(r, g)
    if r[0] < rho * (1 - 1e-12):
        raise NumericalError(
            f"constructed r_1 = {r[0]:.6g} fell below the density {rho:.6g}"
        )
    return Supersolution(
        r=r,
        s=s,
        lam=lam,
        n_switch=ns,
        omega=omega,
        rho=rho,
        tail_value=tail_value,
        uniform_bound=rho * (lam * omega + 1.0) / (omega * (lam - 1.0)),
    )


@dataclass(frozen=True)
class SupersolutionCheck:
    """Verdict of the balance-inequality check on a candidate sequence."""

    ok: bool
    r1_ok: bool
    worst_margin: float  # max over j of lhs_j / scale_j; <= tol means pass
    worst_index: int | None
    n_checked: int


def verify_supersolution(
    r: np.ndarray,
    model: CoefficientModel,
    omega: float,
    rho: float,
    tol: float,
) -> SupersolutionCheck:
    """Check r_1 >= rho - tol and the balance inequality on 2 <= j <= N-1.

    Each row is allowed slack tol * (a_{j-1} omega r_{j-1} + b_j r_j), the
    natural magnitude of the two competing fluxes.
    """
    r = np.asarray(r, dtype=float)
    n = len(r)
    if n < 3:
        raise ParameterError("sequence too short to verify")
    r1_ok = bool(r[0] >= rho - tol)
    a_prev, b_j = model.rate_pairs(n - 1)
    a_prev = a_prev * omega
    lhs = a_prev * (r[:-2] - r[1:-1]) + b_j * (r[2:] - r[1:-1])
    scale = a_prev * r[:-2] + b_j * r[1:-1]
    scale = np.where(scale > 0, scale, 1.0)
    margins = lhs / scale
    worst = int(np.argmax(margins))
    cond2_ok = bool(np.all(lhs <= tol * scale))
    return SupersolutionCheck(
        ok=r1_ok and cond2_ok,
        r1_ok=r1_ok,
        worst_margin=float(margins[worst]),
        worst_index=worst + 2,
        n_checked=n - 2,
    )


@dataclass(frozen=True)
class WeightedSumBound:
    """Both sides of the weighted-sum control sum phi_j r_j <= C (1 + sum phi_j g_j)."""

    lhs: float
    rhs: float
    c_used: float
    m_index: int
    delta_star: float


def weighted_sum_bound(
    r: np.ndarray,
    g: np.ndarray,
    phi: np.ndarray,
    params: SupersolutionParams,
) -> WeightedSumBound:
    """Assemble the weighted-sum bound with its explicit constant.

    The weight must be positive, eventually non-decreasing and have growth
    ratio eventually below delta_star = (delta + lambda)/2; the index M from
    which both hold (at least the switch index) anchors the constant

        C = 2 max(B sum_{j<M} phi_j, (lambda d*/(lambda - d*)) max(1, B phi_{M-1}))

    with B the uniform bound on r.
    """
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = len(r)
    if len(g) != n or len(phi) != n:
        raise ParameterError("r, g and phi must share the truncation length")
    if np.any(phi <= 0):
        raise ParameterError("weights must be positive")
    delta_star = 0.5 * (params.delta + params.lam)
    ratio = phi[1:] / phi[:-1]
    valid = (ratio >= 1.0 - 1e-12) & (ratio <= delta_star * (1 + 1e-12))
    # smallest M with both conditions holding for every j >= M
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(valid)))
    if not suffix_ok[-1]:
        raise PhiDecayError(
            f"weight ratio {ratio[-1]:.6g} still above delta_star = {delta_star:.6g} "
            "at the truncation end"
        )
    first = int(np.argmax(suffix_ok))  # ratio index j-1 -> condition at j = first + 2
    m = max(first + 2, params.n_switch, 2)
    if m > n - 1:
        raise PhiDecayError("no admissible anchor index within the truncation")
    bound = params.rho * (params.lam * params.omega + 1.0) / (params.omega * (params.lam - 1.0))
    head = math.fsum(phi[: m - 1])
    factor = params.lam * delta_star / (params.lam - delta_star)
    c = 2.0 * max(bound * head, factor * max(1.0, bound * float(phi[m - 2])))
    lhs = math.fsum(phi * r)
    rhs = c * (1.0 + math.fsum(phi * g))
    return WeightedSumBound(lhs=lhs, rhs=rhs, c_used=c, m_index=m, delta_star=delta_star)
