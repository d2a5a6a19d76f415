"""Constructive dominating sequences for the capped-monomer comparison flow.

Given a cap omega < z_s on the monomer concentration and a non-increasing
tail profile g that vanishes within the truncation, the construction returns
a sequence r with r_1 >= rho, the one-sided balance inequality

    a_{j-1} omega (r_{j-1} - r_j) + b_j (r_{j+1} - r_j) <= 0

at every interior index, termwise domination r_j >= g_j, and weighted sums
controlled by those of g.  ``make_params`` fixes the build's tuple (omega,
rho, lambda, switch index), and is the only code that computes lambda and
the switch index.  The decay rate lambda is the square root of the ceiling
z_s/omega (capped at 1 + 1/omega when that stays above 1), so it lives
strictly between 1 and the ceiling; past the switch index the
fragmentation rate wins against lambda * omega * a_{j-1}, which is what
makes the geometric envelope a valid continuation.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientModel
from .equilibrium import fsum_array, settled_fsum, support_length
from .errors import NoSwitchIndexError, NumericalError, ParameterError, PhiDecayError, TailNotDecayedError

_SCAN_DEFAULT = 100_000
BALANCE_TOL_FACTOR = 1e-12  # times the density: the balance check's slack
TAIL_DECAY_TOL = 1e-6  # g_N must be below this share of rho: g is taken as 0 past N
_TINY = 2.0**-1022  # the smallest normal float: an increment below it is subnormal


@dataclass(frozen=True)
class SupersolutionParams:
    """The tuple (omega, rho, lambda, switch index) fixing a build."""

    omega: float
    rho: float
    lam: float
    n_switch: int

    def __post_init__(self):
        if not self.lam > 1.0:
            raise ParameterError("need lambda > 1")
        if self.omega <= 0 or self.rho <= 0:
            raise ParameterError("omega and rho must be positive")
        if self.n_switch < 1:
            raise ParameterError("switch index must be >= 1")

    @property
    def delta_star(self) -> float:
        """(1 + lambda) / 2, the growth ratio an admissible weight stays below."""
        return 0.5 * (1.0 + self.lam)

    @property
    def uniform_bound(self) -> float:
        """rho (lambda omega + 1) / (omega (lambda - 1)), the bound on every r_j."""
        return self.rho * (self.lam * self.omega + 1.0) / (self.omega * (self.lam - 1.0))


def make_params(
    model: CoefficientModel,
    omega: float,
    rho: float,
    n_max: int = _SCAN_DEFAULT,
    *,
    z_s: float,
) -> SupersolutionParams:
    """The parameters of a build for a cap omega in (0, z_s) and density rho,
    given the critical monomer density z_s (in the pipeline,
    ``experiments.prepare``'s ``critical.z_s``).

    lambda is the square root of the ceiling z_s/omega; the ceiling is
    additionally capped at 1 + 1/omega when that stays above 1 + 1e-9, which
    keeps r_1 >= rho automatic (for omega(lambda-1) > 1 the prefix patch alone
    cannot guarantee it).  The switch index is the smallest index past which
    b_j >= lambda omega a_{j-1} holds throughout the scanned range
    j <= n_max (clamped to a rate table's rows).
    """
    if model.table_length is not None:
        n_max = min(n_max, model.table_length)
    if omega <= 0 or omega >= z_s:
        raise ParameterError(f"omega must lie in (0, z_s = {z_s:.6g}), got {omega}")
    ceiling = z_s / omega
    capped = min(ceiling, 1.0 + 1.0 / omega)
    if capped > 1.0 + 1e-9:
        ceiling = capped
    lam = math.sqrt(ceiling)

    a_prev, b_j = model.rate_pairs(n_max)
    ok = b_j >= lam * omega * a_prev
    if not ok[-1]:
        raise NoSwitchIndexError(
            f"b_j >= lambda omega a_(j-1) still fails at j = {n_max}; "
            "omega is too close to z_s for this truncation"
        )
    bad = np.nonzero(~ok)[0]
    n_switch = int(bad[-1]) + 3 if len(bad) else 1  # one past the last failing j = bad + 2
    return SupersolutionParams(omega=omega, rho=rho, lam=lam, n_switch=n_switch)


class Supersolution(NamedTuple):
    """A dominating sequence with its construction witness.

    ``params`` is the record it was built from: lambda, the switch index
    and the uniform bound on r are read there.  ``s`` holds the increments
    r_j - r_{j+1} on [n_switch, N] (zeros before); ``tail_value`` is the
    geometric continuation sum added past the truncation, which preserves
    the balance inequality at j = N.  Past row ``n_head`` = max(support of
    g, n_switch), s and r are the geometric continuation of row ``n_head``
    (``continue_geometrically``): N, lambda and that row determine them.
    """

    r: np.ndarray
    s: np.ndarray
    params: SupersolutionParams
    n_head: int
    tail_value: float

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def floor_row(self) -> int:
        """The first row j >= n_head + 2 whose increment s_j is subnormal
        (below 2^-1022), or N + 1 when there is none.  From it on r_{j-1},
        r_j and r_{j+1} are the geometric continuation, and r holds the
        decay's underflow: the checks read the rates there, not r."""
        # past row n_head s is non-increasing: bisect for its first subnormal
        first = bisect.bisect_right(self.s, -_TINY, lo=min(self.n_head + 1, self.n), key=operator.neg)
        return first + 1


def continue_geometrically(s: np.ndarray, r: np.ndarray, lam: float, m: int, start: int) -> float:
    """Fill rows m+1..N of s with s_j = s_{j-1} / lambda and rows start..N
    of r with the suffix sums of s plus tail_value = s_N / (lambda - 1), the
    continuation past the truncation; return tail_value.  Rows are 1-based.

    Past the support of g the increments' recurrence is this decay.  It is
    a running product in the recurrence's order, taken in chunks of growing
    length whose first factor is the previous chunk's last product, so each
    s_j has the bits of one product over all rows.  ``build_supersolution``
    and ``experiments.read_supersolution`` both call it, so r and s rebuilt
    from rows 1..m are the built ones bit for bit (the suffix sums
    accumulate from row N, so where they start does not change them).

    In exact arithmetic r_j = s_j lambda / (lambda - 1) for j >= m: the
    suffix sum of a geometric s plus tail_value is the whole geometric
    series.  So from row m + 2 on, r_{j-1}, r_j and r_{j+1} are c lambda^-j
    times lambda, 1 and 1/lambda, and the balance row's margin lhs_j /
    scale_j is the closed form (lambda - 1)(lambda omega a_{j-1} - b_j) /
    (lambda (lambda omega a_{j-1} + b_j)) of the rates alone.  Row m + 1
    still reads r_m, which ``build_supersolution``'s round-off guard
    r = max(r, g) may lift to g_m; g vanishes past row m.

    The decay underflows to a fixed point: for lambda < 2 a 1-ulp subnormal
    times 1/lambda > 1/2 rounds back to itself, and for lambda <= 4/3 so
    does a 2-ulp one; for lambda >= 2 it reaches 0.  Once s_j / lambda
    rounds to s_j the remaining rows are filled with s_j, not multiplied
    through: on the power-law template at N = 32 000 (lambda = 1.294) s is
    subnormal from row 2752 (``Supersolution.floor_row``) and sticks at
    2^-1073 from row 2888, so r has 29 244 subnormal entries and no zero.
    Read from that floor, the balance rows' worst margin would be -2.37e-6
    at j = 2888, a measure of underflow; ``verify_supersolution`` takes the
    closed form there (-0.0294 at j = N - 1).
    """
    inv_lam = 1.0 / lam
    j, chunk = m - 1, 256  # j: 0-based row of the last product
    while j < len(s) - 1:
        end = min(j + chunk, len(s) - 1)
        decay = np.full(end - j + 1, inv_lam)
        decay[0] = s[j]
        s[j : end + 1] = np.multiply.accumulate(decay)
        j, chunk = end, 2 * chunk
        if s[j] * inv_lam == s[j]:
            s[j + 1 :] = s[j]
            break
    tail_value = float(s[-1]) / (lam - 1.0)
    r[start - 1 :] = np.cumsum(s[start - 1 :][::-1])[::-1] + tail_value
    return tail_value


def build_supersolution(model: CoefficientModel, params: SupersolutionParams, g: np.ndarray) -> Supersolution:
    """Construct a dominating sequence above the tail profile g.

    g must be non-negative, non-increasing, start at or below rho and have
    decayed below TAIL_DECAY_TOL * rho by the truncation end (it is treated
    as zero beyond; a g that has not raises TailNotDecayedError).
    Increments follow s_{j+1} = max(s_j / lambda, h_{j+1}) with h the
    first differences of g; before the switch index the sequence
    is the constant max(rho, r_{switch}).  The recurrence runs up to row
    m = max(support of g, n_switch); past it h vanishes, and
    ``continue_geometrically`` writes the decay and the suffix sums.
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
        raise TailNotDecayedError(
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
        # patch cannot repair a deficit here.  make_params's 1 + 1/omega cap
        # keeps omega (lambda - 1) <= 1 until omega >= 1e9 turns the cap off
        s_start = max(s_start, rho * (lam - 1.0) / lam)
    s[ns - 1] = s_start + h[ns - 1]
    inv_lam = 1.0 / lam
    m = max(support_length(g), ns)
    for j in range(ns, m):
        s[j] = max(s[j - 1] * inv_lam, h[j])
    r = np.zeros(n)
    tail_value = continue_geometrically(s, r, lam, m, ns)
    if ns > 1:
        r[: ns - 1] = max(rho, r[ns - 1])
    # guard termwise domination against summation round-off
    r = np.maximum(r, g)
    if r[0] < rho * (1 - 1e-12):
        raise NumericalError(
            f"constructed r_1 = {r[0]:.6g} fell below the density {rho:.6g}"
        )
    return Supersolution(r=r, s=s, params=params, n_head=m, tail_value=tail_value)


class SupersolutionCheck(NamedTuple):
    """Verdict of the balance-inequality check on a candidate sequence."""

    ok: bool
    r1_ok: bool
    worst_margin: float  # max over j of lhs_j / scale_j; <= 1e-12 rho means pass
    worst_index: int | None
    n_checked: int


def verify_supersolution(
    r: np.ndarray,
    model: CoefficientModel,
    omega: float,
    rho: float,
    *,
    lam: float | None = None,
    floor_row: int | None = None,
) -> SupersolutionCheck:
    """Check r_1 >= rho - tol and the balance inequality on 2 <= j <= N-1,
    with the fixed slack tol = ``BALANCE_TOL_FACTOR`` rho = 1e-12 rho.

    Each row is allowed slack tol * (a_{j-1} omega r_{j-1} + b_j r_j), the
    natural magnitude of the two competing fluxes.  Without ``floor_row``
    every row is read from r.  With it (``Supersolution.floor_row``, with
    the build's lambda) rows j >= floor_row are not: there r_{j-1}, r_j and
    r_{j+1} are the geometric continuation r_i = c lambda^-i, where the
    margin lhs_j / scale_j is the closed form

        (lambda - 1)(lambda omega a_{j-1} - b_j) / (lambda (lambda omega a_{j-1} + b_j)),

    which depends on the rates alone and is at most 0 exactly where the
    switch condition b_j >= lambda omega a_{j-1} holds.  In floating point
    r there is the decay's subnormal floor, whose margins measure underflow,
    not the sequence.
    """
    r = np.asarray(r, dtype=float)
    n = len(r)
    if n < 3:
        raise ParameterError("sequence too short to verify")
    k = n if floor_row is None else min(floor_row, n)
    if k < 3 or (k < n and lam is None):
        raise ParameterError("the closed-form rows need lambda and start at row 3 or later")
    tol = BALANCE_TOL_FACTOR * rho
    r1_ok = bool(r[0] >= rho - tol)
    a_prev, b_j = model.rate_pairs(n - 1)
    a_head = a_prev[: k - 2] * omega
    lhs = a_head * (r[: k - 2] - r[1 : k - 1]) + b_j[: k - 2] * (r[2:k] - r[1 : k - 1])
    scale = a_head * r[: k - 2] + b_j[: k - 2] * r[1 : k - 1]
    scale = np.where(scale > 0, scale, 1.0)
    margins = lhs / scale
    worst = int(np.argmax(margins))
    worst_margin, ok = float(margins[worst]), bool(np.all(lhs <= tol * scale))
    if k < n:
        flux = lam * omega * a_prev[k - 2 :]
        closed = (lam - 1.0) * (flux - b_j[k - 2 :]) / (lam * (flux + b_j[k - 2 :]))
        top = int(np.argmax(closed))
        if closed[top] > worst_margin:
            worst, worst_margin = k - 2 + top, float(closed[top])
        ok = ok and bool(closed[top] <= tol)
    return SupersolutionCheck(
        ok=r1_ok and ok,
        r1_ok=r1_ok,
        worst_margin=worst_margin,
        worst_index=worst + 2,
        n_checked=n - 2,
    )


class WeightedSumBound(NamedTuple):
    """Both sides of the weighted-sum control sum phi_j r_j <= C (1 + sum phi_j g_j)."""

    lhs: float
    rhs: float
    c_used: float


def anchor_index(psi: np.ndarray, params: SupersolutionParams) -> int:
    """The least index M >= max(2, switch index) from which the positive
    weight psi is non-decreasing with growth ratio below delta_star through
    row N; PhiDecayError when there is none.  It reads no trajectory."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ParameterError("weights must be positive")
    ratio = psi[1:] / psi[:-1]
    valid = (ratio >= 1.0 - 1e-12) & (ratio <= params.delta_star * (1 + 1e-12))
    # smallest M with both conditions holding for every j >= M
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(valid)))
    if not suffix_ok[-1]:
        if ratio[-1] < 1.0 - 1e-12:
            failing = "below 1: the weight is still decreasing"
        else:
            failing = f"still above delta_star = {params.delta_star:.6g}"
        raise PhiDecayError(f"weight ratio {ratio[-1]:.6g} {failing} at the truncation end")
    first = int(np.argmax(suffix_ok))  # ratio index j-1 -> condition at j = first + 2
    m = max(first + 2, params.n_switch, 2)
    if m > len(psi) - 1:
        raise PhiDecayError("no admissible anchor index within the truncation")
    return m


def weighted_sum_bound(r: np.ndarray, g: np.ndarray, psi: np.ndarray, params: SupersolutionParams, m: int,
                       *, floor_row: int | None = None) -> WeightedSumBound:
    """Assemble the weighted-sum bound with its explicit constant.

    The anchor index M = m of psi (``anchor_index``) anchors the constant

        C = 2 max(B sum_{j<M} psi_j, (lambda d*/(lambda - d*)) max(1, B psi_{M-1}))

    with B the uniform bound on r and d* = delta_star.  The right side sums
    psi g over g's support: the terms past it are exact zeros.  The left
    side is ``math.fsum(psi * r)`` bit for bit.  With ``floor_row`` = k
    (``Supersolution.floor_row``) it forms psi r only on rows before k: r is
    non-increasing, so the rows from k on add at most
    (N - k + 1) max_{j>=k} psi_j r_k, and when ``settled_fsum`` shows that
    cannot move the rounded sum, the head's sum is the result; otherwise it
    sums the full product.
    """
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = len(r)
    if len(g) != n or len(psi) != n:
        raise ParameterError("r, g and psi must share the truncation length")
    bound, delta_star = params.uniform_bound, params.delta_star
    head = fsum_array(psi[: m - 1])
    factor = params.lam * delta_star / (params.lam - delta_star)
    c = 2.0 * max(bound * head, factor * max(1.0, bound * float(psi[m - 2])))
    lhs = None
    if floor_row is not None and floor_row <= n:
        # r is non-increasing, so each skipped term psi_j r_j is at most
        # max psi r_k; the 2 covers the products' rounding, 2^-1074 their underflow
        k = floor_row
        skipped, top = n - k + 1, float(psi[k - 1 :].max()) * float(r[k - 1])
        lhs = settled_fsum(psi[: k - 1] * r[: k - 1], math.fsum([2.0 * skipped * top, skipped * 2.0**-1074]))
    if lhs is None:
        lhs = fsum_array(psi * r)
    g = g[: support_length(g)]
    rhs = c * (1.0 + fsum_array(psi[: len(g)] * g))
    return WeightedSumBound(lhs=lhs, rhs=rhs, c_used=c)
