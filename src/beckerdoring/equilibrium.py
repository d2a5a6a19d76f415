"""Critical quantities, monomer-activity solves and equilibrium profiles.

The central object is the power series F(z) = sum_i i Q_i z^i.  Its radius
of convergence is the critical monomer density z_s; F(z_s) is the critical
density rho_s, bounded below by the partial sum that ``critical_values``
reports and the activity solve refuses at; and for a subcritical target
density rho the monomer activity z_bar solves F(z_bar) = rho.  Everything
is evaluated through the detailed-balance prefix log Q, the one sequence
kept in log space: Q_i and z^i overflow or underflow where their product
does not.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientModel, detailed_balance, index_blocks, log_q_increments
from .errors import FreeEnergyDomainError, NumericalError, ParameterError, SupercriticalError

N_SERIES = 100_000  # the longest truncation of a formula family's critical values
ACTIVITY_TOL = 1e-12  # the activity solve's relative tolerance on F(z_bar) = rho
_N_CAP = 1 << 21


class CriticalValues(NamedTuple):
    """z_s, rho_s and the number of terms rho_s sums.  z_s is a rate
    table's stated z_s, or for a formula family the root-test estimate that
    omega's default, ``make_params`` and the activity bracket read.  rho_s
    is L = sum_{i<=n} i Q_i z_s^i at the model's own z_s, n = ``n_terms``
    being a table's rows or a formula family's truncation: a lower bound on
    the exact rho_s, which the activity solve refuses a density at."""

    z_s: float
    rho_s: float
    n_terms: int


def critical_values(model: CoefficientModel, log_q_prefix: _LogQPrefix | None = None) -> CriticalValues:
    """(z_s, rho_s, n_terms) of a model, computed once per preamble.

    rho_s is the partial sum L of F(z_s) = sum_i i Q_i z_s^i at the model's
    own z_s, over a rate table's rows, or for a formula family over
    truncations n that double from 256: it stops at the first n where the
    terms past n/2 add at most 2^-53 of the sum, or at ``N_SERIES``.  Every
    term is positive, so wherever the sum stops L is a lower bound on the
    exact rho_s (for a table, for every continuation of its rows), and a
    density below L is subcritical.  The stop rule only sets how tight
    that bound is.  A sum that leaves the float range is refused
    (ParameterError, naming the row where it does).

    A rate table states its z_s.  A formula family's z_s is the reciprocal
    of the geometric mean of Q_{i+1}/Q_i over the m = ``N_SERIES``//10
    indices i below ``N_SERIES``: exp of the mean of their increments
    log(a_i / b_{i+1}), evaluated over that window only.  log Q fills
    ``log_q_prefix`` (a new one when None) up to L's truncation, for the
    preamble's later consumers.
    """
    log_q_prefix = log_q_prefix or _LogQPrefix(model)
    log_z = math.log(model.z_s_param)
    table = model.table_length is not None
    n = model.table_length or 256
    terms = _series_terms(log_q_prefix(n), log_z)
    while not table and n < N_SERIES and np.sum(terms[n // 2 :]) > 2.0**-53 * np.sum(terms):
        n = min(2 * n, N_SERIES)
        terms = _series_terms(log_q_prefix(n), log_z)
    with np.errstate(over="ignore"):
        rho_s = float(np.sum(terms))
        if not math.isfinite(rho_s):
            row = int(np.argmax(np.isinf(np.cumsum(terms)))) + 1
            raise ParameterError(
                f"the critical density is not finite: sum_(i<={n}) i Q_i z_s^i at z_s = {model.z_s_param:.6g} "
                f"leaves the float range at row {row}"
            )
    if table:
        return CriticalValues(z_s=model.z_s_param, rho_s=rho_s, n_terms=n)
    m = N_SERIES // 10
    s = float(np.sum(log_q_increments(model, np.arange(N_SERIES - m, N_SERIES, dtype=float))))
    return CriticalValues(z_s=1.0 / math.exp(s / m), rho_s=rho_s, n_terms=n)


class _LogQPrefix:
    """log Q_1..Q_n of a model for any n, as slices of one array computed at
    the largest n asked for so far: the recursion is a running sum, so a
    longer prefix starts with the bits of every shorter one.

    ``experiments.prepare`` makes one per preamble: ``critical_values``
    fills it to its rho_s truncation (a rate table's rows), and the
    activity solve and ``equilibrium_profile`` grow it to their own
    truncations and to N.  It is dropped with the preamble's locals, so
    its entries do not outlive ``prepare``.  It holds one
    array; a longer prefix replaces it, grown from the last entry of the
    old one (``detailed_balance`` evaluates only the new increments), and
    while it is built both are held.
    """

    def __init__(self, model: CoefficientModel):
        self.model = model
        self._log_q = None

    def __call__(self, n: int) -> np.ndarray:
        if self._log_q is None or len(self._log_q) < n:
            self._log_q = detailed_balance(self.model, n, self._log_q)
        return self._log_q[:n]


def _series_at_activity(
    log_q_prefix: _LogQPrefix, z: float, tol_abs: float, n_start: int = 256, n_cap: int = _N_CAP
) -> tuple[float, bool, np.ndarray | None]:
    """(F(z), converged, the terms summed): the truncation doubles from
    ``n_start`` until the geometric remainder bound of its last six terms is
    at most ``tol_abs``, which is added to the sum; it stops unconverged at
    ``n_cap``.  A rate table's F is its finite sum, as ``critical_values``
    takes its rho_s: at the table's length the sum is returned converged,
    with no remainder.  Where the table's last terms still grow, the terms
    are None: Newton from above on a sum its last rows dominate moves z by
    about z / L a step, so the activity solve bisects there."""
    table_length = log_q_prefix.model.table_length
    if table_length is not None:
        n_cap = min(n_cap, table_length)
    log_z = math.log(z)
    n = min(n_start, n_cap)
    while True:
        log_q = log_q_prefix(n)
        terms = _series_terms(log_q, log_z)
        total = float(np.sum(terms))
        t_last = terms[-1]
        if t_last == 0.0:
            return total, True, terms
        # the last six log-terms, from their own indices: they may straddle a block edge
        lo = max(n - 6, 0)
        i = np.arange(lo + 1, n + 1, dtype=float)
        log_t = np.log(i) + log_q[lo:] + i * log_z
        r = math.exp(float(np.mean(np.diff(log_t))))
        if n == table_length:
            return total, True, terms if r < 1.0 - 1e-12 else None
        if r < 1.0 - 1e-12:
            remainder = t_last * r / (1.0 - r)
            if remainder <= tol_abs:
                return total + remainder, True, terms
        if n >= n_cap:
            return total, False, terms
        n = min(2 * n, n_cap)


def _series_terms(log_q: np.ndarray, log_z: float) -> np.ndarray:
    """The terms i Q_i z^i = exp(log i + log Q_i + i log z) of F(z) for
    i = 1..len(log_q), evaluated a block at a time into one array: the bits
    of the one-shot expression, holding one block of temporaries.  A term
    past the float range is inf, with no warning."""
    terms = np.empty(len(log_q))
    for lo, hi in index_blocks(0, len(log_q)):
        i = np.arange(lo + 1, hi + 1, dtype=float)
        t = terms[lo:hi]
        np.log(i, out=t)
        t += log_q[lo:hi]
        i *= log_z
        t += i
        with np.errstate(under="ignore", over="ignore"):
            np.exp(t, out=t)
    return terms


def solve_monomer_activity(
    model: CoefficientModel,
    rho: float,
    *,
    critical: CriticalValues,
    log_q_prefix: _LogQPrefix | None = None,
) -> float:
    """Solve F(z_bar) = rho for the monomer activity of a subcritical density.

    Safeguarded Newton on log F in log z, on [0, z_s), from above.  The
    upper end of the bracket starts at 0.999 z_s and creeps toward z_s
    while F there is still below rho, each point it leaves becoming the
    lower end; the iteration starts at the upper end.  s -> log F(e^s) is a
    log-sum-exp of affine functions of s, so it is increasing and convex,
    and from above a Newton step z exp(-(log F(z) - log rho) F(z) / (z F'(z)))
    does not pass z_bar: the iterates descend onto it.  z F'(z) = sum_i i t_i
    is read from the terms t_i that F(z) summed, at its truncation.  An
    iterate where F is below rho, its series did not converge or a rate
    table's last terms still grow, or a step that leaves the bracket,
    bisects the bracket instead.  Stops at an iterate below the model's own z_s where
    |F(z) - rho| <= ``ACTIVITY_TOL`` rho, a fixed 1e-12 relative.
    A density at or above ``critical.rho_s``, the partial sum L of F at the
    model's own z_s, is refused first (SupercriticalError, naming L and
    z_s): the one supercritical refusal.  The bracket creeps toward
    ``critical.z_s``.  Raises NumericalError when the creep reaches it (no
    float below it brackets rho) or the iteration stalls short of the
    tolerance, naming the last iterate's |F(z) - rho|.
    The truncations of F slice ``log_q_prefix`` (a new one when None).
    """
    if rho <= 0:
        raise ParameterError("density must be positive")
    if not rho < critical.rho_s:
        raise SupercriticalError(
            f"density {rho:.6g} is not below the critical density: sum_(i<={critical.n_terms}) "
            f"i Q_i z_s^i = {critical.rho_s:.6g} at z_s = {model.z_s_param:.6g}"
        )
    log_q_prefix = log_q_prefix or _LogQPrefix(model)
    tol = ACTIVITY_TOL * rho

    def f(z: float) -> tuple[float, np.ndarray | None]:
        value, converged, terms = _series_at_activity(log_q_prefix, z, tol / 10.0)
        return (float(value), terms) if converged else (math.inf, None)

    z_s = critical.z_s
    lo, hi = 0.0, 0.999 * z_s
    value, terms = f(hi)
    while value < rho:
        lo, hi = hi, z_s - 0.5 * (z_s - hi)
        if hi == z_s:
            raise NumericalError(f"no activity below z_s = {z_s:.6g} solves F(z) = rho = {rho:.6g}")
        value, terms = f(hi)
    z = hi
    for _ in range(200):
        if abs(value - rho) <= tol and z < model.z_s_param:
            return z
        if value < rho:
            lo = z
        else:
            hi = z
        step = 0.5 * (lo + hi)
        if terms is not None and value > rho:
            z_slope = float((np.arange(1, len(terms) + 1, dtype=float) * terms).sum())
            newton = z * math.exp(-math.log(value / rho) * value / z_slope)
            if lo < newton < hi:
                step = newton
        if step == lo or step == hi:
            break
        z = step
        value, terms = f(z)
    raise NumericalError(f"activity solve stalled: |F(z) - rho| = {abs(value - rho):.3g} > {tol:.3g}")


class EquilibriumData(NamedTuple):
    """A subcritical equilibrium profile Q_i z_bar^i.

    ``cut_index`` is the first (1-based) index zeroed by double underflow,
    None when every entry is representable.  ``tail_bound`` estimates the
    density carried beyond the truncation.
    """

    z_bar: float
    profile: np.ndarray
    log_profile: np.ndarray
    rho: float
    cut_index: int | None
    tail_bound: float


def equilibrium_profile(
    model: CoefficientModel,
    z_bar: float,
    n: int,
    log_q_prefix: _LogQPrefix | None = None,
) -> EquilibriumData:
    """Build the length-n equilibrium profile for a given monomer activity
    in (0, z_s), z_s being the model's own, from the first n entries of
    ``log_q_prefix`` (a new one when None)."""
    if not 0 < z_bar < model.z_s_param:
        raise ParameterError(f"activity {z_bar} outside (0, z_s = {model.z_s_param:.6g})")
    i = np.arange(1, n + 1, dtype=float)
    log_profile = (log_q_prefix or _LogQPrefix(model))(n) + i * math.log(z_bar)
    with np.errstate(under="ignore"):
        profile = np.exp(log_profile)
    zero = np.nonzero(profile == 0.0)[0]
    cut = int(zero[0]) + 1 if len(zero) else None
    rho = fsum_array(i * profile)
    if profile[-1] > 0.0:
        r = math.exp(
            float(log_profile[-1] - log_profile[-2]) + math.log(n + 1) - math.log(n)
        )
        tail = float(n * profile[-1] * r / (1.0 - r)) if r < 1.0 else math.inf
    else:
        tail = 0.0
    return EquilibriumData(
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


def fsum_array(x: np.ndarray) -> float:
    """``math.fsum(x)`` of a float array, bit for bit, summing exactly only
    the terms that can move the correctly rounded result: ``settled_fsum``
    of x, else ``math.fsum(x)``.
    """
    x = np.asarray(x, dtype=float)
    s = settled_fsum(x)
    return math.fsum(x) if s is None else s


def settled_fsum(x: np.ndarray, rest: float = 0.0) -> float | None:
    """The correctly rounded sum of x and of further terms whose exact total
    lies in [-rest, rest], when those bounds alone decide it; else None.

    The head |x_i| >= 2^-110 max|x| is summed with ``math.fsum`` to s, and
    e = fsum(head, -s) is its rounded residual.  In any summation order the
    rest of x adds at most B = 2 sum|rest of x| + len(rest of x) 2^-1074, so
    the exact total lies in s + e +- (ulp(e) + B + rest).  When that range,
    rounded outward, is strictly inside s's rounding interval (half the gap
    to the next float on each side), the sum is s.  Non-finite or huge
    entries give None.  The cut only sets how often None is returned: on a
    geometric tail that underflows, ``math.fsum`` walks each subnormal
    across the binades below the head.
    """
    a = np.abs(x)
    amax = float(a.max(initial=0.0))
    if not amax < 2.0**960:
        return None
    keep = a >= amax * 2.0**-110
    head = x[keep].tolist()
    s = math.fsum(head)
    head.append(-s)
    e = math.fsum(head)
    small = a[~keep]
    bound = math.nextafter(math.fsum([2.0 * float(small.sum()), len(small) * 2.0**-1074, rest]), math.inf)
    slack = math.nextafter(math.ulp(e) + bound, math.inf)
    hi = math.nextafter(e + slack, math.inf)
    lo = math.nextafter(e - slack, -math.inf)
    if 2.0 * hi < math.nextafter(s, math.inf) - s and 2.0 * lo > math.nextafter(s, -math.inf) - s:
        return s
    return None


def row_supports(rows: np.ndarray) -> np.ndarray:
    """The support of each row of a matrix of states: 1 + its last non-zero
    column, 0 for an all-zero row."""
    return np.max(np.where(rows != 0, np.arange(1, rows.shape[1] + 1), 0), axis=1, initial=0)


def relative_free_energy(c: np.ndarray, equilibrium: EquilibriumData) -> float | np.ndarray:
    """Free energy of states relative to an equilibrium profile.

    H = sum_i (c_i log(c_i / Q_i) - c_i + Q_i) with 0 log 0 = 0; non-negative
    by termwise convexity.  ``c`` is one state (returns a float) or a matrix
    with one state per row (returns one value per row).  Each row's terms
    are summed pairwise over its own support, and past it each term is Q_i,
    so that tail is one constant; a row's value is the same bits in any
    matrix.  The equilibrium carries log Q_i, so mass past the profile's
    underflow cut still gets a finite value; mass where log Q_i is -inf (a
    hand-built profile's zero) raises with the 1-based index of the first
    such entry in the first row that has one.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1:] != equilibrium.profile.shape:
        raise ParameterError("state and equilibrium must share the truncation length")
    rows = np.atleast_2d(c)
    h = _free_energy_head(rows, row_supports(rows), equilibrium)
    return float(h[0]) if c.ndim == 1 else h


def _free_energy_head(head: np.ndarray, supports: np.ndarray, equilibrium: EquilibriumData) -> np.ndarray:
    """``relative_free_energy`` of the rows of a matrix whose columns from
    head.shape[1] on are zero, given its first columns and row supports."""
    m = head.shape[1]
    profile = equilibrium.profile
    q, log_q = profile[:m], equilibrium.log_profile[:m]
    # min and max propagate a NaN, which fails both comparisons; inf fails the second
    if not (head.min(initial=0.0) >= 0 and head.max(initial=0.0) < math.inf):
        raise ParameterError("concentrations must be finite and non-negative")
    pos = head > 0
    _, bad = np.nonzero(pos & (log_q == -np.inf))
    if len(bad):
        raise FreeEnergyDomainError(int(bad[0]) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pos, head * (np.log(head) - log_q) - head + q, q)
    return _sum_over_support(supports, terms, profile)


def _sum_over_support(supports: np.ndarray, terms: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Row r of ``terms`` summed over its own support s = supports[r], plus
    tail[s:].sum(): no other row moves it."""
    sums = np.empty(len(terms))
    for s in set(supports.tolist()):
        rows = np.flatnonzero(supports == s)
        sums[rows] = terms[rows, :s].sum(axis=1) + tail[s:].sum()
    return sums
