"""Embedded Dormand-Prince 5(4) integrator with dense output, and a
Rosenbrock 4(3) phase for the stiff part of a run.

Generic over the right-hand side; the cluster solver layers its positivity
filter on top and the comparison-principle checks reuse it directly.  Step
control is the classic PI controller (error exponent 0.17, memory exponent
0.04, safety 0.9).  Snapshots at requested times come from the standard
quartic interpolant of the pair, so accepted steps never need to land on
the output grid, and every output time inside an accepted step comes from
one batched evaluation of the interpolant: a dense grid costs neither
steps nor a round of calls per time.  The rows are returned as the
interpolant gives them; a caller that needs them adjusted (the cluster
solver's positivity clamp) does so on the whole matrix afterwards.

The controller remembers filter vetoes.  Near equilibrium an explicit step
is limited by stability and positivity, not accuracy, and the error test
does not see that limit: the PI proposal alone would grow each step
straight back to the size the filter just vetoed.  So a veto at h_v caps
later steps at 0.9 h_v, and each accepted step relaxes the cap by 1 %; it
is back at h_v after 11 accepted steps.

No explicit controller lifts the stability limit itself.  A caller that
can solve with sigma I - J (``jacobian``) lets DOPRI5's stiffness test
(Hairer & Wanner, Solving ODEs II, IV.2) watch the accepted steps; once it
fires, the rest of the run takes linearly implicit Rosenbrock steps
(Shampine's 1982 Kaps-Rentrop parameters, order 4 with an embedded 3) in
the same loop: the same error test, filter, veto cap, window and snapshot
emission, with error exponent 1/4 and cubic Hermite dense output.  The
switch is one-way, and every snapshot before it is the DP5(4) run's.

A caller whose right-hand side moves the support of a state (1 + its last
non-zero index) by a bounded number of entries per evaluation says so with
``reach``; each step then runs on the occupied prefix of the state only.
A DP5(4) step there is the full-width step; a Rosenbrock step is the step
of the system truncated to the prefix (see ``solve_rk54``).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .equilibrium import support_length
from .errors import NumericalError, ParameterError, StepSizeUnderflowError

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# dense-output polynomial coefficients: y(t0 + s h) = y0 + h (K^T P) [s, s^2, s^3, s^4]
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

# Rosenbrock 4(3) pair for the stiff phase: Shampine's (1982) parameters
# for the Kaps-Rentrop scheme, gamma = 1/2, R(infinity) = 1/3
_GAMMA = 0.5
_A21, _A31, _A32 = 2.0, 48 / 25, 6 / 25
_C21, _C31, _C32 = -8.0, 372 / 25, 12 / 5
_C41, _C42, _C43 = -112 / 125, -54 / 125, -2 / 5
_ROS_B = np.array([19 / 9, 1 / 2, 25 / 108, 125 / 108])
_ROS_E = np.array([17 / 54, 7 / 36, 0.0, 125 / 108])

# DOPRI5's stiffness test (Hairer & Wanner, Solving ODEs II, IV.2): a step
# with h * lambda > 3.25 counts as stiff, 6 non-stiff steps in a row reset
# the count, and 15 stiff steps switch the rest of the run to Rosenbrock
_STIFF_H_LAMBDA = 3.25
_NONSTIFF_RESET = 6
_STIFF_SWITCH = 15

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# veto memory: a positivity veto at h_v caps later steps at _VETO_CAP * h_v,
# and every accepted step relaxes the cap by _CAP_RELAX
_VETO_CAP = 0.9
_CAP_RELAX = 1.01


@dataclass
class StepStats:
    n_steps: int = 0
    n_rejected_error: int = 0
    n_rejected_filter: int = 0
    n_fev: int = 0
    t_stiff: float | None = None  # when the stiffness test switched to Rosenbrock steps
    # the widest window a step ran on; every column of y_eval from it on is
    # zero.  The same steps on a narrower window are the same run, so ==
    # ignores it
    w_max: int = field(default=0, compare=False)


@dataclass
class RKSolution:
    t: float
    y: np.ndarray
    t_eval: np.ndarray
    y_eval: np.ndarray  # shape (len(t_eval), n)
    stats: StepStats = field(default_factory=StepStats)


def _rms(v: np.ndarray, n: int) -> float:
    """RMS of ``v`` padded with zeros to length ``n``: the norm is over all n
    components, whatever the window, so step control does not see it."""
    return float(np.sqrt((v * v).sum() / n))


def _initial_step(f, t0, y0, f0, t_end, rel_tol, abs_tol, stats, n) -> float:
    # Hairer's starting-step heuristic for a 5th-order pair
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale, n)
    d1 = _rms(f0 / scale, n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    stats.n_fev += 1
    d2 = _rms((f1 - f0) / scale, n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def _rosenbrock_step(f, jacobian, t, y, fy, h, g) -> tuple[np.ndarray, np.ndarray]:
    """One step of the Rosenbrock pair from y, where fy = f(t, y): fills the
    (4, len(y)) buffer g with the stages and returns (y_new, error estimate).

    One factorization of I / (gamma h) - J(y), four solves and two
    evaluations of ``f``; the third and fourth stage share one.  ``f`` must
    not depend on t (the stage times are the pair's nodes 1 and 3/5).
    """
    solve = jacobian(y, 1.0 / (_GAMMA * h))
    g[0] = solve(fy)
    g[1] = solve(f(t + h, y + _A21 * g[0]) + (_C21 / h) * g[0])
    f3 = f(t + 0.6 * h, y + _A31 * g[0] + _A32 * g[1])
    g[2] = solve(f3 + (_C31 * g[0] + _C32 * g[1]) / h)
    g[3] = solve(f3 + (_C41 * g[0] + _C42 * g[1] + _C43 * g[2]) / h)
    return y + _ROS_B @ g, _ROS_E @ g


def _quartic_rows(y: np.ndarray, k: np.ndarray, h: float, theta: np.ndarray) -> np.ndarray:
    """The DP5(4) interpolant at t + theta h, one row per theta, from the
    step's start y and its stages k (a window of width >= 2).

    Each row has the bits of the interpolant at its theta alone, the
    matrix-vector product y + h (k^T P) [theta, .., theta^4]: the powers
    come from each scalar theta, and the four terms are summed in that
    product's two-lane order, (1st + 3rd) + (2nd + 4th).  A matrix product
    over all rows at once changes the last bits of many of them.
    """
    q = k.T @ _P
    p = np.array([(th, th**2, th**3, th**4) for th in theta])
    return y + h * ((p[:, :1] * q[:, 0] + p[:, 2:3] * q[:, 2]) + (p[:, 1:2] * q[:, 1] + p[:, 3:] * q[:, 3]))


def _hermite_rows(
    y: np.ndarray, y_new: np.ndarray, f0: np.ndarray, f_new: np.ndarray, h: float, theta: np.ndarray
) -> np.ndarray:
    """The cubic Hermite interpolant of a Rosenbrock step at t + theta h, one
    row per theta; elementwise, so each row has the bits of its theta alone."""
    th = theta[:, None]
    return (1 - th) * y + th * y_new + th * (th - 1) * (
        (1 - 2 * th) * (y_new - y) + (th - 1) * h * f0 + th * h * f_new
    )


def solve_rk54(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_end: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    accept_filter: Callable[[float, np.ndarray], np.ndarray | None] | None = None,
    fixed_step: float | None = None,
    max_steps: int = 2_000_000,
    reach: int | None = None,
    jacobian: Callable[[np.ndarray, float], Callable[[np.ndarray], np.ndarray]] | None = None,
) -> RKSolution:
    """Integrate y' = f(t, y) from t0 to t_end.

    ``accept_filter`` sees every step that passed the error test and may
    adjust the state (returning the new vector) or veto it (returning
    None, which halves the step and caps later steps at 0.9 times the
    vetoed one, a cap that relaxes by 1 % per accepted step).
    ``fixed_step`` disables adaptivity, the veto path and the stiffness
    switch.

    After each accepted step the rows of ``y_eval`` for the output times
    in (t, t + h] are filled in one write: the dense interpolant evaluated
    at all of them at once, and the accepted (filtered) state itself at a
    time within 1e-15 max(1, |t + h|) of t + h.  Each row's bits are those
    of evaluating the interpolant at its time alone, so they do not depend
    on the rest of the grid.  Interpolated rows are not filtered.

    ``jacobian(y, sigma)`` factors sigma I - J(y), J the Jacobian of an
    ``f`` that does not depend on t, and returns the solve b -> x of
    (sigma I - J(y)) x = b.  With it, DOPRI5's stiffness test runs after
    every accepted step, and once it fires (``stats.t_stiff``) every later
    step is a linearly implicit Rosenbrock 4(3) step: four solves with one
    factorization, three evaluations of ``f`` (the last, at the accepted
    state, is the next step's first), error exponent 1/4 and cubic Hermite
    dense output.  The error test, the filter, the veto cap and the window
    are the same in both phases.  Without it every step is DP5(4).

    ``reach`` is a promise about ``f``: when y vanishes from index m on,
    f(t, y) vanishes from index m + reach on, and f applied to a prefix of
    y that ends in a zero is the same prefix of f(t, y).  Each step then
    works on the window y[:w], w = min(N, support + 7 * reach + 1), where
    the support is 1 + the last non-zero index of the accepted state.  The
    seven evaluations of a DP5(4) step move the support up by at most
    7 * reach, so every stage, the error estimate and the dense output
    vanish past the window, and the result is the full system's up to
    summation order, not an approximation.  A Rosenbrock step's solves
    fill the window, so its result is the step of the system truncated to
    the window.  ``f``, ``jacobian`` and ``accept_filter`` then get and
    return window-length vectors, and the filter must not make an entry
    non-zero past its input's support.  The error norm stays the RMS over
    all N components, so step control does not depend on the window.
    ``y_eval`` is (len(t_eval), N) with zeros past each row's window, and
    ``y`` has length N.  ``stats.w_max`` is the widest window of the run:
    every column of ``y_eval`` from it on is zero.  Without ``reach`` the
    window is all N.
    """
    state = np.array(y0, dtype=float)  # the full state: zero past the window
    t = float(t0)
    if t_end <= t:
        raise ParameterError("t_end must exceed t0")
    if t_eval is None:
        t_eval = np.array([t0, t_end])
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(t_eval) <= 0):
        raise ParameterError("output times must be strictly increasing")
    if t_eval[0] < t0 - 1e-12 or t_eval[-1] > t_end + 1e-12:
        raise ParameterError("output times must lie within [t0, t_end]")

    n = len(state)

    def width(y: np.ndarray) -> int:
        # y: a prefix of the state that holds all of its non-zero entries;
        # a non-zero last entry spares the scan when the support fills it
        if reach is None:
            return n
        support = len(y) if y[-1] else support_length(y)
        return min(n, support + 7 * reach + 1)

    stats = StepStats()
    w = width(state)
    y = state[:w]
    # DP5(4): k[0..6] are the stages; Rosenbrock: k[0] is f(y), k[1..4] the
    # solves g_1..g_4
    k = np.empty((7, n))
    k[0, :w] = f(t, y)
    stats.n_fev += 1

    y_eval = np.zeros((len(t_eval), n))
    t_out = t_eval.tolist()  # bisect on floats: most steps emit nothing
    i_out = bisect.bisect_right(t_out, t0 + 1e-15 * max(1.0, abs(t0)))
    y_eval[:i_out, :w] = y

    if fixed_step is not None:
        h = float(fixed_step)
        if h <= 0:
            raise ParameterError("fixed_step must be positive")
    else:
        h = _initial_step(f, t, y, k[0, :w], t_end, rel_tol, abs_tol, stats, n)
    fac_old = 1e-4
    h_cap = math.inf
    detect = jacobian is not None and fixed_step is None
    stiff = False
    n_stiff = n_nonstiff = 0

    while t < t_end:
        if stats.n_steps + stats.n_rejected_error + stats.n_rejected_filter >= max_steps:
            raise StepSizeUnderflowError(t, h)
        tiny = 1e-14 * max(1.0, abs(t))
        last = t + h >= t_end - tiny
        if last:
            h = t_end - t
        if h < tiny and not last:
            raise StepSizeUnderflowError(t, h)
        stats.w_max = max(stats.w_max, w)

        kw = k[:, :w]
        if stiff:
            y_new, err = _rosenbrock_step(f, jacobian, t, y, kw[0], h, kw[1:5])
            stats.n_fev += 2
            expo = 0.25
        else:
            for s in range(1, 7):
                kw[s] = f(t + _C[s] * h, y + h * (_A[s] @ kw[:s]))
            stats.n_fev += 6
            y_new = y + h * (_B[:6] @ kw[:6])
            # FSAL: _A[6] equals _B[:6], so k[6] already holds f(t+h, y_new)
            err = h * (_E @ kw)
            expo = 0.17

        if fixed_step is None:
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = _rms(err / scale, n)
            if not math.isfinite(err_norm) or err_norm > 1.0:
                stats.n_rejected_error += 1
                if math.isfinite(err_norm):
                    factor = max(_MIN_FACTOR, _SAFETY * err_norm**-expo * fac_old**0.04)
                else:
                    factor = _MIN_FACTOR
                h *= min(1.0, factor)
                continue
        else:
            err_norm = 0.0
            if not np.all(np.isfinite(y_new)):
                raise NumericalError(
                    f"fixed-step solution left the representable range at t={t:.6g} "
                    f"(h={h:.3g} is past the stability limit)"
                )

        y_accepted = y_new
        filtered = False
        if accept_filter is not None:
            result = accept_filter(t + h, y_new)
            if result is None:
                if fixed_step is not None:
                    raise ParameterError("accept_filter may not veto in fixed-step mode")
                stats.n_rejected_filter += 1
                h_cap = min(h_cap, _VETO_CAP * h)
                h *= 0.5
                continue
            filtered = result is not y_new
            y_accepted = result

        t_new = t_end if last else t + h
        if stiff:
            f_new = f(t_new, y_accepted)
            stats.n_fev += 1

        # the output times inside (t, t_new]: the interpolant at all of them in
        # one evaluation, except that those within round-off of t_new get the
        # accepted state itself
        tol = 1e-15 * max(1.0, abs(t_new))
        i_copy = bisect.bisect_left(t_out, t_new - tol, i_out)
        i_end = bisect.bisect_right(t_out, t_new + tol, i_copy)
        if i_copy > i_out:
            theta = (t_eval[i_out:i_copy] - t) / h
            if stiff:
                y_eval[i_out:i_copy, :w] = _hermite_rows(y, y_accepted, kw[0], f_new, h, theta)
            else:
                y_eval[i_out:i_copy, :w] = _quartic_rows(y, kw, h, theta)
        if i_end > i_copy:
            y_eval[i_copy:i_end, :w] = y_accepted
        i_out = i_end

        switch = False
        if detect and not stiff:
            # h lambda = h |k7 - k6| / |y_new - y6|, y6 the sixth stage's argument
            dk = kw[6] - kw[5]
            dy = y_new - (y + h * (_A[5] @ kw[:5]))
            dy2 = (dy * dy).sum()
            if dy2 > 0 and h * math.sqrt((dk * dk).sum() / dy2) > _STIFF_H_LAMBDA:
                n_stiff, n_nonstiff = n_stiff + 1, 0
                switch = n_stiff == _STIFF_SWITCH
            else:
                n_nonstiff += 1
                if n_nonstiff == _NONSTIFF_RESET:
                    n_stiff = 0

        t = t_new
        state[:w] = y_accepted
        w_new = width(state[:w])
        y = state[:w_new]
        stats.n_steps += 1
        if stiff or not filtered:
            # a wider window must not read what an earlier one left in k[0]
            k[0, :w] = f_new if stiff else kw[6]
            k[0, w:w_new] = 0.0
        else:
            k[0, :w_new] = f(t, y)
            stats.n_fev += 1
        w = w_new
        if fixed_step is None:
            fac = _SAFETY * max(err_norm, 1e-10) ** -expo * fac_old**0.04
            h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, fac)), h_cap)
            h_cap *= _CAP_RELAX
            fac_old = max(err_norm, 1e-4)
        if switch:
            # a veto so far capped an explicit step at its positivity limit,
            # which does not bind the implicit one
            stiff, h_cap = True, math.inf
            stats.t_stiff = t

    return RKSolution(t=t, y=state, t_eval=t_eval, y_eval=y_eval, stats=stats)
