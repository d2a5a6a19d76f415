"""Mass-conserving integration of the truncated cluster-kinetics system.

The truncation closes the hierarchy with a zero net rate at the top size
(w_N = 0), which makes sum_i i * dc_i/dt vanish identically, so density is
conserved to round-off by construction.  Faithfulness of the truncation is
monitored: a run whose top concentration grows past a configurable share
of the density is flagged, not trusted silently.

One evaluation of the right-hand side makes at most one more size
non-zero, because the fluxes couple only neighbouring sizes and the
monomer.  ``integrate`` tells the integrator so (``reach=1``), and every
step runs on the occupied prefix of the state, min(N, support + 8)
entries, not on all N: from monodisperse data the dead band keeps the
support a few dozen sizes long at any N.  An explicit step there is the
full system's up to summation order, with the same step control and
counts.

Near equilibrium the explicit steps sit at their stability limit, so
``integrate`` also hands the integrator the Jacobian: tridiagonal plus a
dense monomer row and column, factored per step in O(window) (a Thomas
sweep, then the Schur complement on c_1).  Once DOPRI5's stiffness test
fires, the rest of the run takes Rosenbrock steps.  Their solves fill the
window, so an implicit step is the step of the system truncated to the
window; on the template configs it is within 1e-13 of the full-width
run, with the same counts.  With the exact Jacobian i J = 0, so every
implicit stage conserves mass too.

A run is stored as columns over its output times: the (snapshots, N)
state matrix and one column per observable.  The integrator fills the
matrix from its dense output, a batch of rows per accepted step, and
``integrate`` then applies the positivity clamp of accepted steps to all
rows in one pass and finds the support of the clamped matrix once; the
``Trajectory`` carries it.  The observables (density, relative free energy
and the weighted sums of the tracked keys, a moment order k or a
stretched pair (alpha, mu)) are computed in one pass over the matrix,
trimmed to that support and summed pairwise along each row in a fixed
order; compensated summation is kept only in the scalar helpers
``density``, ``moment`` and ``stretched_moment``.

A state is a plain float array c_1..c_N everywhere: ``density``,
``moment``, ``stretched_moment``, ``net_rates`` and ``rhs`` take the array.
``ClusterState`` pairs an array with its time; it checks the initial state
of ``integrate`` and is what ``Trajectory.at`` and ``snapshots`` return.

A single integration is sequential and deterministic.  Distinct
integrations are independent and may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rk import RKSolution, solve_rk54
from .coefficients import CoefficientModel
from .equilibrium import EquilibriumData, _free_energy_head, support_length
from .equilibrium import relative_free_energy  # noqa: F401 (bench/tracing.py wraps it by this name)
from .errors import ParameterError

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL_FACTOR = 1e-14  # times the density
DEFAULT_TAIL_THRESHOLD = 1e-6


@dataclass
class ClusterState:
    """Concentrations c_1..c_N at a time t."""

    c: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 1 or len(self.c) < 2:
            raise ParameterError("state needs at least two cluster sizes")
        if np.any(self.c < 0):
            raise ParameterError("concentrations must be non-negative")

    @property
    def n(self) -> int:
        return len(self.c)


def density(c: np.ndarray) -> float:
    """Mass density sum_i i c_i (compensated summation over the support of
    c: the exact zeros past it add nothing to a correctly rounded sum)."""
    m = support_length(c)
    return math.fsum(np.arange(1, m + 1, dtype=float) * c[:m])


def moment(c: np.ndarray, k: float) -> float:
    """Algebraic moment sum_i i^k c_i."""
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    i = np.arange(1, len(c) + 1, dtype=float)
    return math.fsum(i**k * c)


def stretched_moment(c: np.ndarray, alpha: float, mu: float) -> float:
    """Stretched-exponential moment sum_i exp(alpha i^mu) c_i."""
    if alpha <= 0 or not (0 < mu < 1):
        raise ParameterError("need alpha > 0 and 0 < mu < 1")
    i = np.arange(1, len(c) + 1, dtype=float)
    return math.fsum(np.exp(alpha * i**mu) * c)


def net_rates(c: np.ndarray, model: CoefficientModel) -> np.ndarray:
    """Net reaction rates w_i = a_i c_1 c_i - b_{i+1} c_{i+1}, with w_N = 0."""
    w = np.zeros(len(c))
    w[:-1] = _flux(c, *model.rate_pairs(len(c)))
    return w


def _flux(c: np.ndarray, a: np.ndarray, b_next: np.ndarray) -> np.ndarray:
    return a * c[0] * c[:-1] - b_next * c[1:]


def _balance(w: np.ndarray) -> np.ndarray:
    """dc of the fluxes w_1..w_{n-1}: dc_i = w_{i-1} - w_i, and the monomer
    pays for every flux, dc_1 = -w_1 - sum_i w_i."""
    dc = np.empty(len(w) + 1)
    dc[1:-1] = w[:-1] - w[1:]
    dc[-1] = w[-1]
    dc[0] = -w[0] - w.sum()
    return dc


def _rhs_core(c: np.ndarray, a: np.ndarray, b_next: np.ndarray) -> np.ndarray:
    return _balance(_flux(c, a, b_next))


def _jacobian(c: np.ndarray, a: np.ndarray, b_next: np.ndarray) -> tuple:
    """The Jacobian J of ``_rhs_core`` at c, an arrowhead matrix.

    Returns (J[0, 0], J[0, 1:], J[1:, 0], sub, diag, sup): the monomer row
    and column are dense, and J[1:, 1:] is tridiagonal with the given sub-,
    main and super-diagonal.  Since dc = balance(w(c)), column j of J is the
    balance of dw/dc_j, and i J = 0 for the sizes i, as i dc = 0.
    """
    a_c1 = a * c[0]  # dw_k/dc_k
    dw_dc1 = a * c[:-1]
    dw_dc1[0] *= 2.0  # w_1 = a_1 c_1^2 - b_2 c_2
    col = _balance(dw_dc1)
    row = b_next.copy()
    row[0] *= 2.0
    row[:-1] -= a_c1[1:]
    diag = -b_next
    diag[:-1] -= a_c1[1:]
    return col[0], row, col[1:], a_c1[1:], diag, b_next[1:]


def _shifted_solver(c: np.ndarray, a: np.ndarray, b_next: np.ndarray, sigma: float):
    """Factor sigma I - J(c) once and return the solve b -> x of
    (sigma I - J(c)) x = b, both O(len(c)).

    The tridiagonal block sigma I - J[1:, 1:] is factored by a Thomas sweep
    without pivoting.  That is stable because the block is strictly
    diagonally dominant by columns for sigma > 0 and c_1 >= 0: the
    off-diagonal entries of a column of J[1:, 1:] are non-negative and sum
    to at most minus its diagonal.  The monomer is then eliminated through
    its Schur complement.
    """
    corner, row, col, sub, diag, sup = _jacobian(c, a, b_next)
    lower, upper, pivot = (-sub).tolist(), (-sup).tolist(), (sigma - diag).tolist()
    m = len(pivot)
    for i in range(1, m):
        lower[i - 1] /= pivot[i - 1]
        pivot[i] -= lower[i - 1] * upper[i - 1]

    def tridiagonal(x: list) -> np.ndarray:
        for i in range(1, m):
            x[i] -= lower[i - 1] * x[i - 1]
        x[-1] /= pivot[-1]
        for i in range(m - 2, -1, -1):
            x[i] = (x[i] - upper[i] * x[i + 1]) / pivot[i]
        return np.array(x)

    v = tridiagonal(col.tolist())
    schur = sigma - corner - float(row @ v)

    def solve(b: np.ndarray) -> np.ndarray:
        z = tridiagonal(b[1:].tolist())
        x = np.empty(m + 1)
        x[0] = (b[0] + float(row @ z)) / schur
        x[1:] = z + x[0] * v
        return x

    return solve


def rhs(c: np.ndarray, model: CoefficientModel) -> np.ndarray:
    """Time derivative of the truncated system at the state c."""
    return _rhs_core(c, *model.rate_pairs(len(c)))


Key = float | tuple[float, float]  # a moment order k or a stretched pair (alpha, mu)


def weight(key: Key, i: np.ndarray) -> np.ndarray:
    """The tracked weight phi_i of a key: i**k, or exp(alpha * i**mu) for a pair."""
    if isinstance(key, tuple):
        alpha, mu = key
        return np.exp(alpha * i**mu)
    return i**key


@dataclass
class IntegrateOptions:
    """Tolerances, output grid and tracking requests for ``integrate``.

    ``abs_tol`` of 0 selects 1e-14 times the initial density.  The weighted
    sums sum_i weight(key, i) c_i of the keys in ``track`` and (when an
    equilibrium is supplied) the relative free energy are evaluated for all
    snapshots at once, over the snapshot matrix.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 0.0
    t_eval: np.ndarray | None = None
    n_snapshots: int = 201
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD
    track: tuple[Key, ...] = ()
    equilibrium: EquilibriumData | None = None
    fixed_step: float | None = None
    max_steps: int = 2_000_000
    # positivity strategy: with the dead band, magnitudes below abs_tol are
    # zeroed (mass-compensated) so conservation noise cannot pool into a
    # positive floor; without it only negatives in [-abs_tol, 0) are clamped
    dead_band: bool = True


@dataclass
class Trajectory:
    """One run as columns over its output times, plus its bookkeeping.

    ``times`` (S,) and ``states`` (S, N) are read-only.  ``rho``,
    ``free_energy`` (NaN without an equilibrium) and each ``tracked[key]``
    are (S,) columns, in the order of ``IntegrateOptions.track``.
    ``t_stiff`` is when the integrator switched to Rosenbrock steps, None
    if it never did; rejected steps are counted by cause.  ``support`` is
    1 + the last column that is non-zero in any row of ``states`` (every
    column from it on is zero); it is computed from ``states`` when not
    given.
    """

    model: CoefficientModel
    times: np.ndarray
    states: np.ndarray
    rho: np.ndarray
    free_energy: np.ndarray
    tracked: dict[Key, np.ndarray] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    n_steps: int = 0
    n_rejected_error: int = 0
    n_rejected_filter: int = 0
    n_fev: int = 0
    t_stiff: float | None = None
    clamped_mass: float = 0.0
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 0.0
    support: int | None = None

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("snapshot times must be strictly increasing")
        if self.support is None:
            self.support = support_length(self.states)
        self.times.flags.writeable = False
        self.states.flags.writeable = False

    @property
    def n_rejected(self) -> int:
        """Rejected steps: by the error test plus by the positivity filter."""
        return self.n_rejected_error + self.n_rejected_filter

    @property
    def snapshots(self) -> list[ClusterState]:
        """Every output time as a state over its row of ``states``, built on access."""
        return [ClusterState(c, t) for t, c in zip(self.times.tolist(), self.states)]

    def at(self, t: float) -> ClusterState:
        """State at the output time matching t (within grid round-off)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ParameterError(f"no snapshot at t={t}")
        return ClusterState(self.states[idx], float(self.times[idx]))


def integrate(
    state0: ClusterState,
    model: CoefficientModel,
    t_end: float,
    opts: IntegrateOptions | None = None,
) -> Trajectory:
    """Integrate the truncated system from ``state0`` up to ``t_end``.

    Adaptive 5(4) pair with PI step control, and Rosenbrock 4(3) steps
    from the time ``Trajectory.t_stiff`` on, when DOPRI5's stiffness test
    finds the explicit steps at their stability limit (never with
    ``fixed_step``).  Steps producing a component below -abs_tol are
    rejected and halved, and later steps are capped at 0.9 times the
    rejected one, a cap that relaxes by 1 % per accepted step; residual
    negatives in [-abs_tol, 0) are clamped to zero with the (signed)
    clamped mass folded back into the monomer slot, so density is
    preserved exactly.  The snapshot rows come from the integrator's dense
    output and get the same clamp, in one pass over the snapshot matrix
    after the solve.
    """
    opts = opts or IntegrateOptions()
    n = state0.n
    rho0 = density(state0.c)
    abs_tol = opts.abs_tol if opts.abs_tol > 0 else DEFAULT_ABS_TOL_FACTOR * max(rho0, 1e-300)
    a, b_next = model.rate_pairs(n)
    i_grid = np.arange(1, n + 1, dtype=float)

    clamped_total = [0.0]

    # the hooks get the occupied prefix of the state (reach=1: the fluxes
    # couple neighbouring sizes and the monomer only), so rates and sizes
    # are cut to its length
    def f(t: float, y: np.ndarray) -> np.ndarray:
        m = len(y) - 1
        return _rhs_core(y, a[:m], b_next[:m])

    def jacobian(y: np.ndarray, sigma: float):
        m = len(y) - 1
        return _shifted_solver(y, a[:m], b_next[:m], sigma)

    def accept_filter(t: float, y: np.ndarray) -> np.ndarray | None:
        if opts.fixed_step is None and float(y.min()) < -abs_tol:
            return None
        # dead band: magnitudes below abs_tol are numerical zeros; zeroing
        # them (mass folded into the monomer slot) stops conservation noise
        # from pooling into a positive floor that exp-weighted moments amplify
        if opts.dead_band:
            zap = np.abs(y) < abs_tol
            zap[0] = False
            zap |= y < 0
        else:
            zap = y < 0
        if not zap.any():
            return y
        out = y.copy()
        deficit = float(np.dot(i_grid[: len(y)][zap], out[zap]))
        out[zap] = 0.0
        out[0] += deficit
        if out[0] < 0:
            out[0] = 0.0
        clamped_total[0] += abs(deficit)
        return out

    if opts.t_eval is not None:
        t_eval = np.asarray(opts.t_eval, dtype=float)
    else:
        t_eval = np.linspace(state0.t, t_end, opts.n_snapshots)

    sol: RKSolution = solve_rk54(
        f,
        state0.t,
        state0.c,
        t_end,
        rel_tol=opts.rel_tol,
        abs_tol=abs_tol,
        t_eval=t_eval,
        accept_filter=accept_filter,
        fixed_step=opts.fixed_step,
        max_steps=opts.max_steps,
        reach=1,
        jacobian=jacobian,
    )

    states = sol.y_eval
    # the clamp of the accept filter, on every interpolated row at once: past
    # the widest window every row is zero, and exact zeros need no clamp, so
    # only the few entries it zeroes are gathered (no float temporaries the
    # size of the matrix) and each row's deficit is summed along the row
    head = states[:, : sol.stats.w_max]
    zap = head < 0
    if opts.dead_band:
        body = head[:, 1:]
        zap[:, 1:] |= (body > -abs_tol) & (body < abs_tol) & (body != 0)
    rows, cols = np.nonzero(zap)
    deficit = np.bincount(rows, weights=head[rows, cols] * i_grid[cols], minlength=len(head))
    head[rows, cols] = 0.0
    head[:, 0] += deficit
    head[head[:, 0] < 0, 0] = 0.0
    clamped_total[0] += float(np.abs(deficit).sum())
    # columns past the support are zero in every snapshot: they add nothing
    # to a c-weighted sum, so every temporary below is (snapshots, m)
    m = support_length(head)
    head, i = states[:, :m], i_grid[:m]
    if opts.equilibrium is not None:
        free_energy = _free_energy_head(head, opts.equilibrium)
    else:
        free_energy = np.full(len(states), math.nan)
    warnings: list[str] = []
    occupied = np.flatnonzero(states[:, -1] > opts.tail_threshold * rho0 / n)
    if len(occupied):
        tq, c_top = sol.t_eval[occupied[0]], states[occupied[0], -1]
        warnings.append(
            f"truncation tail occupied at t={tq:.6g}: c_N = {c_top:.3g} exceeds "
            f"{opts.tail_threshold:g} * rho / N; the truncation may no longer be faithful"
        )

    return Trajectory(
        model=model,
        times=sol.t_eval,
        states=states,
        rho=(head * i).sum(axis=1),
        free_energy=free_energy,
        tracked={key: (head * weight(key, i)).sum(axis=1) for key in opts.track},
        warnings=warnings,
        n_steps=sol.stats.n_steps,
        n_rejected_error=sol.stats.n_rejected_error,
        n_rejected_filter=sol.stats.n_rejected_filter,
        n_fev=sol.stats.n_fev,
        t_stiff=sol.stats.t_stiff,
        clamped_mass=clamped_total[0],
        support=m,
        rel_tol=opts.rel_tol,
        abs_tol=abs_tol,
    )


def weak_form_residual(trajectory: Trajectory, phi: np.ndarray, t: float) -> float:
    """Residual of the weighted-sum identity at a snapshot time.

    Compares a centered finite difference of sum_i phi_i c_i(t) against
    sum_i w_i (phi_{i+1} - phi_i - phi_1); the difference is O(dt^2) plus
    integrator error.  Needs snapshots on both sides of t.
    """
    phi = np.asarray(phi, dtype=float)
    times = trajectory.times
    idx = int(np.argmin(np.abs(times - t)))
    if idx == 0 or idx == len(times) - 1:
        raise ParameterError("need interior snapshot time for the centered difference")
    c_prev, c_mid, c_next = trajectory.states[idx - 1 : idx + 2]
    n = len(c_mid)
    if len(phi) < n:
        raise ParameterError("weight sequence shorter than the truncation")
    hm = float(times[idx] - times[idx - 1])
    hp = float(times[idx + 1] - times[idx])
    fm = math.fsum(phi[:n] * c_prev)
    f0 = math.fsum(phi[:n] * c_mid)
    fp = math.fsum(phi[:n] * c_next)
    deriv = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / (hm * hp * (hm + hp))
    w = net_rates(c_mid, trajectory.model)
    increments = phi[1:n] - phi[: n - 1] - phi[0]
    weighted = math.fsum(w[: n - 1] * increments)
    return abs(deriv - weighted)
