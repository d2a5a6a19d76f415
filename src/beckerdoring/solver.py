"""Mass-conserving integration of the truncated cluster-kinetics system.

The truncation closes the hierarchy with a zero net rate at the top size
(w_N = 0), which makes sum_i i * dc_i/dt vanish identically, so density is
conserved to round-off by construction.  Faithfulness of the truncation is
monitored: a run whose top concentration grows past a configurable share
of the density is flagged, not trusted silently.

A run is stored as columns over its output times: the (snapshots, N)
state matrix and one column per observable.  The observables (density,
relative free energy and the weighted sums of the tracked keys, a moment
order k or a stretched pair (alpha, mu)) are computed in one pass over the
matrix, trimmed to the states' common support and summed pairwise along
each row in a fixed order; compensated summation is kept only in the
scalar helpers ``density``, ``moment`` and ``stretched_moment``.

A single integration is sequential and deterministic.  Distinct
integrations are independent and may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rk import RKSolution, solve_rk54
from .coefficients import CoefficientModel
from .equilibrium import EquilibriumData, relative_free_energy, support_length
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

    def density(self) -> float:
        return density(self)

    def moment(self, k: float) -> float:
        return moment(self, k)

    def stretched_moment(self, alpha: float, mu: float) -> float:
        return stretched_moment(self, alpha, mu)


def density(state: ClusterState | np.ndarray) -> float:
    """Mass density sum_i i c_i (compensated summation)."""
    c = state.c if isinstance(state, ClusterState) else np.asarray(state, float)
    i = np.arange(1, len(c) + 1, dtype=float)
    return math.fsum(i * c)


def moment(state: ClusterState | np.ndarray, k: float) -> float:
    """Algebraic moment sum_i i^k c_i."""
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    c = state.c if isinstance(state, ClusterState) else np.asarray(state, float)
    i = np.arange(1, len(c) + 1, dtype=float)
    return math.fsum(i**k * c)


def stretched_moment(state: ClusterState | np.ndarray, alpha: float, mu: float) -> float:
    """Stretched-exponential moment sum_i exp(alpha i^mu) c_i."""
    if alpha <= 0 or not (0 < mu < 1):
        raise ParameterError("need alpha > 0 and 0 < mu < 1")
    c = state.c if isinstance(state, ClusterState) else np.asarray(state, float)
    i = np.arange(1, len(c) + 1, dtype=float)
    return math.fsum(np.exp(alpha * i**mu) * c)


def net_rates(state: ClusterState, model: CoefficientModel) -> np.ndarray:
    """Net reaction rates w_i = a_i c_1 c_i - b_{i+1} c_{i+1}, with w_N = 0."""
    w = np.zeros(state.n)
    w[:-1] = _flux(state.c, *model.rate_pairs(state.n))
    return w


def _flux(c: np.ndarray, a: np.ndarray, b_next: np.ndarray) -> np.ndarray:
    return a * c[0] * c[:-1] - b_next * c[1:]


def _rhs_core(c: np.ndarray, a: np.ndarray, b_next: np.ndarray) -> np.ndarray:
    w = _flux(c, a, b_next)
    dc = np.empty_like(c)
    dc[1:-1] = w[:-1] - w[1:]
    dc[-1] = w[-1]
    dc[0] = -w[0] - np.sum(w)
    return dc


def rhs(state: ClusterState, model: CoefficientModel) -> np.ndarray:
    """Time derivative of the truncated system at the given state."""
    return _rhs_core(state.c, *model.rate_pairs(state.n))


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
    """

    model: CoefficientModel
    times: np.ndarray
    states: np.ndarray
    rho: np.ndarray
    free_energy: np.ndarray
    tracked: dict[Key, np.ndarray] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0
    n_fev: int = 0
    clamped_mass: float = 0.0
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 0.0

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("snapshot times must be strictly increasing")
        self.times.flags.writeable = False
        self.states.flags.writeable = False

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

    Adaptive 5(4) pair with PI step control.  Steps producing a component
    below -abs_tol are rejected and halved; residual negatives in
    [-abs_tol, 0) are clamped to zero with the (signed) clamped mass folded
    back into the monomer slot, so density is preserved exactly.
    """
    opts = opts or IntegrateOptions()
    n = state0.n
    rho0 = density(state0)
    abs_tol = opts.abs_tol if opts.abs_tol > 0 else DEFAULT_ABS_TOL_FACTOR * max(rho0, 1e-300)
    a, b_next = model.rate_pairs(n)
    i_grid = np.arange(1, n + 1, dtype=float)

    clamped_total = [0.0]

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return _rhs_core(y, a, b_next)

    def clamp(y: np.ndarray, allow_reject: bool) -> np.ndarray | None:
        if allow_reject and float(np.min(y)) < -abs_tol:
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
        if not np.any(zap):
            return y
        out = y.copy()
        deficit = float(np.dot(i_grid[zap], out[zap]))
        out[zap] = 0.0
        out[0] += deficit
        if out[0] < 0:
            out[0] = 0.0
        clamped_total[0] += abs(deficit)
        return out

    def accept_filter(t: float, y: np.ndarray) -> np.ndarray | None:
        return clamp(y, allow_reject=opts.fixed_step is None)

    def snapshot_transform(y: np.ndarray) -> np.ndarray:
        out = clamp(y, allow_reject=False)
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
        snapshot_transform=snapshot_transform,
        fixed_step=opts.fixed_step,
        max_steps=opts.max_steps,
    )

    states = sol.y_eval
    # columns past the support are zero in every snapshot: they add nothing
    # to a c-weighted sum, so every temporary below is (snapshots, m)
    m = support_length(states)
    head, i = states[:, :m], i_grid[:m]
    if opts.equilibrium is not None:
        free_energy = relative_free_energy(states, opts.equilibrium)
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
        n_rejected=sol.stats.n_rejected_error + sol.stats.n_rejected_filter,
        n_fev=sol.stats.n_fev,
        clamped_mass=clamped_total[0],
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
    w = net_rates(ClusterState(c_mid), trajectory.model)
    increments = phi[1:n] - phi[: n - 1] - phi[0]
    weighted = math.fsum(w[: n - 1] * increments)
    return abs(deriv - weighted)
