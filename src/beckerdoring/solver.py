"""Mass-conserving integration of the truncated cluster-kinetics system.

The truncation closes the hierarchy with a zero net rate at the top size
(w_N = 0), which makes sum_i i * dc_i/dt vanish identically, so density is
conserved to round-off by construction.  Faithfulness of the truncation is
monitored: a run whose top concentration grows past a configurable share
of the density is flagged, not trusted silently.  The integration is
adaptive only: DP5(4) steps, then Rosenbrock 4(3) steps from the first
step that is stiff or at its positivity limit.

One evaluation of the right-hand side makes at most one more size
non-zero, because the fluxes couple only neighbouring sizes and the
monomer.  ``integrate`` tells the integrator so (``reach=1``), and every
step runs on the occupied prefix of the state, min(N, support + 8)
entries, not on all N: from monodisperse data the dead band of the
positivity clamp keeps the support a few dozen sizes long at any N.  An
explicit step there is the full system's up to summation order, with the
same step control and counts.

On a window of a few dozen entries a numpy call costs the same whatever
its length, so the right-hand side counts its calls: the fluxes w, then
their balance dc as one matrix-vector product B w with the +-1 balance
matrix (``_balance_matrix``), built once per ``integrate`` at width
min(N, 64).  Its products are exact, so every row but the monomer's is
one rounding of w_{i-1} - w_i, the bits of ``_balance``; the monomer row
-w_1 - sum_i w_i is summed in the BLAS kernel's order.  The cap keeps B
small (64 x 63) and the product below the size at which OpenBLAS splits a
gemv across threads, so the bits do not depend on the thread count.  A
window wider than 64 takes ``_balance``, as does the Jacobian's column.

Near equilibrium the explicit steps sit at their stability limit, so
``integrate`` also hands the integrator the Jacobian: tridiagonal plus a
dense monomer row and column, factored per step in O(window) (a Thomas
sweep, then the Schur complement on c_1).  From the first explicit step
that DOPRI5's stiffness test reads as stiff or the positivity filter vetoes,
the run takes Rosenbrock steps.  Their solves fill the window, so an
implicit step is the step of the system truncated to the window, widened
while its last entry is not below abs_tol; on the template configs it is
within 1e-13 of the full-width run, with the same counts.  With the
exact Jacobian i J = 0, so every implicit stage conserves mass too.

The positivity clamp (``_clamp`` states its rule; ``abs_tol`` is also
the width of its dead band) is applied to every accepted step and, once
after the solve, to every output row.  A run is stored as columns over
its output times: the state matrix, filled from the integrator's dense
output a batch of rows per accepted step, and one column per observable.
The matrix holds only the occupied head of each state: the integrator
stores the columns its widest window reached, and the ``Trajectory``
keeps the (snapshots, support) head of the clamped matrix, support being
1 + its last non-zero column; every column past it is zero in every row
and is not stored.  The observables (density, relative free energy and
the weighted sums of the tracked keys, a moment order k or a stretched
pair (alpha, mu)) are computed in one pass over the head, summed
pairwise along each row in a fixed order.  The scalar ``density`` of
one state is correctly rounded: ``equilibrium.fsum_array`` of its
length-N array.

A state is a plain float array c_1..c_N everywhere, from ``integrate``'s
initial state to ``Trajectory.at``'s row, which pads the stored head
with zeros to length N; ``density`` takes the array.

A single integration is sequential and deterministic.  Distinct
integrations are independent and may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rk import RKSolution, solve_rk54
from .coefficients import CoefficientModel
from .equilibrium import EquilibriumData, _free_energy_head, fsum_array, row_supports
from .equilibrium import relative_free_energy  # noqa: F401 (bench/tracing.py wraps it by this name)
from .errors import ParameterError

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL_FACTOR = 1e-14  # times the density
DEFAULT_TAIL_THRESHOLD = 1e-6  # c_N above this share of rho/N draws the truncation warning


@dataclass
class ClusterState:
    """A stored head row c of ``Trajectory.states`` and its output time t."""

    c: np.ndarray
    t: float


def density(c: np.ndarray) -> float:
    """Mass density sum_i i c_i, correctly rounded."""
    return fsum_array(np.arange(1, len(c) + 1, dtype=float) * c)


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


_GEMV_WIDTH = 64  # the widest window whose balance is one matrix-vector product


def _balance_matrix(width: int) -> np.ndarray:
    """The (width, width - 1) matrix B of ``_balance``: for fluxes w of any
    length m < width, B[:m + 1, :m] @ w is _balance(w).

    Row 1 is -2, -1, -1, ..., row i > 1 holds +1 at w_{i-1} and -1 at w_i.
    Every product is exact, so each row past the monomer's is one rounding
    of w_{i-1} - w_i, the bits of ``_balance``; only the monomer row's sum
    is in the BLAS kernel's order.
    """
    bal = np.zeros((width, width - 1))
    j = np.arange(width - 1)
    bal[j, j] = -1.0
    bal[j + 1, j] = 1.0
    bal[0] -= 1.0
    return bal


def _windowed_rhs(a: np.ndarray, b_next: np.ndarray, n: int):
    """``integrate``'s right-hand side f(t, y) of a state's occupied prefix y
    (reach=1: the fluxes couple neighbouring sizes and the monomer only),
    with rates a_1..a_{N-1}, b_2..b_N of a truncation at N = n.

    A prefix of at most ``_GEMV_WIDTH`` entries gets its balance as one
    product with ``_balance_matrix``; a wider one from ``_balance``.
    """
    width = min(n, _GEMV_WIDTH)
    balance = _balance_matrix(width)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        m = len(y) - 1
        w = _flux(y, a[:m], b_next[:m])
        return balance[: m + 1, :m] @ w if m < width else _balance(w)

    return f


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


def _clamp(c: np.ndarray, i: np.ndarray, abs_tol: float) -> np.ndarray:
    """The positivity clamp, in place on a state c or on each row of a
    matrix of states; returns the mass moved into the monomer, per row.

    Past the monomer every entry below ``abs_tol`` is zeroed: the negatives
    and the dead band [0, abs_tol), magnitudes too small to be anything but
    conservation noise, which would otherwise pool into a positive floor
    that exp-weighted moments amplify.  Their mass sum_i i c_i (``i`` the
    sizes of c's columns) is added to c_1, which keeps the density, and c_1
    is floored at 0.  Every row is clamped with the same arithmetic, so a
    matrix gets the bits of its rows clamped one at a time.
    """
    body = c[..., 1:]
    moved = np.where(body < abs_tol, body, 0.0)
    deficit = (moved * i[1:]).sum(axis=-1)
    body -= moved
    c[..., 0] = np.maximum(c[..., 0] + deficit, 0.0)
    return deficit


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

    ``abs_tol`` of 0 selects 1e-14 times the initial density, the value the
    experiment pipeline always runs with; it is the error test's absolute
    tolerance and the dead band of the positivity clamp (see ``_clamp``).
    The weighted sums sum_i weight(key, i) c_i of the keys in ``track`` and
    (when an equilibrium is supplied) the relative free energy are
    evaluated for all snapshots at once, over the snapshot matrix.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 0.0
    t_eval: np.ndarray | None = None
    n_snapshots: int = 201
    track: tuple[Key, ...] = ()
    equilibrium: EquilibriumData | None = None
    max_steps: int = 2_000_000


@dataclass
class Trajectory:
    """One run as columns over its output times, plus its bookkeeping.

    ``times`` (S,), ``states`` (S, support) and ``supports`` (S,), each
    row's support (1 + its last non-zero column, found once for every
    per-row sum), are read-only.  ``states`` is the occupied head of the
    run's (S, N) state matrix: ``support`` = states.shape[1], the largest
    row support; the zero columns past it are not stored.  ``supports`` and
    ``n`` = N are computed from the ``states`` given when not given, and a
    wider ``states`` is trimmed; ``at`` pads a row back to length N.  ``rho``,
    ``free_energy`` (NaN without an equilibrium) and each ``tracked[key]``
    are (S,) columns, in the order of ``IntegrateOptions.track``.
    ``t_stiff`` is when the integrator switched to Rosenbrock steps (at
    the first stiff step or positivity veto), None if it never did;
    rejected steps are counted by cause.  ``abs_tol`` is the absolute
    tolerance the run used, its default resolved.
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
    abs_tol: float = 0.0
    supports: np.ndarray | None = None
    n: int | None = None

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("snapshot times must be strictly increasing")
        if self.n is None:
            self.n = self.states.shape[1]
        if self.supports is None:
            self.supports = row_supports(self.states)
        self.states = self.states[:, : self.supports.max(initial=0)]
        self.support = self.states.shape[1]
        for column in (self.times, self.states, self.supports):
            column.flags.writeable = False

    @property
    def n_rejected(self) -> int:
        """Rejected steps: by the error test plus by the positivity filter."""
        return self.n_rejected_error + self.n_rejected_filter

    @property
    def snapshots(self) -> list[ClusterState]:
        """Every output time as a state over its stored head row of
        ``states`` (not padded to N), built on access."""
        return [ClusterState(c, t) for t, c in zip(self.times.tolist(), self.states)]

    def at(self, t: float) -> np.ndarray:
        """The state at the output time matching t (within grid round-off):
        a read-only length-N copy, its row of ``states`` followed by zeros."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ParameterError(f"no snapshot at t={t}")
        row = np.zeros(self.n)
        row[: self.support] = self.states[idx]
        row.flags.writeable = False
        return row


def integrate(
    c0: np.ndarray,
    model: CoefficientModel,
    t_end: float,
    opts: IntegrateOptions | None = None,
) -> Trajectory:
    """Integrate the truncated system from c(0) = ``c0`` up to ``t_end``.

    Adaptive 5(4) pair with PI step control, and Rosenbrock 4(3) steps
    from the time ``Trajectory.t_stiff`` on, when DOPRI5's stiffness test
    finds an explicit step at its stability limit or a positivity veto
    finds one at the filter's limit, whichever comes first; every step
    is adaptive.  Steps producing a component below -abs_tol are rejected
    and halved.  Every accepted step gets the positivity clamp
    (``_clamp``; abs_tol is its dead band), and so do the rows of the
    integrator's dense output, in one pass over the snapshot matrix after
    the solve.  ``c0`` must hold at least two sizes, finite and
    non-negative.
    """
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 1 or len(c0) < 2:
        raise ParameterError("state needs at least two cluster sizes")
    if np.any(c0 < 0):
        raise ParameterError("concentrations must be non-negative")
    opts = opts or IntegrateOptions()
    n = len(c0)
    rho0 = density(c0)
    abs_tol = opts.abs_tol if opts.abs_tol > 0 else DEFAULT_ABS_TOL_FACTOR * max(rho0, 1e-300)
    a, b_next = model.rate_pairs(n)
    i_grid = np.arange(1, n + 1, dtype=float)

    clamped = 0.0  # mass the clamp moved, summed in magnitude

    # the hooks get the occupied prefix of the state, so rates and sizes
    # are cut to its length
    f = _windowed_rhs(a, b_next, n)

    def jacobian(y: np.ndarray, sigma: float):
        m = len(y) - 1
        return _shifted_solver(y, a[:m], b_next[:m], sigma)

    def accept_filter(t: float, y: np.ndarray) -> np.ndarray | None:
        nonlocal clamped
        if float(y.min()) < -abs_tol:
            return None
        if y[0] >= 0 and float(y[1:].min()) >= abs_tol:
            return y  # nothing to clamp: the integrator may reuse its last stage
        out = y.copy()
        clamped += abs(float(_clamp(out, i_grid[: len(y)], abs_tol)))
        return out

    if opts.t_eval is not None:
        t_eval = np.asarray(opts.t_eval, dtype=float)
    else:
        t_eval = np.linspace(0.0, t_end, opts.n_snapshots)

    sol: RKSolution = solve_rk54(
        f,
        0.0,
        c0,
        t_end,
        rel_tol=opts.rel_tol,
        abs_tol=abs_tol,
        t_eval=t_eval,
        accept_filter=accept_filter,
        max_steps=opts.max_steps,
        reach=1,
        jacobian=jacobian,
    )

    # y_eval holds the columns up to the widest window, the rest being zero
    states = sol.y_eval
    clamped += float(np.abs(_clamp(states, i_grid[: states.shape[1]], abs_tol)).sum())
    # columns past the support are zero in every snapshot: they add nothing
    # to a c-weighted sum, so every temporary below is (snapshots, m)
    supports = row_supports(states)
    m = int(supports.max(initial=0))
    head, i = states[:, :m], i_grid[:m]
    if opts.equilibrium is not None:
        free_energy = _free_energy_head(head, supports, opts.equilibrium)
    else:
        free_energy = np.full(len(states), math.nan)
    warnings: list[str] = []
    # c_N is zero in every snapshot unless the support reaches N
    occupied = np.flatnonzero(head[:, -1] > DEFAULT_TAIL_THRESHOLD * rho0 / n) if m == n else []
    if len(occupied):
        tq, c_top = sol.t_eval[occupied[0]], head[occupied[0], -1]
        warnings.append(
            f"truncation tail occupied at t={tq:.6g}: c_N = {c_top:.3g} exceeds "
            f"{DEFAULT_TAIL_THRESHOLD:g} * rho / N; the truncation may no longer be faithful"
        )

    return Trajectory(
        model=model,
        times=sol.t_eval,
        states=head,
        rho=(head * i).sum(axis=1),
        free_energy=free_energy,
        tracked={key: (head * weight(key, i)).sum(axis=1) for key in opts.track},
        warnings=warnings,
        n_steps=sol.stats.n_steps,
        n_rejected_error=sol.stats.n_rejected_error,
        n_rejected_filter=sol.stats.n_rejected_filter,
        n_fev=sol.stats.n_fev,
        t_stiff=sol.stats.t_stiff,
        clamped_mass=clamped,
        supports=supports,
        n=n,
        abs_tol=abs_tol,
    )
