"""Reference computations the tests check the pipeline against.

No command or stage of ``beckerdoring`` runs these: they recompute the
pipeline's arithmetic from a second direction (scalar moments and fluxes of
one state, the tail evolution, the weak form of the system, the stretched
sandwich bounds, the monomer-activity series at one z and the activity's
bisection solve, the balance check of a dominating sequence read from every
row of r, and a Metzler-matrix sign-preservation checker for the comparison
principle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from beckerdoring._rk import solve_rk54
from beckerdoring.coefficients import CoefficientModel
from beckerdoring.equilibrium import (
    _N_CAP, CriticalValues, _LogQPrefix, _series_at_activity, check_subcritical, fsum_array,
)
from beckerdoring.errors import NumericalError, ParameterError
from beckerdoring.solver import Trajectory, _flux, _rhs_core
from beckerdoring.supersolution import SupersolutionCheck
from beckerdoring.tails import StretchedWeights, tail_density

DEFAULT_SIGN_TOL = 1e-9
SIGN_CHECK_OUTPUTS = 50  # output times at which the sign of u is checked


# -- solver: one state's moments, fluxes and weak form ------------------------


def moment(c: np.ndarray, k: float) -> float:
    """Algebraic moment sum_i i^k c_i."""
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    i = np.arange(1, len(c) + 1, dtype=float)
    return fsum_array(i**k * c)


def stretched_moment(c: np.ndarray, alpha: float, mu: float) -> float:
    """Stretched-exponential moment sum_i exp(alpha i^mu) c_i."""
    if alpha <= 0 or not (0 < mu < 1):
        raise ParameterError("need alpha > 0 and 0 < mu < 1")
    i = np.arange(1, len(c) + 1, dtype=float)
    return fsum_array(np.exp(alpha * i**mu) * c)


def net_rates(c: np.ndarray, model: CoefficientModel) -> np.ndarray:
    """Net reaction rates w_i = a_i c_1 c_i - b_{i+1} c_{i+1}, with w_N = 0."""
    w = np.zeros(len(c))
    w[:-1] = _flux(c, *model.rate_pairs(len(c)))
    return w


def rhs(c: np.ndarray, model: CoefficientModel) -> np.ndarray:
    """Time derivative of the truncated system at the state c."""
    return _rhs_core(c, *model.rate_pairs(len(c)))


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
    # full rows: net_rates of a head row would drop its last flux
    c_prev, c_mid, c_next = (trajectory.at(s) for s in times[idx - 1 : idx + 2].tolist())
    n = len(c_mid)
    if len(phi) < n:
        raise ParameterError("weight sequence shorter than the truncation")
    hm = float(times[idx] - times[idx - 1])
    hp = float(times[idx + 1] - times[idx])
    fm = fsum_array(phi[:n] * c_prev)
    f0 = fsum_array(phi[:n] * c_mid)
    fp = fsum_array(phi[:n] * c_next)
    deriv = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / (hm * hp * (hm + hp))
    w = net_rates(c_mid, trajectory.model)
    increments = phi[1:n] - phi[: n - 1] - phi[0]
    weighted = fsum_array(w[: n - 1] * increments)
    return abs(deriv - weighted)


# -- equilibrium: the series F(z) at one activity -----------------------------


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
    be treated as +inf by callers that bracket.  Each truncation n holds
    log Q_1..Q_n and one length-n array of terms.
    """
    return _series_at_activity(_LogQPrefix(model), z, tol_abs, n_start, n_cap)[:2]


def bisect_monomer_activity(
    model: CoefficientModel,
    rho: float,
    tol: float = 1e-12,
    *,
    critical: CriticalValues,
    log_q_prefix: _LogQPrefix | None = None,
) -> float:
    """Solve F(z_bar) = rho by bisection on [0, z_s): the reference for
    ``equilibrium.solve_monomer_activity``'s Newton iteration.

    The upper bracket starts at 0.999 z_s and creeps toward z_s while F
    there is still below rho; a truncation that does not converge reads as
    F = inf.  Stops at |F(z) - rho| <= tol rho, with the solve's refusals.
    """
    if rho <= 0:
        raise ParameterError("density must be positive")
    log_q_prefix = log_q_prefix or _LogQPrefix(model)
    check_subcritical(model, rho, log_q_prefix)
    tol_series = tol * rho / 10.0

    def f(z: float) -> float:
        value, converged, _ = _series_at_activity(log_q_prefix, z, tol_series)
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


# -- supersolution: the balance check on every row ----------------------------


def verify_supersolution(
    r: np.ndarray,
    model: CoefficientModel,
    omega: float,
    rho: float,
    tol: float,
) -> SupersolutionCheck:
    """Check r_1 >= rho - tol and the balance inequality on 2 <= j <= N-1.

    Each row is allowed slack tol * (a_{j-1} omega r_{j-1} + b_j r_j), the
    natural magnitude of the two competing fluxes.  Every row is read from
    r, the subnormal floor of its geometric continuation included.
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


# -- tails: the tail evolution and the stretched sandwich ---------------------


@dataclass(frozen=True)
class SandwichReport:
    """Both sides of the two-sided bound; negative margin = violation."""

    value: float
    weighted_tail_sum: float
    lower_margin: float  # value - eta1 * sum
    upper_margin: float  # eta2 * sum - value


def stretched_sandwich_check(c: np.ndarray, weights: StretchedWeights) -> SandwichReport:
    """Evaluate sum_i exp(alpha i^mu) c_i against the psi-weighted tail sums."""
    n = len(c)
    i = np.arange(1, n + 1, dtype=float)
    value = fsum_array(np.exp(weights.alpha * i**weights.mu) * c)
    s = fsum_array(weights.psi(n) * tail_density(c))
    return SandwichReport(
        value=value,
        weighted_tail_sum=s,
        lower_margin=value - weights.eta1 * s,
        upper_margin=weights.eta2 * s - value,
    )


def tail_rhs(g: np.ndarray, c1: float, model: CoefficientModel) -> np.ndarray:
    """Time derivative of the tail entries G_2..G_{N-1}.

    Entry for index j is a_{j-1} c1 (G_{j-1} - G_j) + b_j (G_{j+1} - G_j).
    The j = 1 line needs no tracking here: G_1 is controlled by the mass
    constraint, and the comparison machinery only uses j >= 2.
    """
    n = len(g)
    if n < 3:
        raise ParameterError("tail derivative needs length >= 3")
    a_prev, b_j = model.rate_pairs(n - 1)
    return a_prev * c1 * (g[:-2] - g[1:-1]) + b_j * (g[2:] - g[1:-1])


# -- maximum principle: sign preservation for Metzler systems -----------------
#
# A matrix with non-negative off-diagonal entries generates a flow that
# preserves the non-positive orthant; for the tail comparison this means a
# dominating sequence at one time stays dominating while the monomer
# concentration remains capped.  Here the finite-dimensional principle is
# checked numerically on instances, never proved.


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
