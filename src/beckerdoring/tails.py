"""Tail densities G_j = sum_{i >= j} c_i and moment-equivalence machinery.

Tail moments of order k are equivalent to state moments of order k+1 up to
a factor k+1, and stretched-exponential moments of the state are sandwiched
between multiples of the psi-weighted tail sum with computable constants.
The tail evolution is tridiagonal and driven entirely by the monomer
concentration, which is what makes comparison arguments possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel
from .errors import ParameterError
from .solver import ClusterState


@dataclass(frozen=True, eq=False)
class TailDensity:
    """Suffix sums of a non-negative state, or of each row of a state matrix;
    non-increasing along the last axis by construction."""

    g: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def moment(self, k: float) -> float:
        return tail_moment(self, k)


def tail_density(c: np.ndarray | ClusterState) -> TailDensity:
    """Suffix sums G_j = sum_{i=j}^{N} c_i, accumulated right-to-left.

    A matrix is taken as one state per row and summed along each row.
    """
    if isinstance(c, ClusterState):
        c = c.c
    c = np.asarray(c, dtype=float)
    if np.any(c < 0):
        raise ParameterError("concentrations must be non-negative")
    g = np.cumsum(c[..., ::-1], axis=-1)[..., ::-1].copy()
    return TailDensity(g=g)


def tail_moment(g: TailDensity | np.ndarray, k: float) -> float:
    """Weighted tail sum sum_j j^k G_j."""
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    gv = g.g if isinstance(g, TailDensity) else np.asarray(g, float)
    j = np.arange(1, len(gv) + 1, dtype=float)
    return math.fsum(j**k * gv)


@dataclass(frozen=True)
class StretchedWeights:
    """Weights psi_j = j^(mu-1) exp(alpha j^mu) with sandwich constants.

    eta2 = max(1, 2^(1-mu) alpha mu); eta1 = min(1, alpha mu inf_j
    exp(alpha ((j-1)^mu - j^mu))), the infimum over j >= 2 sitting at j = 2
    because the exponent increases toward 0.
    """

    alpha: float
    mu: float
    eta1: float
    eta2: float

    def psi(self, n: int) -> np.ndarray:
        j = np.arange(1, n + 1, dtype=float)
        return j ** (self.mu - 1.0) * np.exp(self.alpha * j**self.mu)


def stretched_weights(alpha: float, mu: float) -> StretchedWeights:
    """Build the psi-weights and their two-sided comparison constants."""
    if alpha <= 0 or not (0 < mu < 1):
        raise ParameterError("need alpha > 0 and 0 < mu < 1")
    eta2 = max(1.0, 2 ** (1.0 - mu) * alpha * mu)
    c_low = alpha * mu * math.exp(alpha * (1.0 - 2.0**mu))
    eta1 = min(1.0, c_low)
    return StretchedWeights(alpha=alpha, mu=mu, eta1=eta1, eta2=eta2)


def finite_weight_size(alpha: float, mu: float, n: int) -> int:
    """Largest size m <= n whose weight exp(alpha m^mu) is finite in float64."""

    def finite(m: int) -> bool:
        with np.errstate(over="ignore"):
            return bool(np.isfinite(np.exp(alpha * float(m) ** mu)))

    if finite(n):
        return n
    m = min(n, int((math.log(np.finfo(float).max) / alpha) ** (1.0 / mu)))
    while not finite(m):
        m -= 1
    while finite(m + 1):
        m += 1
    return m


@dataclass(frozen=True)
class SandwichReport:
    """Both sides of the two-sided bound; negative margin = violation."""

    value: float
    weighted_tail_sum: float
    lower_margin: float  # value - eta1 * sum
    upper_margin: float  # eta2 * sum - value


def stretched_sandwich_check(c: np.ndarray | ClusterState, weights: StretchedWeights) -> SandwichReport:
    """Evaluate sum_i exp(alpha i^mu) c_i against the psi-weighted tail sums."""
    if isinstance(c, ClusterState):
        c = c.c
    c = np.asarray(c, dtype=float)
    n = len(c)
    i = np.arange(1, n + 1, dtype=float)
    value = math.fsum(np.exp(weights.alpha * i**weights.mu) * c)
    g = tail_density(c)
    s = math.fsum(weights.psi(n) * g.g)
    return SandwichReport(
        value=value,
        weighted_tail_sum=s,
        lower_margin=value - weights.eta1 * s,
        upper_margin=weights.eta2 * s - value,
    )


def tail_rhs(g: TailDensity | np.ndarray, c1: float, model: CoefficientModel) -> np.ndarray:
    """Time derivative of the tail entries G_2..G_{N-1}.

    Entry for index j is a_{j-1} c1 (G_{j-1} - G_j) + b_j (G_{j+1} - G_j).
    The j = 1 line needs no tracking here: G_1 is controlled by the mass
    constraint, and the comparison machinery only uses j >= 2.
    """
    gv = g.g if isinstance(g, TailDensity) else np.asarray(g, float)
    n = len(gv)
    if n < 3:
        raise ParameterError("tail derivative needs length >= 3")
    a_prev, b_j = model.rate_pairs(n - 1)
    return a_prev * c1 * (gv[:-2] - gv[1:-1]) + b_j * (gv[2:] - gv[1:-1])
