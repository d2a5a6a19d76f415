"""Tail densities G_j = sum_{i >= j} c_i and moment-equivalence machinery.

A state c and its tail density G are plain float arrays of one length N;
``tail_density`` maps one to the other.  Tail moments of order k are
equivalent to state moments of order k+1 up to a factor k+1, and
stretched-exponential moments of the state are sandwiched between
multiples of the psi-weighted tail sum with computable constants.
The tail evolution is tridiagonal and driven entirely by the monomer
concentration, which is what makes comparison arguments possible.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError


def tail_density(c: np.ndarray) -> np.ndarray:
    """Suffix sums G_j = sum_{i=j}^{N} c_i, accumulated right-to-left.

    A matrix is taken as one state per row and summed along each row; the
    result is non-increasing along the last axis by construction.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c < 0):
        raise ParameterError("concentrations must be non-negative")
    return np.cumsum(c[..., ::-1], axis=-1)[..., ::-1].copy()


class StretchedWeights(NamedTuple):
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
