"""Coagulation/fragmentation rate families and their detailed-balance data.

Rates are evaluated from closed-form expressions (or a user table for the
custom family), each family's a_i and b_i written once, in
``CoefficientModel.a`` and ``b``.  Every consumer reads them as they are;
only log Q is kept in log space, its increments log(a_i / b_{i+1}).  A
model whose rates overflow is refused with ``ParameterError`` when it is
built: a formula's sup of b_i/a_i, or a table's b_i/a_i or a_i/b_{i+1},
is not finite.

The rates are elementwise in i and log Q_i is a running sum of its
increments, so a shorter sequence is the first entries of a longer one, bit
for bit.  Each sequence is evaluated once and sliced by its consumers:

- the flux rates (a_{j-1}, b_j) are kept on the model by ``rate_pairs`` at
  the largest n asked for so far, as read-only arrays that the solver, the
  supersolution and the short-time bound slice;
- the detailed-balance prefix log Q_i is the array ``detailed_balance``
  returns, kept for the length of one preamble only by
  ``equilibrium._LogQPrefix``, at the longest truncation a preamble step
  asked for: its entries are not kept on the model.

The long sequences of a preamble (log Q, and the terms of F(z) in
``equilibrium``) are evaluated ``_BLOCK`` indices at a time into one
preallocated output.  Each step is elementwise, so every entry has the bits
of the one-shot expression, and what is held at once is the output plus a
few block-length temporaries, not one temporary per step at full length.

z_s is a model's stated ``z_s_param``; ``equilibrium.critical_values``
reads rho_s's partial sum L at it from log Q, once per preamble, over a
formula family's first terms until the rest no longer move it.  A formula
family's root-test z_s, which the activity bracket, omega and lambda still
read, is the mean of the increments ``log_q_increments`` over the 10^4
indices below 10^5, evaluated there alone.

All evaluations are pure functions of (model, i) and safe to share across
workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ParameterError

_EVAL_RANGE = 10_000  # default range scanned when estimating sup-type constants
_BLOCK = 8192  # indices of a long sequence evaluated at once
RATIO_TOL = 1e-2  # the ratio check's relative slack on Q_{i+1}/Q_i -> 1/z_s


def index_blocks(start: int, stop: int):
    """The ranges (lo, hi) of at most ``_BLOCK`` indices that cover start..stop-1."""
    return ((lo, min(lo + _BLOCK, stop)) for lo in range(start, stop, _BLOCK))


class Family(str, Enum):
    POWER_LAW = "power_law"
    EXPONENTIAL_TAIL = "exponential_tail"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class CoefficientModel:
    """A coagulation/fragmentation rate pair a_i, b_i.

    ``gamma`` is the coagulation growth exponent; ``z_s_param`` the limit
    z_s of b_i/a_i, positive and finite: a formula fixes it, and a rate
    table declares it, since no finite table fixes a limit.  ``b_bar`` is
    sup_i b_i/a_i over the evaluated range.  b_1 never enters the dynamics,
    so any family may set it to 0; its log ratio is then -inf and it never
    attains the sup.
    """

    family: Family
    gamma: float
    z_s_param: float
    q: float | None = None
    mu_c: float | None = None
    sigma: float | None = None
    b_bar: float = 0.0
    a_table: np.ndarray | None = field(default=None, repr=False)
    b_table: np.ndarray | None = field(default=None, repr=False)
    # "pairs": rate_pairs' (n, a_1..a_{n-1}, b_2..b_n), the arrays read-only
    _rate_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def table_length(self) -> int | None:
        """Largest evaluable index for tabulated rates, None for formulas."""
        return len(self.a_table) if self.a_table is not None else None

    # -- rate evaluation ---------------------------------------------------

    def a(self, i):
        """Coagulation rate a_i, vectorized over integer arrays."""
        i = np.asarray(i, dtype=float)
        self._check_range(i)
        if self.family is Family.CUSTOM:
            out = self.a_table[np.asarray(i, dtype=int) - 1]
        else:
            out = i**self.gamma
        return float(out) if out.ndim == 0 else out

    def b(self, i):
        """Fragmentation rate b_i, vectorized over integer arrays."""
        i = np.asarray(i, dtype=float)
        self._check_range(i)
        if self.family is Family.CUSTOM:
            out = self.b_table[np.asarray(i, dtype=int) - 1]
        elif self.family is Family.POWER_LAW:
            out = i**self.gamma * (self.z_s_param + self.q * i ** (self.mu_c - 1.0))
        else:
            im1 = i - 1.0  # 0**gamma = 0 gives b_1 = 0
            out = self.z_s_param * im1**self.gamma * np.exp(self.sigma * (i**self.mu_c - im1**self.mu_c))
        return float(out) if out.ndim == 0 else out

    def rate_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The flux rates (a_{j-1}, b_j) for j = 2..n, as two read-only arrays.

        Both are evaluated once, at the largest n asked for so far, and every
        call returns slices of them: the same bits as evaluating at n.
        """
        table = self._rate_table.get("pairs")
        if table is None or table[0] < n:
            a, b = self.a(np.arange(1, n, dtype=float)), self.b(np.arange(2, n + 1, dtype=float))
            a.flags.writeable = b.flags.writeable = False
            table = self._rate_table["pairs"] = (n, a, b)  # one store: a reader sees n with its arrays
        _, a, b = table
        m = max(n - 1, 0)
        return a[:m], b[:m]

    def _check_range(self, i) -> None:
        if np.any(i < 1):
            raise ParameterError("cluster sizes are 1-based")
        if self.family is Family.CUSTOM and np.any(i > len(self.a_table)):
            raise ParameterError(
                f"index beyond the tabulated range (table length {len(self.a_table)})"
            )


def _sup_ratio_b_over_a(model: CoefficientModel, n_eval: int) -> float:
    i = np.arange(1, n_eval + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # _with_b_bar refuses an overflow
        ratio = model.b(i) / model.a(i)
    return max(float(np.max(ratio)), model.z_s_param)  # z_s: the limit of b_i/a_i


def _with_b_bar(model: CoefficientModel, b_bar: float) -> CoefficientModel:
    """``model`` with its sup of b_i/a_i, refused when that is not finite:
    its rates overflow, so no detailed balance or trajectory can be built."""
    if not math.isfinite(b_bar):
        params = {"gamma": model.gamma, "z_s": model.z_s_param, "q": model.q, "sigma": model.sigma, "mu_c": model.mu_c}
        named = ", ".join(f"{k}={v!r}" for k, v in params.items() if v is not None)
        raise ParameterError(f"{model.family.value} rates overflow at {named}: sup b_i/a_i is {b_bar!r}")
    object.__setattr__(model, "b_bar", b_bar)
    return model


def make_power_law_model(gamma: float, z_s: float, q: float, mu_c: float) -> CoefficientModel:
    """Rates a_i = i^gamma, b_i = a_i (z_s + q i^(mu_c - 1)).

    Requires 0 < gamma <= 1, z_s > 0, q > 0, 0 < mu_c < 1.  The ratio
    b_i/a_i = z_s + q i^(mu_c-1) is largest at i = 1, so b_bar = z_s + q.
    """
    if not (0 < gamma <= 1):
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    if z_s <= 0 or q <= 0:
        raise ParameterError("z_s and q must be positive")
    if not (0 < mu_c < 1):
        raise ParameterError(f"mu_c must be in (0, 1), got {mu_c}")
    return _with_b_bar(CoefficientModel(Family.POWER_LAW, gamma, z_s, q=q, mu_c=mu_c), z_s + q)


def make_exponential_tail_model(
    gamma: float, z_s: float, sigma: float, mu_c: float
) -> CoefficientModel:
    """Rates a_i = i^gamma, b_i = z_s (i-1)^gamma exp(sigma (i^mu_c - (i-1)^mu_c)).

    Requires 0 < gamma < 1, z_s > 0, sigma > 0, 0 < mu_c < 1.  The formula
    gives b_1 = 0^gamma exp(sigma) = 0; the model keeps that value as a
    convention and the dynamics never evaluate it.  A sigma past
    log(DBL_MAX) = 709.78 makes that product nan, and the model is refused
    with those whose rates overflow.
    """
    if not (0 < gamma < 1):
        raise ParameterError(f"gamma must be in (0, 1) for this family, got {gamma}")
    if z_s <= 0 or sigma <= 0:
        raise ParameterError("z_s and sigma must be positive")
    if not (0 < mu_c < 1):
        raise ParameterError(f"mu_c must be in (0, 1), got {mu_c}")
    model = CoefficientModel(Family.EXPONENTIAL_TAIL, gamma, z_s, sigma=sigma, mu_c=mu_c)
    return _with_b_bar(model, _sup_ratio_b_over_a(model, _EVAL_RANGE))


def make_custom_model(
    a: np.ndarray,
    b: np.ndarray,
    *,
    gamma: float = 1.0,
    z_s: float,
) -> CoefficientModel:
    """Model backed by tabulated rates a_1..a_L, b_1..b_L.

    ``gamma`` is the growth exponent the table is declared to follow
    (a_i ~ i^gamma) and ``z_s`` the limit of b_i/a_i it is declared to
    tend to; both are taken as given, and z_s must be positive and finite.
    The rates and their ratios b_i/a_i and a_i/b_{i+1} must be finite.
    ``b_bar`` is the table's own max of b_i/a_i,
    and ``check_assumptions`` tests the remaining hypotheses numerically.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or len(a) < 2:
        raise ParameterError("rate tables must be 1-d, equal length, length >= 2")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("tabulated rates must be finite")
    if np.any(a <= 0):
        raise ParameterError("tabulated a_i must be positive")
    if np.any(b[1:] <= 0) or b[0] < 0:
        raise ParameterError("tabulated b_i must be positive (b_1 may be 0)")
    if not (0 < z_s < math.inf):
        raise ParameterError(f"z_s must be positive and finite, got {z_s}")
    with np.errstate(over="ignore"):
        ratios = b / a, a[:-1] / b[1:]  # b_i/a_i, and Q_{i+1}/Q_i = a_i/b_{i+1}
    if not all(np.isfinite(r).all() for r in ratios):
        raise ParameterError("tabulated rates overflow: b_i/a_i or a_i/b_(i+1) is not finite")
    return CoefficientModel(
        family=Family.CUSTOM,
        gamma=gamma,
        z_s_param=z_s,
        b_bar=float(np.max(ratios[0])),
        a_table=a,
        b_table=b,
    )


def load_rate_table(path: str | Path, *, gamma: float = 1.0, z_s: float) -> CoefficientModel:
    """Read a whitespace-separated table with columns ``i a_i b_i`` whose
    b_i/a_i is declared to tend to ``z_s``.

    Indices must be 1-based and contiguous.  Every refusal, of the layout
    or of the rates and z_s by ``make_custom_model``, raises ``ConfigError``
    naming the file.
    """
    where = f"rate file {str(path)!r}"
    data = read_indexed_table(path, "i a_i b_i", where)
    try:
        return make_custom_model(data[:, 0], data[:, 1], gamma=gamma, z_s=z_s)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def read_indexed_table(path: str | Path, columns: str, where: str) -> np.ndarray:
    """The value columns of a whitespace-separated table of the named
    ``columns`` (such as "i c_i"), the first being the 1-based contiguous
    index; ConfigError, after ``where``, refuses any other layout."""
    try:
        data = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{where} is not a table of numbers: {exc}") from None
    width = len(columns.split())
    if data.shape[1] != width:
        raise ConfigError(f"{where} must have {width} columns '{columns}', got {data.shape[1]}")
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ConfigError(f"{where}: indices must be 1-based and contiguous")
    return data[:, 1:]


# -- detailed balance --------------------------------------------------------


def detailed_balance(model: CoefficientModel, n: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """log Q_1..log Q_n by the recursion log Q_{i+1} = log Q_i + log(a_i/b_{i+1}),
    with Q_1 = 1.

    The increments are evaluated a block at a time into the returned array
    and summed there in place by one sequential ``np.cumsum``, so besides
    the n entries only block-length temporaries are held.  A ``prefix``
    log Q_1..log Q_m of the same model (m < n) is copied, and only the
    increments past it are evaluated: the sum continues from log Q_m in the
    same order, so every entry has the one-shot bits.
    """
    if n < 2:
        raise ParameterError("detailed balance needs n >= 2")
    log_q = np.empty(n)
    m = 1 if prefix is None else len(prefix)
    log_q[:m] = 0.0 if prefix is None else prefix
    for lo, hi in index_blocks(m, n):
        log_q_increments(model, np.arange(lo, hi, dtype=float), out=log_q[lo:hi])
    if m > 1:
        log_q[m] += log_q[m - 1]
    np.cumsum(log_q[m:], out=log_q[m:])
    # a running sum that leaves the finite range never comes back to it
    if not math.isfinite(log_q[-1]):
        raise NumericalError("log Q_i left the representable range")
    return log_q


def log_q_increments(model: CoefficientModel, i: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(a_i / b_{i+1}) = log(Q_{i+1} / Q_i) at the float indices i: the
    increments of log Q, which ``detailed_balance`` sums and the root test
    of ``equilibrium.critical_values`` averages.  A ratio that underflows
    to 0 gives -inf, with no warning; ``detailed_balance`` refuses it."""
    with np.errstate(divide="ignore"):
        return np.log(model.a(i) / model.b(i + 1), out=out)


# -- assumption checks -------------------------------------------------------


class AssumptionReport(NamedTuple):
    """Verdicts for the three structural assumptions on a rate pair.

    z_s is the model's stated one.  ``frag_ok``: b_i/a_i is bounded (its
    sup is not still climbing at the end of the scan).  ``ratio_ok``:
    Q_{i+1}/Q_i tends to ``ratio_target`` = 1/z_s, i.e. b_i/a_i -> z_s.
    ``profile_monotone_ok``: Q_i z_s^i is eventually non-increasing.
    Violations are reported, never raised.  ``profile_start_index`` is the
    first index i0 from which Q_i z_s^i is non-increasing (1 when globally
    monotone); a non-monotone prefix is tolerated.
    """

    frag_ok: bool
    frag_first_violation: int | None
    b_bar_observed: float
    ratio_ok: bool
    ratio_estimate: float  # smoothed tail value of Q_{i+1}/Q_i
    ratio_target: float
    profile_monotone_ok: bool
    profile_start_index: int

    @property
    def all_ok(self) -> bool:
        return self.frag_ok and self.ratio_ok and self.profile_monotone_ok

    def checks(self) -> list[tuple[bool, str]]:
        """Each check's verdict with the line that reports it."""
        return [
            (self.frag_ok, f"frag_ok={self.frag_ok} b_bar_observed={self.b_bar_observed!r}"),
            (self.ratio_ok, f"ratio_ok={self.ratio_ok} estimate={self.ratio_estimate!r} target={self.ratio_target!r}"),
            (self.profile_monotone_ok,
             f"profile_monotone_ok={self.profile_monotone_ok} start_index={self.profile_start_index}"),
        ]


def check_assumptions(model: CoefficientModel, n: int) -> AssumptionReport:
    """Scan i = 1..n and report whether the standing assumptions hold.

    For a rate table the scan stops at its last row (n is clamped to the
    table length).  The growth bound on a_i is not scanned: a_i = i^gamma
    for the built-in families, and a finite table meets it with its own
    max of a_i/i^gamma.  Nor is b_i > 0 (for i >= 2): building a model
    enforces it.

    z_s is the model's stated ``z_s_param``.  The ratio check splits the
    last N/10 indices into blocks and requires the block-averaged gap
    |Q_{i+1}/Q_i - 1/z_s| to shrink monotonically (within ``RATIO_TOL``
    slack per block) or to sit already within ``RATIO_TOL`` of the
    target.  The monotonicity check of Q_i z_s^i allows an initial
    non-monotone prefix and reports its end.
    """
    if model.table_length is not None:
        n = min(n, model.table_length)
    if n < 10:
        raise ParameterError("assumption scan needs n >= 10")
    slack = 1e-12

    # fragmentation bound: bounded b_i/a_i (flag a sup that is still
    # climbing at the edge of the scan); a zero b_1 has log ratio -inf
    bi = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        la, lb = np.log(model.a(bi)), np.log(model.b(bi))
    log_ratio_ba = lb - la
    b_bar_obs = float(np.exp(np.max(log_ratio_ba)))
    argmax = int(np.argmax(log_ratio_ba))
    edge = len(log_ratio_ba) - 1
    frag_ok = not (
        argmax > 0.99 * edge
        and log_ratio_ba[edge] > log_ratio_ba[int(0.9 * edge)] + slack
    )
    frag_viol = None if frag_ok else argmax + 1

    # tail ratio of Q: block-averaged gaps to 1/z_s must shrink (or already
    # hit) the target
    log_ratio_q = la[:-1] - lb[1:]  # log(a_i / b_{i+1}), i = 1..n-1
    tail = log_ratio_q[-max(5, len(log_ratio_q) // 10) :]
    blocks = np.array_split(tail, 5)
    v = np.array([math.exp(float(np.mean(b))) for b in blocks])
    target = 1.0 / model.z_s_param
    gaps = np.abs(v - target)
    trending = bool(np.all(gaps[1:] <= gaps[:-1] * (1 + RATIO_TOL) + slack * target))
    ratio_ok = trending or bool(gaps[-1] <= RATIO_TOL * target)

    # monotonicity of Q_i z_s^i from some i0 on
    d = log_ratio_q + math.log(model.z_s_param)  # log of (Q_{i+1} z^{i+1}) / (Q_i z^i)
    viol = np.nonzero(d > slack)[0]
    i0 = int(viol[-1]) + 2 if len(viol) else 1
    profile_ok = i0 <= max(2, int(0.9 * n))

    return AssumptionReport(
        frag_ok=frag_ok,
        frag_first_violation=frag_viol,
        b_bar_observed=b_bar_obs,
        ratio_ok=ratio_ok,
        ratio_estimate=float(v[-1]),
        ratio_target=target,
        profile_monotone_ok=profile_ok,
        profile_start_index=i0,
    )
