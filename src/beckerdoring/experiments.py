"""End-to-end uniform moment-bound experiments and report emission.

The pipeline: integrate a subcritical run, detect the time T0 from which
the monomer concentration stays below the chosen cap omega, certify the
pre-T0 window by the exponential growth bound, build a dominating tail
sequence at T0, check domination from T0 on, and convert the dominating
sequence's weighted sums into a uniform moment certificate.  Every stage
reports its margins; a verdict is true only when all gating stages pass.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .coefficients import (
    CoefficientModel,
    Family,
    check_assumptions,
    load_rate_table,
    make_exponential_tail_model,
    make_power_law_model,
    read_indexed_table,
)
from .equilibrium import (
    ACTIVITY_TOL,
    N_SERIES,
    CriticalValues,
    EquilibriumData,
    _LogQPrefix,
    _series_terms,
    _sum_over_support,
    critical_values,
    equilibrium_profile,
    fsum_array,
    solve_monomer_activity,
)
from .errors import ConfigError, ParameterError, TailNotDecayedError, UnboundedGrowthConstantError
from .maximum_principle import check_domination
from .solver import IntegrateOptions, Key, Trajectory, density, integrate, weight
from .supersolution import (
    Supersolution,
    SupersolutionCheck,
    SupersolutionParams,
    anchor_index,
    build_supersolution,
    continue_geometrically,
    make_params,
    verify_supersolution,
    weighted_sum_bound,
)
from .tails import finite_weight_size, stretched_weights, tail_density


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment, flat and serializable.

    ``omega = 0`` selects z_bar + omega_margin * (z_s - z_bar).  For
    ``init = "file"`` the density is taken from the file and ``rho`` is
    ignored: z_bar, the default omega, the equilibrium profile and H belong
    to the file's density.  Every other shape is scaled to hit ``rho``
    exactly.  No field sets a gate's slack, the critical-value series
    length, the integrator's absolute tolerance or the truncation warning's
    threshold: each is a constant of the module that owns it.
    """

    family: str = "power_law"
    gamma: float = 0.5
    z_s: float = 1.0
    q: float = 1.0
    mu_c: float = 0.5
    sigma: float = 1.0
    rates_file: str = ""
    n: int = 2000
    rho: float = 1.0
    init: str = "monodisperse"
    init_ratio: float = 0.5
    init_file: str = ""
    t_end: float = 200.0
    snapshots: int = 401
    rel_tol: float = 1e-8
    k_moments: tuple[float, ...] = (2.0,)
    stretched: tuple[tuple[float, float], ...] = ((1.0, 0.5),)
    omega: float = 0.0
    omega_margin: float = 0.1

    def build_model(self) -> CoefficientModel:
        if self.family == Family.POWER_LAW.value:
            return make_power_law_model(self.gamma, self.z_s, self.q, self.mu_c)
        if self.family == Family.EXPONENTIAL_TAIL.value:
            return make_exponential_tail_model(self.gamma, self.z_s, self.sigma, self.mu_c)
        if self.family == Family.CUSTOM.value:
            if not self.rates_file:
                raise ConfigError("custom family needs rates_file")
            return load_rate_table(self.rates_file, gamma=self.gamma, z_s=self.z_s)
        raise ConfigError(f"unknown family {self.family!r}")

    def initial_state(self, eq: EquilibriumData | None = None) -> np.ndarray:
        i = np.arange(1, self.n + 1, dtype=float)
        if self.init == "monodisperse":
            c = np.zeros(self.n)
            c[0] = self.rho
            return c
        if self.init == "equilibrium":
            if eq is None:
                raise ConfigError("equilibrium initial data needs an equilibrium profile")
            shape = eq.profile
        elif self.init == "geometric":
            if not (0 < self.init_ratio < 1):
                raise ConfigError("init_ratio must be in (0, 1)")
            shape = self.init_ratio**i
        elif self.init == "file":
            where = f"initial-state file {self.init_file!r}"
            data = read_indexed_table(self.init_file, "i c_i", where)[:, 0]
            if not (np.all(np.isfinite(data)) and np.all(data >= 0)):
                raise ConfigError(f"{where}: concentrations must be finite and non-negative")
            past = np.flatnonzero(data[self.n :])
            if len(past):
                raise ConfigError(f"{where} puts mass in row {self.n + 1 + int(past[0])}, past n = {self.n}")
            c = np.zeros(self.n)
            m = min(self.n, len(data))
            c[:m] = data[:m]
            if not np.any(c):
                raise ConfigError(f"{where} carries no mass in sizes 1..{self.n}")
            return c
        else:
            raise ConfigError(f"unknown init {self.init!r}")
        return shape * (self.rho / fsum_array(i * shape))

    def to_dict(self) -> dict:
        return asdict(self)


class Preamble(NamedTuple):
    """What every command derives from a config before it integrates.

    ``rho`` is the density of ``c0``, which for ``init = "file"`` is not
    ``config.rho``.  ``omega`` is the configured cap or, for ``omega = 0``,
    z_bar + omega_margin * (z_s - z_bar); it is not checked against z_s here.
    """

    model: CoefficientModel
    critical: CriticalValues
    z_bar: float
    equilibrium: EquilibriumData
    c0: np.ndarray
    rho: float
    omega: float
    opts: IntegrateOptions


def prepare(config: ExperimentConfig) -> Preamble:
    """Build the model, its critical values and the equilibrium of a config.

    The critical values (z_s, rho_s) are computed here and nowhere else in
    the pipeline: every later consumer reads ``Preamble.critical``.  The
    activity solve refuses a supercritical density (``check_subcritical``).
    The steps share one log-Q prefix: the critical values compute it at
    ``equilibrium.N_SERIES`` = 10^5, the others slice it.  The activity
    solves the density of the initial state: ``config.rho``, or for
    ``init = "file"`` the file's, which is read first.
    """
    model = config.build_model()
    log_q_prefix = _LogQPrefix(model)
    crit = critical_values(model, log_q_prefix=log_q_prefix)
    c0 = config.initial_state() if config.init == "file" else None
    rho = config.rho if c0 is None else density(c0)
    z_bar = solve_monomer_activity(model, rho, critical=crit, log_q_prefix=log_q_prefix)
    eq = equilibrium_profile(model, z_bar, config.n, log_q_prefix=log_q_prefix)
    c0 = config.initial_state(eq) if c0 is None else c0
    omega = config.omega if config.omega > 0 else z_bar + config.omega_margin * (crit.z_s - z_bar)
    opts = IntegrateOptions(
        rel_tol=config.rel_tol,
        n_snapshots=config.snapshots,
        track=(*config.k_moments, *(tuple(p) for p in config.stretched)),
        equilibrium=eq,
    )
    return Preamble(model, crit, z_bar, eq, c0, density(c0), omega, opts)


def preflight(config: ExperimentConfig) -> tuple[Preamble, SupersolutionParams, tuple[Certificate, ...]]:
    """The preamble of a config, its build parameters and one ``Certificate``
    per tracked weight, after every refusal that needs no trajectory, in
    this order: the weights (ConfigError for a moment order below
    max(2 - gamma, 1 + gamma), a stretched pair outside the sublinear branch
    or overflowing at N, two weights with one stage label); ``prepare``; a
    rate table that fails ``check_assumptions`` over i = 1..N_SERIES,
    clamped to its rows (ConfigError naming each failed check; the formula
    families meet the assumptions through their parameter ranges, and are
    not scanned); ``make_params``, over the rates up to max(N, 1000);
    ParameterError for a cap that the truncated system's equilibrium
    monomer z_N reaches: c_1 tends to z_N, the root of
    F_N(z) = sum_{i<=N} i Q_i z^i = rho, and z_N >= omega exactly when
    F_N(omega) <= rho.  z_bar solves F(z_bar) = rho only to the activity
    solve's relative tolerance ``ACTIVITY_TOL`` = 1e-12, so a cap that close
    (omega = z_bar at omega_margin = 0) is refused too:
    F_N(omega) <= rho (1 + ACTIVITY_TOL).  Last,
    per tracked weight, its phi's ``short_time_constant`` and its psi's
    ``anchor_index`` (PhiDecayError)."""
    gamma = config.gamma
    k_min = max(2.0 - gamma, 1.0 + gamma)
    weights = []  # (key, label, kind, factor, extra) of each tracked weight, in ``track`` order
    for k in config.k_moments:
        if k < k_min - 1e-12:
            raise ConfigError(
                f"moment order k = {k} is below max(2 - gamma, 1 + gamma) = {k_min}; "
                "the certified pipeline needs at least that order"
            )
        weights.append((k, f"k={k:g}", "moment", k + 1, {}))
    if config.stretched and gamma >= 1.0:
        raise ConfigError(
            "stretched-exponential certificates need the sublinear branch "
            "(gamma < 1); refuse for the linear branch"
        )
    for alpha, mu in config.stretched:
        if alpha <= 0 or not (0 < mu <= 1.0 - gamma + 1e-12):
            raise ConfigError(
                f"stretched pair (alpha={alpha}, mu={mu}) needs alpha > 0 and "
                f"0 < mu <= 1 - gamma = {1.0 - gamma}"
            )
        n_max = finite_weight_size(alpha, mu, config.n)
        if n_max < config.n:
            raise ConfigError(
                f"stretched pair (alpha={alpha}, mu={mu}): the weight exp(alpha n^mu) "
                f"overflows float64 at n = {config.n}; the largest admissible n is {n_max}"
            )
        w = stretched_weights(alpha, mu)
        regime = "mu == 1 - gamma" if abs(mu - (1 - gamma)) < 1e-12 else "mu < 1 - gamma"
        extra = {"eta1": w.eta1, "eta2": w.eta2, "regime": regime}
        weights.append(((alpha, mu), f"alpha={alpha:g},mu={mu:g}", "stretched", w.eta2, extra))
    labels = [label for _, label, *_ in weights]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(
                f"two weights give the same stage label {label!r} (labels keep 6 "
                "significant digits); drop one or make them differ within 6 digits"
            )
    prep = prepare(config)
    if prep.model.family is Family.CUSTOM:
        failed = [line for ok, line in check_assumptions(prep.model, N_SERIES).checks() if not ok]
        if failed:
            raise ConfigError(f"rate file {config.rates_file!r} fails the standing assumptions: {'; '.join(failed)}")
    params = make_params(prep.model, prep.omega, prep.rho, max(config.n, 1000), z_s=prep.critical.z_s)
    eq, omega, rho = prep.equilibrium, prep.omega, prep.rho
    f_n = float(np.sum(_series_terms(eq.log_profile, math.log(omega / prep.z_bar))))
    if f_n <= rho * (1 + ACTIVITY_TOL):
        raise ParameterError(
            f"omega = {omega:.6g} is at or below z_N, the equilibrium monomer of the system truncated at "
            f"N = {config.n}, where c_1 tends: sum_(i<=N) i Q_i omega^i = {f_n:.6g} <= rho = {rho:.6g} "
            f"(z_bar = {prep.z_bar:.6g}; the infinite equilibrium keeps {1.0 - eq.rho / rho:.3g} of rho past N)"
        )
    i = np.arange(1, config.n + 1, dtype=float)
    return prep, params, tuple(
        Certificate(key, *rest, short_time=short_time_constant(prep.model, weight(key, i), rho),
                    anchor=anchor_index(tail_weight(key, config.n), params))
        for key, *rest in weights
    )


def dominating_sequence(
    prep: Preamble, params: SupersolutionParams, g: np.ndarray
) -> tuple[Supersolution, SupersolutionCheck]:
    """Build the dominating sequence above the tail profile g and verify
    the balance inequality with its fixed slack 1e-12 rho, in closed form
    from the sequence's floor row on."""
    sol = build_supersolution(prep.model, params, g)
    return sol, verify_supersolution(sol.r, prep.model, params.omega, params.rho,
                                     lam=params.lam, floor_row=sol.floor_row)


def supersolution_witness(sol: Supersolution) -> dict:
    """The ``witness.json`` keys that every command writing one shares."""
    return {"lambda": sol.params.lam, "n_switch": sol.params.n_switch, "tail_value": sol.tail_value,
            "uniform_bound": sol.params.uniform_bound}


# -- short-time growth constant ----------------------------------------------


class ShortTimeBound(NamedTuple):
    """Constant C such that the phi-weighted sum grows at most like exp(C t).

    ``eps`` is the largest constant with phi_{i+1} - phi_i >= eps * phi_1;
    ``a_phi`` the supremum of a_i (phi_{i+1} - phi_i) / phi_i over the scan.
    """

    c_phi: float
    eps: float
    a_phi: float


def short_time_constant(model: CoefficientModel, phi: np.ndarray, rho: float) -> ShortTimeBound:
    """C_phi = (rho + b_bar / eps) * A_phi for an admissible weight sequence.

    Raises when the weighted increment ratio is still climbing at the end of
    the truncation (the bound does not exist for such weights, e.g. plain
    exponentials against diverging coagulation rates).
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) < 10:
        raise ParameterError("weight sequence too short")
    if np.any(phi <= 0):
        raise ParameterError("weights must be positive")
    diffs = phi[1:] - phi[:-1]
    eps = float(np.min(diffs)) / float(phi[0])
    if eps <= 0:
        raise ParameterError("weights must be strictly increasing")
    a = model.rate_pairs(len(phi))[0]
    ratios = a * diffs / phi[:-1]
    argmax = int(np.argmax(ratios))
    edge = len(ratios) - 1
    if argmax > 0.99 * edge and ratios[edge] > ratios[int(0.9 * edge)] * (1 + 1e-9):
        raise UnboundedGrowthConstantError(
            "weighted increment ratio keeps rising at the end of the range; "
            "no finite growth constant for this weight"
        )
    a_phi = float(ratios[argmax])
    return ShortTimeBound(
        c_phi=(rho + model.b_bar / eps) * a_phi,
        eps=eps,
        a_phi=a_phi,
    )


class Certificate(NamedTuple):
    """One tracked weight, decided by ``preflight``: ``kind`` "moment" (factor
    k + 1) or "stretched" (factor eta2), the info ``extra`` its certified
    stage adds, psi's ``anchor_index`` and the pre-T0 ``short_time`` bound."""

    key: Key
    label: str
    kind: str
    factor: float
    extra: dict
    anchor: int
    short_time: ShortTimeBound


def tail_weight(key: Key, n: int) -> np.ndarray:
    """psi_1..psi_N of a key's certificate factor * sum_j psi_j r_j."""
    return stretched_weights(*key).psi(n) if isinstance(key, tuple) else np.arange(1, n + 1, dtype=float) ** (key - 1)


def weighted_l1_distance(states: np.ndarray, supports: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """sum_i i |c_i - Q_i| of each row c of ``states`` (zero past its
    columns), summed over the row's own support, past which it is i Q_i."""
    m = states.shape[1]
    i = np.arange(1, len(profile) + 1, dtype=float)
    return _sum_over_support(supports, np.abs(states - profile[:m]) * i[:m], i * profile)


def detect_threshold(trajectory: Trajectory, omega: float) -> float | None:
    """First snapshot time from which c_1 stays below omega for good.

    Returns None when the monomer concentration is still at or above omega
    at the final snapshot (never-below flag).
    """
    above = np.flatnonzero(trajectory.states[:, 0] >= omega)
    if not len(above):
        return float(trajectory.times[0])
    if above[-1] == len(trajectory.times) - 1:
        return None
    return float(trajectory.times[above[-1] + 1])


# -- the pipeline -------------------------------------------------------------


@dataclass
class StageResult:
    """One stage's verdict; ``key`` (not serialized) is the tracked weight's
    moment order k or stretched pair (alpha, mu), None for other stages."""

    name: str
    ok: bool
    gating: bool = True
    info: dict = field(default_factory=dict)
    key: Key | None = None


@dataclass
class UniformBoundReport:
    """Stage-by-stage record of one experiment with the final verdict."""

    config: ExperimentConfig
    z_s: float
    rho_s: float
    z_bar: float
    omega: float
    t0: float | None
    stages: list[StageResult]
    witness: dict
    verdict: bool
    trajectory: Trajectory  # not serialized
    supersolution: Supersolution | None = None  # not serialized

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "z_s": self.z_s,
            "rho_s": self.rho_s if math.isfinite(self.rho_s) else "inf",
            "z_bar": self.z_bar,
            "omega": self.omega,
            "t0": self.t0,
            "stages": [
                {"name": s.name, "ok": bool(s.ok), "gating": s.gating, "info": s.info}
                for s in self.stages
            ],
            "witness": self.witness,
            "verdict": self.verdict,
        }


def run_uniform_moment_experiment(config: ExperimentConfig) -> UniformBoundReport:
    """Run the full certificate pipeline for one configuration.

    Raises, before integrating, what ``preflight`` refuses: a supercritical
    density (the uniform-bound machinery does not apply there), weights
    outside the certified hypotheses or that no horizon can certify, an
    omega that admits no lambda, and a cap that c_1 cannot fall
    below.  Every other failure is a stage verdict, never a silent pass: a
    tail at T0 that has not decayed by N fails the ``supersolution`` stage
    with the flag ``tail-not-decayed``, and no later stage is run.
    """
    prep, params, certificates = preflight(config)
    crit, rho, omega = prep.critical, prep.rho, prep.omega

    stages: list[StageResult] = []
    trajectory = integrate(prep.c0, prep.model, config.t_end, prep.opts)
    rho_drift = float(np.max(np.abs(trajectory.rho - rho))) / rho
    stages.append(
        StageResult(
            "integrate",
            ok=rho_drift <= 1e-10,
            info={
                "n_steps": trajectory.n_steps,
                "n_rejected": trajectory.n_rejected,
                "rho_drift": rho_drift,
                "t_stiff": trajectory.t_stiff,
                "warnings": list(trajectory.warnings),
            },
        )
    )

    t0 = detect_threshold(trajectory, omega)
    if t0 is None:
        flag = "never-below-omega"
    elif t0 > 0.8 * config.t_end:
        flag = "late-detection"  # little horizon left to exercise domination
    else:
        flag = None
    stages.append(
        StageResult(
            "threshold",
            ok=t0 is not None,
            info={"t0": t0, "omega": omega, "flag": flag},
        )
    )

    witness: dict = {}
    super_sol = None
    if t0 is not None:
        # the window up to T0, against the growth bound in log space, where
        # C_phi (t - t_0) may pass the float range of its exponential
        pre = trajectory.times <= t0 + 1e-12
        pre_t = trajectory.times[pre]
        for cert in certificates:
            values = trajectory.tracked[cert.key][pre]
            worst = float(np.max(np.exp(np.log(values / values[0]) - cert.short_time.c_phi * (pre_t - pre_t[0]))))
            info = {**cert.short_time._asdict(), "worst_ratio": worst}
            stages.append(StageResult(f"short_time_bound[{cert.label}]", worst <= 1.0 + 1e-8, info=info, key=cert.key))

        g_t0 = tail_density(trajectory.at(t0))
        try:
            super_sol, check = dominating_sequence(prep, params, g_t0)
        except TailNotDecayedError:
            info = {"flag": "tail-not-decayed", "g_N_over_rho": float(g_t0[-1]) / rho}
            stages.append(StageResult("supersolution", ok=False, info=info))
    if super_sol is not None:
        witness = {**supersolution_witness(super_sol), "r_max": float(np.max(super_sol.r))}
        stages.append(
            StageResult(
                "supersolution",
                ok=check.ok,
                info={"worst_margin": check.worst_margin, "worst_index": check.worst_index, **witness},
            )
        )

        dom = check_domination(trajectory, super_sol.r, t0)
        stages.append(
            StageResult(
                "domination",
                ok=dom.holds,
                info={
                    "max_gap": dom.max_gap,
                    "epsilon": dom.tol,
                    "first_violation": dom.first_violation,
                    "n_snapshots": dom.n_snapshots,
                },
            )
        )

        for cert in certificates:
            psi = tail_weight(cert.key, config.n)
            wb = weighted_sum_bound(super_sol.r, g_t0, psi, params, cert.anchor, floor_row=super_sol.floor_row)
            certified, observed = cert.factor * wb.lhs, float(np.max(trajectory.tracked[cert.key]))
            info = {"certified": certified, "observed_sup": observed, "weighted_sum_lhs": wb.lhs,
                    "weighted_sum_rhs": wb.rhs, **cert.extra}
            if cert.kind == "moment":
                info["c_used"] = wb.c_used
            ok = observed <= certified * (1 + 1e-12) and wb.lhs <= wb.rhs
            stages.append(StageResult(f"certified_{cert.kind}[{cert.label}]", ok, info=info, key=cert.key))

    # qualitative relaxation toward the equilibrium profile (informational)
    l1w = weighted_l1_distance(trajectory.states, trajectory.supports, prep.equilibrium.profile)
    tail_start = 3 * len(l1w) // 4
    # below ~100 rel_tol * rho the distance is integrator noise; treat it as
    # converged rather than demanding monotonicity of noise
    floor = 100.0 * config.rel_tol * rho
    prev, nxt = l1w[tail_start:-1], l1w[tail_start + 1 :]
    eventually_decreasing = bool(np.all(nxt <= np.maximum(prev * (1 + 1e-6) + 1e-12 * rho, floor)))
    final_l1 = float(l1w[-1])
    stages.append(
        StageResult(
            "convergence_shadow",
            ok=final_l1 < 1e-3 * rho and eventually_decreasing,
            gating=False,
            info={"final_l1_weighted": final_l1, "eventually_decreasing": eventually_decreasing},
        )
    )

    verdict = all(s.ok for s in stages if s.gating)
    return UniformBoundReport(
        config=config,
        z_s=crit.z_s,
        rho_s=crit.rho_s,
        z_bar=prep.z_bar,
        omega=omega,
        t0=t0,
        stages=stages,
        witness=witness,
        verdict=verdict,
        trajectory=trajectory,
        supersolution=super_sol,
    )


# -- emission -----------------------------------------------------------------


_BLOCK_ROWS = 1024


def column_text(col: np.ndarray) -> list[str]:
    """The entries of a column as ``str`` of Python ints and floats (``str``
    of a float is its repr)."""
    return list(map(str, col.tolist()))


def write_columns(
    path: Path, header: list[str], columns: list[np.ndarray | list[str] | float], sep: str = ","
) -> Path:
    """Write the header lines, then the columns' rows.  A column is an array,
    formatted by ``column_text`` a block of rows at a time (at N = 32 000,
    whole columns as text would add 3 MB to the peak memory); its text,
    already formatted, so that a column two files share is formatted once;
    or a float, the same value in every row.  At least one column must not
    be a float."""
    n = next(len(col) for col in columns if not isinstance(col, float))
    with path.open("w") as fh:
        fh.write("".join(line + "\n" for line in header))
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = [
                itertools.repeat(str(float(col))) if isinstance(col, float)
                else column_text(col[rows]) if isinstance(col, np.ndarray)
                else col[rows]
                for col in columns
            ]
            fh.writelines(sep.join(row) + "\n" for row in zip(*block))
    return path


def shared_columns(trajectory: Trajectory) -> dict:
    """The text of the columns ``timeseries.csv`` and ``bounds.dat`` share:
    t (under the key "t") and each tracked sum (under its key)."""
    return {"t": column_text(trajectory.times)} | {
        key: column_text(col) for key, col in trajectory.tracked.items()
    }


def write_trajectory_csv(
    path: Path, trajectory: Trajectory, config: ExperimentConfig, z_s: float, z_bar: float, omega: float,
    shared: dict | None = None,
) -> Path:
    """``#key=value`` header lines (rho is the first row's), then t, c1, rho,
    H and the tracked sums; t and the tracked sums are taken from ``shared``
    (``shared_columns(trajectory)`` when None)."""
    header = {
        "family": config.family, "gamma": config.gamma, "z_s": z_s, "rho": float(trajectory.rho[0]),
        "z_bar": z_bar, "omega": omega, "rel_tol": config.rel_tol, "abs_tol": trajectory.abs_tol,
    }
    lines = [f"#{key}={value}" for key, value in header.items()]
    names = [f"E_{k[0]:g}_{k[1]:g}" if isinstance(k, tuple) else f"M_{k:g}" for k in trajectory.tracked]
    lines.append(",".join(["t", "c1", "rho", "H", *names]))
    shared = shared or shared_columns(trajectory)
    columns = [shared["t"], trajectory.states[:, 0], trajectory.rho, trajectory.free_energy]
    return write_columns(path, lines, columns + [shared[key] for key in trajectory.tracked])


def emit_report(report: UniformBoundReport, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json, timeseries.csv and the witness export.

    The parent of ``out_dir`` must exist; missing parents surface as I/O
    errors rather than being silently created.  Outputs are bit-identical
    for identical configs.  The columns that ``timeseries.csv`` and
    ``bounds.dat`` share are formatted once.
    """
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    paths: dict[str, Path] = {}

    paths["summary"] = write_json(out / "summary.json", report.to_dict())

    trajectory = report.trajectory
    shared = shared_columns(trajectory)
    paths["timeseries"] = write_trajectory_csv(
        out / "timeseries.csv", trajectory, report.config, report.z_s, report.z_bar, report.omega, shared
    )
    certs = sorted((s for s in report.stages if s.name.startswith("certified_")), key=lambda s: s.name)
    lines = ["# t " + " ".join(f"{s.name} {s.name}_certified" for s in certs)]
    columns = [shared["t"]]
    for s in certs:
        columns += [shared[s.key], s.info["certified"]]
    paths["bounds"] = write_columns(out / "bounds.dat", lines, columns, sep=" ")

    if report.supersolution is not None:
        paths["supersolution"] = export_supersolution(report.supersolution, out)
        paths["witness"] = write_json(out / "witness.json", report.witness)
    return paths


def write_json(path: Path, data: dict) -> Path:
    """``data`` as indented JSON with sorted keys."""
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


_SUPERSOLUTION_COLUMNS = "j,r_j,s_j"


def export_supersolution(sol: Supersolution, out_dir: str | Path) -> Path:
    """Write ``supersolution.csv``: the header lines ``#n=<N>`` and
    ``#lambda=<lambda>``, the column names ``j,r_j,s_j`` and the rows
    j = 1..n_head.  The rows past n_head are the geometric continuation,
    which ``read_supersolution`` rebuilds bit for bit."""
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    m = sol.n_head
    header = [f"#n={sol.n}", f"#lambda={float(sol.params.lam)!r}", _SUPERSOLUTION_COLUMNS]
    return write_columns(out / "supersolution.csv", header, [np.arange(1, m + 1), sol.r[:m], sol.s[:m]])


def read_supersolution(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The full-length r and s of a ``supersolution.csv`` that
    ``export_supersolution`` wrote: rows 1..m as written, and rows m+1..N
    rebuilt by ``continue_geometrically``, the function that built them.

    Raises ConfigError naming the line when the file is not in that layout:
    a missing or malformed ``#n`` or ``#lambda`` line, rows that are not
    j = 1..m in order with 1 <= m <= N, or a last row whose r_m is not the
    suffix sum of the rebuilt s (rows cut off, an edited lambda).
    """
    path = Path(path)
    lines = path.read_text().splitlines()

    def refuse(number: int, expected: str) -> ConfigError:
        got = repr(lines[number - 1]) if number <= len(lines) else "the end of the file"
        return ConfigError(f"{path} line {number}: expected {expected}, got {got}")

    def header_value(number: int, prefix: str, parse, admissible, expected: str):
        line = lines[number - 1] if number <= len(lines) else ""
        if line.startswith(prefix):
            with contextlib.suppress(ValueError):
                value = parse(line[len(prefix) :])
                if admissible(value):
                    return value
        raise refuse(number, expected)

    n = header_value(1, "#n=", int, lambda v: v >= 1, "'#n=<N>' with N >= 1")
    lam = header_value(2, "#lambda=", float, lambda v: 1.0 < v < math.inf, "'#lambda=<lambda>' with lambda > 1")
    if len(lines) < 3 or lines[2] != _SUPERSOLUTION_COLUMNS:
        raise refuse(3, repr(_SUPERSOLUTION_COLUMNS))
    rows = lines[3:]
    if not 1 <= len(rows) <= n:
        raise refuse(min(len(rows), n) + 4, f"rows j = 1..m with 1 <= m <= N = {n}")
    r = np.zeros(n)
    s = np.zeros(n)
    for j, line in enumerate(rows, start=1):
        fields = line.split(",")
        try:
            if len(fields) != 3 or int(fields[0]) != j:
                raise ValueError
            r[j - 1], s[j - 1] = float(fields[1]), float(fields[2])
        except ValueError:
            raise refuse(j + 3, f"the row 'j,r_j,s_j' of j = {j}") from None
    # r_m as written is the suffix sum of s from row m on (the domination
    # guard never raises it there: r_m >= s_m >= g_m), so a file cut short
    # or with an edited lambda does not rebuild to its own last row
    m = len(rows)
    written = r[m - 1]
    continue_geometrically(s, r, lam, m, m)
    if r[m - 1] != written:
        raise refuse(m + 3, f"r_{m} = {float(r[m - 1])!r}, the suffix sum of s from row {m} on (rows cut off?)")
    return r, s
