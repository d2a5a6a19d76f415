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

import numpy as np

from .coefficients import CoefficientModel, Family, load_rate_table, make_exponential_tail_model, make_power_law_model
from .equilibrium import (
    CriticalValues,
    EquilibriumData,
    critical_values,
    equilibrium_profile,
    solve_monomer_activity,
)
from .errors import ConfigError, ParameterError, UnboundedGrowthConstantError
from .maximum_principle import check_domination
from .solver import ClusterState, IntegrateOptions, Key, Trajectory, density, integrate, weight
from .supersolution import (
    Supersolution,
    SupersolutionCheck,
    SupersolutionParams,
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

    ``omega = 0`` selects z_bar + omega_margin * (z_s - z_bar); ``abs_tol``
    and ``tol_dom`` of 0 select the density-scaled defaults.  For
    ``init = "file"`` the density is taken from the file and ``rho`` is
    ignored; every other shape is scaled to hit ``rho`` exactly.
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
    abs_tol: float = 0.0
    tail_threshold: float = 1e-6
    k_moments: tuple[float, ...] = (2.0,)
    stretched: tuple[tuple[float, float], ...] = ((1.0, 0.5),)
    omega: float = 0.0
    omega_margin: float = 0.1
    delta: float = 1.0
    tol_dom: float = 0.0
    n_series: int = 100_000
    seed: int = 0

    def build_model(self) -> CoefficientModel:
        if self.family == Family.POWER_LAW.value:
            return make_power_law_model(self.gamma, self.z_s, self.q, self.mu_c)
        if self.family == Family.EXPONENTIAL_TAIL.value:
            return make_exponential_tail_model(self.gamma, self.z_s, self.sigma, self.mu_c)
        if self.family == Family.CUSTOM.value:
            if not self.rates_file:
                raise ConfigError("custom family needs rates_file")
            return load_rate_table(self.rates_file, gamma=self.gamma, z_s=self.z_s or None)
        raise ConfigError(f"unknown family {self.family!r}")

    def initial_state(self, eq: EquilibriumData | None = None) -> ClusterState:
        i = np.arange(1, self.n + 1, dtype=float)
        if self.init == "monodisperse":
            c = np.zeros(self.n)
            c[0] = self.rho
            return ClusterState(c)
        if self.init == "equilibrium":
            if eq is None:
                raise ConfigError("equilibrium initial data needs an equilibrium profile")
            shape = eq.profile
        elif self.init == "geometric":
            if not (0 < self.init_ratio < 1):
                raise ConfigError("init_ratio must be in (0, 1)")
            shape = self.init_ratio**i
        elif self.init == "file":
            data = np.loadtxt(self.init_file, dtype=float, ndmin=2)
            if data.shape[1] != 2 or not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
                raise ConfigError("initial-state file needs contiguous columns 'i c_i'")
            c = np.zeros(self.n)
            m = min(self.n, len(data))
            c[:m] = data[:m, 1]
            return ClusterState(c)
        else:
            raise ConfigError(f"unknown initial shape {self.init!r}")
        mass = math.fsum(i * shape)
        if mass <= 0:
            raise ConfigError("initial shape carries no mass")
        return ClusterState(shape * (self.rho / mass))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Preamble:
    """What every command derives from a config before it integrates.

    ``rho`` is the density of ``state0``, which for ``init = "file"`` is not
    ``config.rho``.  ``omega`` is the configured cap or, for ``omega = 0``,
    z_bar + omega_margin * (z_s - z_bar); it is not checked against z_s here.
    """

    model: CoefficientModel
    critical: CriticalValues
    z_bar: float
    equilibrium: EquilibriumData
    state0: ClusterState
    rho: float
    omega: float
    opts: IntegrateOptions


def prepare(config: ExperimentConfig) -> Preamble:
    """Build the model, its critical values and the equilibrium of a config.

    Adds no refusal of its own: a supercritical density fails in the
    activity solve.
    """
    model = config.build_model()
    crit = critical_values(model, config.n_series)
    z_bar = solve_monomer_activity(model, config.rho, critical=crit)
    eq = equilibrium_profile(model, z_bar, config.n, critical=crit)
    state0 = config.initial_state(eq)
    omega = config.omega if config.omega > 0 else z_bar + config.omega_margin * (crit.z_s - z_bar)
    opts = IntegrateOptions(
        rel_tol=config.rel_tol,
        abs_tol=config.abs_tol,
        n_snapshots=config.snapshots,
        tail_threshold=config.tail_threshold,
        track=(*config.k_moments, *(tuple(p) for p in config.stretched)),
        equilibrium=eq,
    )
    return Preamble(model, crit, z_bar, eq, state0, density(state0.c), omega, opts)


def dominating_sequence(
    prep: Preamble, config: ExperimentConfig, g: np.ndarray
) -> tuple[SupersolutionParams, Supersolution, SupersolutionCheck]:
    """Build the dominating sequence above the tail profile g and verify it:
    lambda from the rates up to max(N, 1000) and the model's z_s, the balance
    inequality with slack 1e-12 * rho."""
    model, omega, rho = prep.model, prep.omega, prep.rho
    params = make_params(model, omega, rho, config.delta, n_max=max(config.n, 1000), z_s_est=prep.critical.z_s)
    sol = build_supersolution(model, params, g)
    return params, sol, verify_supersolution(sol.r, model, omega, rho, tol=1e-12 * rho)


# -- short-time growth constant ----------------------------------------------


@dataclass(frozen=True)
class ShortTimeBound:
    """Constant C such that the phi-weighted sum grows at most like exp(C t).

    ``eps`` is the largest constant with phi_{i+1} - phi_i >= eps * phi_1;
    ``a_phi`` the supremum of a_i (phi_{i+1} - phi_i) / phi_i over the scan.
    Edge flags mark extrema still moving at the end of the range.
    """

    c_phi: float
    eps: float
    a_phi: float
    eps_at_edge: bool
    a_phi_argmax: int


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
    eps_at_edge = int(np.argmin(diffs)) == len(diffs) - 1
    a = model.a(np.arange(1, len(phi), dtype=float))
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
        eps_at_edge=eps_at_edge,
        a_phi_argmax=argmax + 1,
    )


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


def _label(key: Key) -> str:
    if isinstance(key, tuple):
        return f"alpha={key[0]:g},mu={key[1]:g}"
    return f"k={key:g}"


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
    trajectory: Trajectory | None = None  # not serialized
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


def _check_hypotheses(config: ExperimentConfig) -> None:
    gamma = config.gamma
    k_min = max(2.0 - gamma, 1.0 + gamma)
    for k in config.k_moments:
        if k < k_min - 1e-12:
            raise ConfigError(
                f"moment order k = {k} is below max(2 - gamma, 1 + gamma) = {k_min}; "
                "the certified pipeline needs at least that order"
            )
    if config.stretched:
        if gamma >= 1.0:
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
    for labels in ([_label(k) for k in config.k_moments], [_label((a, m)) for a, m in config.stretched]):
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(
                    f"two weights give the same stage label {label!r} (labels keep 6 "
                    "significant digits); drop one or make them differ within 6 digits"
                )


def run_uniform_moment_experiment(config: ExperimentConfig) -> UniformBoundReport:
    """Run the full certificate pipeline for one configuration.

    Raises SupercriticalError when the configured density is not below the
    critical density (the uniform-bound machinery does not apply there) and
    ConfigError for weights outside the certified hypotheses.  Every other
    failure is a stage verdict, never a silent pass.
    """
    _check_hypotheses(config)
    prep = prepare(config)
    model, crit, rho, omega = prep.model, prep.critical, prep.rho, prep.omega
    if not omega < crit.z_s:
        raise ConfigError(f"omega = {omega:.6g} must be below z_s = {crit.z_s:.6g}")

    stages: list[StageResult] = []
    trajectory = integrate(prep.state0, model, config.t_end, prep.opts)
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
    i_grid = np.arange(1, config.n + 1, dtype=float)
    if t0 is not None:
        # per tracked key: stage kind, the tail weight psi and factor of the
        # certificate factor * sum_j psi_j r_j, and extra info for its stage
        certificates = []
        for key in trajectory.tracked:
            if isinstance(key, tuple):
                weights = stretched_weights(*key)
                regime = "mu == 1 - gamma" if abs(key[1] - (1 - model.gamma)) < 1e-12 else "mu < 1 - gamma"
                certificates.append((
                    "stretched", key, weights.psi(config.n), weights.eta2,
                    {"eta1": weights.eta1, "eta2": weights.eta2, "regime": regime},
                ))
            else:
                certificates.append(("moment", key, i_grid ** (key - 1), key + 1, {}))

        # the window up to T0 is a prefix of the grid; math.exp over Python
        # floats keeps the ratios' bits
        pre_t = trajectory.times[trajectory.times <= t0 + 1e-12].tolist()
        for _, key, *_ in certificates:
            bound = short_time_constant(model, weight(key, i_grid), rho)
            pre = trajectory.tracked[key][: len(pre_t)].tolist()
            worst = 0.0
            for t, value in zip(pre_t, pre):
                growth = bound.c_phi * (t - pre_t[0])
                try:
                    ratio = value / (math.exp(growth) * pre[0])
                except OverflowError:
                    # exp(growth) is past the float range: the same ratio in log space
                    ratio = math.exp(math.log(value / pre[0]) - growth)
                worst = max(worst, ratio)
            stages.append(
                StageResult(
                    f"short_time_bound[{_label(key)}]",
                    ok=worst <= 1.0 + 1e-8,
                    info={"c_phi": bound.c_phi, "eps": bound.eps, "a_phi": bound.a_phi, "worst_ratio": worst},
                    key=key,
                )
            )

        g_t0 = tail_density(trajectory.at(t0).c)
        params, super_sol, check = dominating_sequence(prep, config, g_t0)
        witness = {
            "lambda": super_sol.lam,
            "n_switch": super_sol.n_switch,
            "tail_value": super_sol.tail_value,
            "uniform_bound": super_sol.uniform_bound,
            "r_max": float(np.max(super_sol.r)),
        }
        stages.append(
            StageResult(
                "supersolution",
                ok=check.ok,
                info={"worst_margin": check.worst_margin, "worst_index": check.worst_index, **witness},
            )
        )

        tol_dom = config.tol_dom if config.tol_dom > 0 else None
        dom = check_domination(trajectory, super_sol.r, t0, tol_dom)
        stages.append(
            StageResult(
                "domination",
                ok=dom.holds,
                info={
                    "max_gap": dom.max_gap,
                    "epsilon": dom.epsilon_used,
                    "first_violation": dom.first_violation,
                    "n_snapshots": dom.n_snapshots,
                },
            )
        )

        for kind, key, psi, factor, extra in certificates:
            wb = weighted_sum_bound(super_sol.r, g_t0, psi, params)
            certified = factor * wb.lhs
            observed = float(np.max(trajectory.tracked[key]))
            info = {
                "certified": certified,
                "observed_sup": observed,
                "weighted_sum_lhs": wb.lhs,
                "weighted_sum_rhs": wb.rhs,
                **extra,
            }
            if kind == "moment":
                info["c_used"] = wb.c_used
            stages.append(
                StageResult(
                    f"certified_{kind}[{_label(key)}]",
                    ok=observed <= certified * (1 + 1e-12) and wb.lhs <= wb.rhs,
                    info=info,
                    key=key,
                )
            )

    # qualitative relaxation toward the equilibrium profile (informational):
    # the weighted L1 distance of every snapshot, where past the common
    # support each term is i Q_i, one constant for all snapshots
    q = prep.equilibrium.profile
    m = trajectory.support
    dist = np.abs(trajectory.states[:, :m] - q[:m])
    dist *= i_grid[:m]
    l1w = dist.sum(axis=1) + (i_grid[m:] * q[m:]).sum()
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
        supersolution=super_sol if t0 is not None else None,
    )


# -- emission -----------------------------------------------------------------


_BLOCK_ROWS = 1024


def write_columns(
    path: Path, header: list[str], columns: list[np.ndarray | float], sep: str = ","
) -> Path:
    """Write the header lines, then the columns' rows as Python ints and floats
    (``str`` of a float is its repr), converted a block of rows at a time: at
    N = 32 000, whole columns as lists would add 3 MB to the peak memory.  A
    float in place of a column is the same value in every row, formatted
    once into the row template; at least one column must be an array."""
    row = sep.join("{}" if isinstance(col, np.ndarray) else str(float(col)) for col in columns) + "\n"
    arrays = [col for col in columns if isinstance(col, np.ndarray)]
    with path.open("w") as fh:
        fh.write("".join(line + "\n" for line in header))
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            block = [col[start : start + _BLOCK_ROWS].tolist() for col in arrays]
            fh.write("".join(itertools.starmap(row.format, zip(*block))))
    return path


def write_trajectory_csv(path: Path, trajectory: Trajectory, header: dict[str, object]) -> Path:
    """``#key=value`` header lines, then t, c1, rho, H and the tracked sums."""
    lines = [f"#{key}={value}" for key, value in header.items()]
    names = [f"E_{k[0]:g}_{k[1]:g}" if isinstance(k, tuple) else f"M_{k:g}" for k in trajectory.tracked]
    lines.append(",".join(["t", "c1", "rho", "H", *names]))
    columns = [trajectory.times, trajectory.states[:, 0], trajectory.rho, trajectory.free_energy]
    return write_columns(path, lines, columns + list(trajectory.tracked.values()))


def report_csv_header(report: UniformBoundReport) -> dict[str, object]:
    config = report.config
    return {
        "family": config.family,
        "gamma": config.gamma,
        "z_s": report.z_s,
        "rho": float(report.trajectory.rho[0]),
        "z_bar": report.z_bar,
        "omega": report.omega,
        "rel_tol": config.rel_tol,
        "abs_tol": report.trajectory.abs_tol,
    }


def emit_report(report: UniformBoundReport, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json, timeseries.csv and the witness export.

    The parent of ``out_dir`` must exist; missing parents surface as I/O
    errors rather than being silently created.  Outputs are bit-identical
    for identical configs.
    """
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    paths: dict[str, Path] = {}

    summary = out / "summary.json"
    summary.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    paths["summary"] = summary

    trajectory = report.trajectory
    if trajectory is not None:
        paths["timeseries"] = write_trajectory_csv(out / "timeseries.csv", trajectory, report_csv_header(report))
        certs = sorted((s for s in report.stages if s.name.startswith("certified_")), key=lambda s: s.name)
        lines = ["# t " + " ".join(f"{s.name} {s.name}_certified" for s in certs)]
        columns = [trajectory.times]
        for s in certs:
            columns += [trajectory.tracked[s.key], s.info["certified"]]
        paths["bounds"] = write_columns(out / "bounds.dat", lines, columns, sep=" ")

    if report.supersolution is not None:
        paths["supersolution"] = export_supersolution(report.supersolution, out)
        witness = out / "witness.json"
        witness.write_text(json.dumps(report.witness, indent=2, sort_keys=True) + "\n")
        paths["witness"] = witness
    return paths


_SUPERSOLUTION_COLUMNS = "j,r_j,s_j"


def export_supersolution(sol: Supersolution, out_dir: str | Path) -> Path:
    """Write ``supersolution.csv``: the header lines ``#n=<N>`` and
    ``#lambda=<lambda>``, the column names ``j,r_j,s_j`` and the rows
    j = 1..n_head.  The rows past n_head are the geometric continuation,
    which ``read_supersolution`` rebuilds bit for bit."""
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    m = sol.n_head
    header = [f"#n={sol.n}", f"#lambda={float(sol.lam)!r}", _SUPERSOLUTION_COLUMNS]
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
