"""Command-line harness.

Subcommands: ``config-template``, ``equilibrium``, ``simulate``,
``supersolution``, ``verify``, ``experiment``, ``sweep``.  Exit codes:
0 pass, 2 verdict failure, 10 I/O error, 11 bad configuration,
12 numerical failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
from pathlib import Path

import numpy as np

from .coefficients import check_assumptions
from .config import load_config, template_text
from .equilibrium import relative_free_energy
from .errors import (
    BeckerDoringError,
    ConfigError,
    ParameterError,
    SupercriticalError,
)
from .experiments import (
    ExperimentConfig,
    emit_report,
    export_supersolution,
    prepare,
    run_uniform_moment_experiment,
    trajectory_csv_lines,
)
from .solver import integrate
from .supersolution import build_supersolution, make_params, verify_supersolution
from .tails import tail_density

EXIT_PASS = 0
EXIT_VERDICT = 2
EXIT_IO = 10
EXIT_CONFIG = 11
EXIT_NUMERICAL = 12


def _exit_code(command, *args) -> int:
    """``command(*args)``, or the exit code of the failure it raised, with
    the failure's message on stderr."""
    try:
        return command(*args)
    except (ConfigError, ParameterError, SupercriticalError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BeckerDoringError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beckerdoring",
        description="Cluster-kinetics experiments: equilibria, trajectories and uniform moment bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", type=Path, required=config_required, help="experiment config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed recorded with outputs")

    add_common(sub.add_parser("equilibrium", help="print critical values and the equilibrium summary"))
    sim = sub.add_parser("simulate", help="integrate and write the trajectory CSV")
    add_common(sim)
    sim.add_argument("--dump-states", type=int, default=0, metavar="N",
                     help="also dump N full states, evenly spaced over the run")
    add_common(sub.add_parser("supersolution", help="build, verify and export a dominating sequence"))
    add_common(sub.add_parser("verify", help="check the structural assumptions on the rates"))
    add_common(sub.add_parser("experiment", help="run the full uniform-bound pipeline"))
    sweep = sub.add_parser("sweep", help="run several experiment configs concurrently")
    sweep.add_argument("configs", type=Path, nargs="+", help="config files")
    sweep.add_argument("--out", type=Path, default=Path("out"))
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=None)
    sub.add_parser("config-template", help="print a config file with all defaults")
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _cmd_equilibrium(args) -> int:
    prep = prepare(_load(args))
    crit, eq = prep.critical, prep.equilibrium
    print(f"z_s={crit.z_s!r}")
    print(f"rho_s={'inf' if crit.diverges else repr(crit.rho_s)}")
    print(f"z_bar={prep.z_bar!r}")
    print(f"rho={eq.rho!r}")
    print(f"n_cut={eq.cut_index}")
    print(f"tail_bound={eq.tail_bound!r}")
    print(f"h_empty_state={math.fsum(eq.profile)!r}")
    print(f"h_initial={relative_free_energy(prep.state0.c, eq)!r}")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    config = _load(args)
    prep = prepare(config)
    trajectory = integrate(prep.state0, prep.model, config.t_end, prep.opts)
    header = {
        "family": config.family, "gamma": config.gamma, "z_s": prep.critical.z_s,
        "rho": prep.rho, "z_bar": prep.z_bar,
        "rel_tol": config.rel_tol, "abs_tol": trajectory.abs_tol,
    }
    args.out.mkdir(exist_ok=True)
    csv = args.out / "timeseries.csv"
    csv.write_text("\n".join(trajectory_csv_lines(trajectory, header)) + "\n")
    n_snapshots = len(trajectory.times)
    print(f"wrote {csv} ({n_snapshots} snapshots, {trajectory.n_steps} steps)")
    for warning in trajectory.warnings:
        print(f"warning: {warning}")
    if args.dump_states > 0:
        idx = np.linspace(0, n_snapshots - 1, args.dump_states).astype(int)
        for i in sorted(set(idx.tolist())):
            t, c = float(trajectory.times[i]), trajectory.states[i]
            path = _write_indexed(args.out / f"state_t{t:g}.csv", "i,c_i", c)
            tail_path = _write_indexed(args.out / f"tail_t{t:g}.csv", "j,G_j", tail_density(c).g)
            print(f"wrote {path} and {tail_path}")
    return EXIT_PASS


def _write_indexed(path: Path, header: str, values: np.ndarray) -> Path:
    """Write ``header`` and one line ``j,value`` per entry, j from 1."""
    lines = [header] + [f"{j},{x!r}" for j, x in enumerate(values.tolist(), start=1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _cmd_supersolution(args) -> int:
    config = _load(args)
    prep = prepare(config)
    model, omega, rho, z_s = prep.model, prep.omega, prep.rho, prep.critical.z_s
    g = tail_density(prep.state0.c).g
    params = make_params(model, omega, rho, config.delta, n_max=max(config.n, 1000), z_s_est=z_s)
    sol = build_supersolution(model, params, g)
    check = verify_supersolution(sol.r, model, omega, rho, tol=1e-12 * rho)
    path = export_supersolution(sol, args.out)
    witness = args.out / "witness.json"
    witness.write_text(json.dumps({
        "lambda": sol.lam, "n_switch": sol.n_switch, "tail_value": sol.tail_value,
        "uniform_bound": sol.uniform_bound, "omega": omega, "rho": rho,
        "verified": check.ok, "worst_margin": check.worst_margin,
    }, indent=2, sort_keys=True) + "\n")
    print(f"lambda={sol.lam!r} n_switch={sol.n_switch} uniform_bound={sol.uniform_bound!r}")
    print(f"verified={check.ok} worst_margin={check.worst_margin!r}")
    print(f"wrote {path} and {witness}")
    return EXIT_PASS if check.ok else EXIT_VERDICT


def _cmd_verify(args) -> int:
    config = _load(args)
    model = config.build_model()
    report = check_assumptions(model, min(config.n_series, 100_000))
    print(f"growth_ok={report.growth_ok} first_violation={report.growth_first_violation}")
    print(f"frag_ok={report.frag_ok} b_bar_observed={report.b_bar_observed!r}")
    print(f"ratio_ok={report.ratio_ok} estimate={report.ratio_estimate!r} target={report.ratio_target!r}")
    print(f"profile_monotone_ok={report.profile_monotone_ok} start_index={report.profile_start_index}")
    print(f"all_ok={report.all_ok}")
    return EXIT_PASS if report.all_ok else EXIT_VERDICT


def _cmd_experiment(args) -> int:
    config = _load(args)
    report = run_uniform_moment_experiment(config)
    paths = emit_report(report, args.out)
    for stage in report.stages:
        flag = "PASS" if stage.ok else "FAIL"
        gate = "" if stage.gating else " (informational)"
        print(f"[{flag}] {stage.name}{gate}")
    print(f"verdict={report.verdict}")
    print(f"wrote {paths['summary']}")
    return EXIT_PASS if report.verdict else EXIT_VERDICT


def _sweep_one(config_path: str, out_dir: str, seed: int | None) -> int:
    config = load_config(config_path)
    if seed is not None:
        config.seed = seed
    report = run_uniform_moment_experiment(config)
    emit_report(report, out_dir)
    return EXIT_PASS if report.verdict else EXIT_VERDICT


def _sweep_worker(payload: tuple[str, str, int | None]) -> tuple[str, int]:
    """One config's exit code: a failure stays with its config."""
    config_path, out_dir, seed = payload
    return config_path, _exit_code(_sweep_one, config_path, out_dir, seed)


def _cmd_sweep(args) -> int:
    args.out.mkdir(exist_ok=True)
    jobs = []
    for path in args.configs:
        out_dir = args.out / path.stem
        jobs.append((str(path), str(out_dir), args.seed))
    if args.workers <= 1:
        codes = dict(map(_sweep_worker, jobs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            codes = dict(pool.map(_sweep_worker, jobs))
    for name, code in sorted(codes.items()):
        verdict = {EXIT_PASS: "PASS", EXIT_VERDICT: "FAIL"}.get(code, f"ERROR({code})")
        print(f"{verdict} {name}")
    return max(codes.values())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "config-template":
        print(template_text(), end="")
        return EXIT_PASS
    handler = {
        "equilibrium": _cmd_equilibrium,
        "simulate": _cmd_simulate,
        "supersolution": _cmd_supersolution,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
    }[args.command]
    return _exit_code(handler, args)


if __name__ == "__main__":
    sys.exit(main())
