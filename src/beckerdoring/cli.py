"""Command-line harness.

Subcommands: ``config-template``, ``equilibrium``, ``simulate``,
``supersolution``, ``verify``, ``experiment``, ``sweep``.  Exit codes:
0 pass, 2 verdict failure, 10 I/O error, 11 bad configuration (a usage
error included), 12 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .coefficients import check_assumptions
from .config import load_config, template_text
from .equilibrium import N_SERIES, fsum_array, relative_free_energy
from .errors import (
    BeckerDoringError,
    ConfigError,
    ParameterError,
    SupercriticalError,
)
from .experiments import (
    dominating_sequence,
    emit_report,
    export_supersolution,
    preflight,
    prepare,
    run_uniform_moment_experiment,
    supersolution_witness,
    write_columns,
    write_json,
    write_trajectory_csv,
)
from .solver import integrate
from .tails import tail_density

EXIT_PASS = 0
EXIT_VERDICT = 2
EXIT_IO = 10
EXIT_CONFIG = 11
EXIT_NUMERICAL = 12


def _exit_code(command, *args, prefix: str = "") -> int:
    """``command(*args)``, or the exit code of the failure it raised, with
    the failure's message, after ``prefix``, on stderr."""
    try:
        return command(*args)
    except (ConfigError, ParameterError, SupercriticalError) as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"i/o error: {exc}"
    except BeckerDoringError as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    # one write per line: sweep workers share stderr, and print's separate
    # write of the newline lets their lines interleave
    sys.stderr.write(prefix + message + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """A usage error exits 11 (bad configuration), not argparse's 2, which
    is the exit code of a failed verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beckerdoring",
        description="Cluster-kinetics experiments: equilibria, trajectories and uniform moment bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, writes: bool = True):
        # only a command that writes files takes an output directory
        p.add_argument("--config", type=Path, required=True, help="experiment config file")
        if writes:
            p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        return p

    add_common(sub.add_parser("equilibrium", help="print critical values and the equilibrium summary"), writes=False)
    sim = add_common(sub.add_parser("simulate", help="integrate and write the trajectory CSV"))
    sim.add_argument("--dump-states", type=int, default=0, metavar="N",
                     help="also dump N full states, evenly spaced over the run")
    add_common(sub.add_parser("supersolution", help="build, verify and export a dominating sequence"))
    add_common(sub.add_parser("verify", help="check the structural assumptions on the rates"), writes=False)
    add_common(sub.add_parser("experiment", help="run the full uniform-bound pipeline"))
    sweep = sub.add_parser("sweep", help="run several experiment configs concurrently")
    sweep.add_argument("configs", type=Path, nargs="+", help="config files")
    sweep.add_argument("--out", type=Path, default=Path("out"))
    sweep.add_argument("--workers", type=int, default=1)
    sub.add_parser("config-template", help="print a config file with all defaults")
    return parser


def _experiment(config_path, out_dir, echo: bool = False) -> int:
    """Run the experiment of one config and write its outputs to
    ``out_dir``; with ``echo``, print the stage verdicts."""
    report = run_uniform_moment_experiment(load_config(config_path))
    paths = emit_report(report, out_dir)
    if echo:
        for stage in report.stages:
            flag = "PASS" if stage.ok else "FAIL"
            gate = "" if stage.gating else " (informational)"
            print(f"[{flag}] {stage.name}{gate}")
        print(f"verdict={report.verdict}")
        print(f"wrote {paths['summary']}")
    return EXIT_PASS if report.verdict else EXIT_VERDICT


def _cmd_experiment(args) -> int:
    return _experiment(args.config, args.out, echo=True)


def _cmd_equilibrium(args) -> int:
    prep = prepare(load_config(args.config))
    crit, eq = prep.critical, prep.equilibrium
    print(f"z_s={crit.z_s!r}")
    print(f"rho_s={crit.rho_s!r}")
    print(f"z_bar={prep.z_bar!r}")
    print(f"rho={eq.rho!r}")
    print(f"n_cut={eq.cut_index}")
    print(f"tail_bound={eq.tail_bound!r}")
    print(f"h_empty_state={fsum_array(eq.profile)!r}")
    print(f"h_initial={relative_free_energy(prep.c0, eq)!r}")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    prep = prepare(config)
    trajectory = integrate(prep.c0, prep.model, config.t_end, prep.opts)
    args.out.mkdir(exist_ok=True)
    csv = write_trajectory_csv(args.out / "timeseries.csv", trajectory,
                               config, prep.critical.z_s, prep.z_bar, prep.omega)
    n_snapshots = len(trajectory.times)
    print(f"wrote {csv} ({n_snapshots} snapshots, {trajectory.n_steps} steps)")
    for warning in trajectory.warnings:
        print(f"warning: {warning}")
    if args.dump_states > 0:
        idx = np.linspace(0, n_snapshots - 1, args.dump_states).astype(int)
        j = np.arange(1, config.n + 1)
        for i in sorted(set(idx.tolist())):
            t = float(trajectory.times[i])
            c = trajectory.at(t)
            path = write_columns(args.out / f"state_t{t:g}.csv", ["i,c_i"], [j, c])
            tail_path = write_columns(args.out / f"tail_t{t:g}.csv", ["j,G_j"], [j, tail_density(c)])
            print(f"wrote {path} and {tail_path}")
    return EXIT_PASS


def _cmd_supersolution(args) -> int:
    prep, params, _ = preflight(load_config(args.config))
    sol, check = dominating_sequence(prep, params, tail_density(prep.c0))
    path = export_supersolution(sol, args.out)
    witness = write_json(args.out / "witness.json", {
        **supersolution_witness(sol), "omega": prep.omega, "rho": prep.rho,
        "verified": check.ok, "worst_margin": check.worst_margin,
    })
    print(f"lambda={params.lam!r} n_switch={params.n_switch} uniform_bound={params.uniform_bound!r}")
    print(f"verified={check.ok} worst_margin={check.worst_margin!r}")
    print(f"wrote {path} and {witness}")
    return EXIT_PASS if check.ok else EXIT_VERDICT


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    report = check_assumptions(config.build_model(), N_SERIES)
    for _, line in report.checks():
        print(line)
    print(f"all_ok={report.all_ok}")
    if report.all_ok:
        for cert in preflight(config)[2]:  # refuses what ``experiment`` refuses before integrating
            print(f"{cert.kind}[{cert.label}] anchor={cert.anchor} c_phi={cert.short_time.c_phi!r}")
    return EXIT_PASS if report.all_ok else EXIT_VERDICT


def _sweep_worker(payload: tuple[str, str]) -> tuple[str, int]:
    """One config's exit code: a failure stays with its config, and its
    message names it."""
    config_path, out_dir = payload
    return config_path, _exit_code(_experiment, config_path, out_dir, prefix=f"{config_path}: ")


def _cmd_sweep(args) -> int:
    # each config writes to out/<file stem>; two configs on one directory
    # would overwrite each other's outputs (at the same time, with workers)
    by_dir: dict[Path, list[str]] = {}
    for path in args.configs:
        by_dir.setdefault(args.out / path.stem, []).append(str(path))
    clashes = [f"{' and '.join(paths)} -> {out_dir}" for out_dir, paths in by_dir.items() if len(paths) > 1]
    if clashes:
        raise ConfigError("configs would share an output directory: " + "; ".join(clashes))
    args.out.mkdir(exist_ok=True)
    jobs = [(paths[0], str(out_dir)) for out_dir, paths in by_dir.items()]
    if args.workers <= 1:
        codes = dict(map(_sweep_worker, jobs))
    else:
        import concurrent.futures  # only a parallel sweep pays for its import

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
