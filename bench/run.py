"""Time-to-certificate benchmark for the beckerdoring pipeline.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seconds S] [--seed N] [--trace 0|1]

One run is a closed loop: a single client runs one repetition at a time,
each in a fresh interpreter (``worker.py``) that imports the library from
``src/``, loads its configs, builds the models and then runs every config
of the workload the way ``beckerdoring experiment`` does.  New repetitions
start until ``--seconds`` have passed.  Before the loop, SETUP_PROBES extra
interpreters only set up, so set-up time has enough samples even on the
slow workloads.  BLAS threads are capped at the CPUs this process may use.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``setup_s`` (median, interpreter start to
loaded configs and built models), ``experiment_s`` (median wall time of
``run_uniform_moment_experiment`` + ``emit_report`` per config),
``experiment_tail_s`` (see ``tail``) and ``peak_rss_mb`` (largest
``ru_maxrss`` of a repetition).  The three times are scaled to a reference
machine speed (see CALIB_REF_S); the unscaled median wall time is printed
beside them.  With ``--trace 1`` each repetition runs twice on the same
configs, untraced and then traced (``tracing.py``), and the metrics are the
per-layer medians over the traced experiments plus the tracing overhead,
all unscaled.  ``failed`` counts experiments that raised, returned verdict
False or failed ``check.py``; ``failed_frac`` is failed / attempted and is
printed beside the metrics.  Everything a run measured, with the
environment it ran in, goes to ``.bench_out/<workload>-seed<N>-trace<T>/``.
``--workload all`` runs every workload and prints one table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, rep_configs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).with_name("worker.py")
GOLDEN = Path(__file__).with_name("golden.json")
SETUP_PROBES = 10
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
# End-to-end times are scaled to the speed at which worker.calibrate() takes
# this long.  On a shared 2-CPU Xeon virtual machine (Python 3.11, numpy
# 2.4) the CPU speed drifted by +-15 % over minutes: the median wall times
# of ten 25-second runs spread by 10-18 % (quartile distance over median),
# the same times scaled by a kernel timed beside each measurement by 2.5-6 %.
CALIB_REF_S = 0.035
WORKER_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the library is missing)."""


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, ""))
        except ValueError:
            wanted = cpus()
        env[var] = str(max(1, min(wanted, cpus())))
    return env


def git_commit() -> str | None:
    """The checkout's HEAD, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(worker_result: dict) -> dict:
    """Where and on what the numbers were measured."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "beckerdoring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "nproc": cpus(),
        "cpu_model": cpu_model,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def spawn(spec: dict) -> dict | None:
    """Run one worker to completion; its result, or None if it failed."""
    env = child_env()
    spec = {**spec, "src": str(SRC), "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    print(f"worker exited with code {proc.returncode} and no result", file=sys.stderr)
    return None


def write_configs(out: Path, workload: str, seed: int, rep: int) -> dict[str, str]:
    paths = {}
    for label, cfg in rep_configs(workload, seed, rep).items():
        path = out / "configs" / f"rep{rep}-{label}.toml"
        path.write_text(config_text(cfg))
        paths[label] = str(path)
    return paths


def scaled(seconds: float, measured: dict) -> float:
    """``seconds`` at the reference speed, by the calibration timed beside it."""
    return seconds * CALIB_REF_S / measured["calib_s"]


def more_reps(elapsed: float, seconds: float, experiments: list[dict], trace: bool) -> bool:
    """Closed loop: go on for ``seconds``, and untraced until MIN_SAMPLES timings (within 2x)."""
    if elapsed < seconds:
        return True
    timed = sum("wall_s" in e for e in experiments)
    return not trace and timed < MIN_SAMPLES and elapsed < 2 * seconds


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  A run with fewer than
    eleven samples has no such percentile; its maximum is reported, with
    0 samples beyond.
    """
    xs = sorted(samples)
    idx = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    golden = json.loads(GOLDEN.read_text()).get(workload, {})

    probe_configs = write_configs(out, workload, seed, 0)
    setups = []
    first = None
    for _ in range(SETUP_PROBES):
        result = spawn({"configs": probe_configs, "out": str(out), "mode": "setup", "golden": None})
        if result is None:
            raise BenchError("the library could not be imported and set up")
        first = first or result
        setups.append(scaled(result["setup_s"], result))

    modes = ("plain", "traced") if trace else ("plain",)
    experiments, peaks, loads = [], [], []
    start = time.perf_counter()
    rep = 0
    while more_reps(time.perf_counter() - start, seconds, experiments, trace):
        configs = write_configs(out, workload, seed, rep)
        for mode in modes:
            result = spawn({"configs": configs, "out": str(out), "mode": mode,
                            "golden": golden if rep == 0 else None})
            if result is None:
                experiments += [{"label": label, "rep": rep, "traced": mode == "traced",
                                 "problems": ["worker failed"]} for label in configs]
                continue
            setups.append(scaled(result["setup_s"], result))
            loads.append(result["config_load_s"])
            peaks.append(result["peak_rss_mb"])
            for record in result["experiments"]:
                record["rep"] = rep
            experiments += result["experiments"]
        rep += 1
    measured_s = time.perf_counter() - start

    failed = [e for e in experiments if e["problems"]]
    timed = [e for e in experiments if not e["traced"] and "wall_s" in e]
    plain = [scaled(e["wall_s"], e) for e in timed]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "measured_s": measured_s, "repetitions": rep,
        "environment": environment(first),
        "attempted": len(experiments), "failed": len(failed),
        "failed_frac": len(failed) / len(experiments),
        "problems": {f"rep{e['rep']}-{e['label']}": e["problems"] for e in failed},
        "samples": {"setup_s": len(setups), "experiment_s": len(plain)},
    }
    if not plain:
        summary["metrics"] = {}
    elif trace:
        summary["metrics"] = layer_summary(experiments, loads)
    else:
        value, pct, beyond = tail(plain)
        summary["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(plain)}
        summary["wall"] = {"experiment_wall_s": statistics.median(e["wall_s"] for e in timed),
                           "calib_s": statistics.median(e["calib_s"] for e in timed)}
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "experiment_s": statistics.median(plain),
            "experiment_tail_s": value,
            "peak_rss_mb": max(peaks),
        }
    summary["experiments"] = experiments
    (out / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def layer_summary(experiments: list[dict], loads: list[float]) -> dict[str, float]:
    """Per-layer medians over traced experiments, plus the tracing overhead.

    The overhead is the median over (repetition, config) pairs of the traced
    minus the untraced time, both scaled by their calibrations.
    """
    traced = [e for e in experiments if e["traced"] and "layers" in e]
    if not traced:
        return {}
    untraced = {(e["rep"], e["label"]): scaled(e["wall_s"], e)
                for e in experiments if not e["traced"] and "wall_s" in e}
    metrics = {key: statistics.median(e["layers"][key] for e in traced) for key in traced[0]["layers"]}
    metrics["config.load_s"] = statistics.median(loads)
    pairs = [(scaled(e["wall_s"], e), untraced[e["rep"], e["label"]])
             for e in traced if (e["rep"], e["label"]) in untraced]
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    metrics["trace.overhead_frac"] = statistics.median((t - u) / u for t, u in pairs)
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(summary: dict) -> dict:
    units = declared_metrics(summary["trace"])
    missing = sorted(set(units) - set(summary["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def print_table(summaries: list[dict]) -> None:
    for s in summaries:
        units = declared_metrics(s["trace"])
        print(f"== {s['workload']} (seed {s['seed']}, {s['repetitions']} repetitions, "
              f"{s['samples']['experiment_s']} experiments, {s['samples']['setup_s']} set-ups)")
        for name, unit in units.items():
            value = s["metrics"].get(name)
            note = ""
            if name == "experiment_tail_s":
                t = s["tail"]
                note = f"  (p{t['percentile']:.0f} of {t['samples']}, {t['samples_beyond']} beyond)"
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<38} {shown:>12} {unit}{note}")
        if "wall" in s:
            print(f"  {'unscaled experiment wall time':<38} {s['wall']['experiment_wall_s']:>12.6g} s"
                  f"  (calibration kernel {s['wall']['calib_s']:.4g} s, reference {CALIB_REF_S} s)")
        print(f"  {'failed_frac':<38} {s['failed_frac']:>12.6g} (failed {s['failed']} of {s['attempted']})")
        for name, problems in s["problems"].items():
            print(f"  FAILED {name}: {'; '.join(problems)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
        print("# environment " + json.dumps(summaries[0]["environment"], sort_keys=True))
        print_table(summaries)
        if args.workload != "all":
            print(json.dumps(result_line(summaries[0])))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all" and any(s["failed"] for s in summaries):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
