"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/worker.py '<json spec>'

The spec names the source tree to import, the config files of the
repetition (label -> path), the output directory, the mode ("setup",
"plain" or "traced"), the golden values to compare with (or null) and
``spawned_at``, the CLOCK_MONOTONIC reading taken just before the parent
started this interpreter.  Set-up time runs from then until
``import beckerdoring``, ``load_config`` and ``build_model`` are done for
every config.  In the other modes each config is then run once the way
``beckerdoring experiment`` runs it (``run_uniform_moment_experiment`` and
``emit_report``), timed, and checked by ``check.py``.  ``calibrate`` is
timed after set-up and around each experiment, so ``run.py`` can scale the
times to a reference machine speed.

The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    load_s = 0.0
    import beckerdoring
    from beckerdoring.config import load_config

    if src not in Path(beckerdoring.__file__).resolve().parents:
        print(f"imported {beckerdoring.__file__}, not the tree under {src}", file=sys.stderr)
        return 3
    configs = {}
    for label, path in spec["configs"].items():
        start = time.perf_counter()
        configs[label] = load_config(path)
        load_s += time.perf_counter() - start
        configs[label].build_model()
    setup_s = time.monotonic() - spec["spawned_at"]

    import numpy

    result = {
        "setup_s": setup_s,
        "calib_s": calibrate(),
        "config_load_s": load_s / len(configs),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "experiments": [],
    }
    if spec["mode"] != "setup":
        out = Path(spec["out"])
        golden = spec["golden"]
        for label, config in configs.items():
            result["experiments"].append(
                run_experiment(label, config, out / label, spec["mode"] == "traced",
                               None if golden is None else golden.get(label, {}))
            )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def calibrate() -> float:
    """Time of a fixed kernel shaped like the pipeline's inner loops.

    Numpy arithmetic on 2000-long vectors, a small matrix-vector product
    and a compensated sum, about 40 ms.  It probes how fast the machine
    runs right now; ``run.py`` scales each experiment's wall time by it.
    """
    import math

    import numpy as np

    x = np.linspace(1.0, 2.0, 2000)
    k = np.ones((7, 2000))
    coeffs = np.full(6, 0.1)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(250):
        y = x * 1.0001 - x[::-1] * 0.5
        y = y + 0.1 * (coeffs @ k[:6])
        acc += math.fsum(y * x)
    return time.perf_counter() - start


def _experiment(config, out_dir, run, emit):
    report = run(config)
    return report, emit(report, out_dir)


def run_experiment(label, config, out_dir, traced, golden):
    """Run, time and check one config; never raises."""
    from beckerdoring import density
    from beckerdoring.experiments import emit_report, run_uniform_moment_experiment

    import check
    import tracing

    record = {"label": label, "rho": config.rho, "traced": traced}
    calib_before = calibrate()
    tracer = tracing.Tracer() if traced else None
    run, emit, experiment = run_uniform_moment_experiment, emit_report, _experiment
    if traced:
        run = tracer.wrap("experiments.run", run)
        emit = tracer.wrap("experiments.emit", emit)
        experiment = tracer.wrap("experiment", experiment)
        undo = tracing.install(tracer)
    try:
        start = time.perf_counter()
        report, paths = experiment(config, out_dir, run, emit)
        record["wall_s"] = time.perf_counter() - start
        record["calib_s"] = (calib_before + calibrate()) / 2
    except Exception:  # a failing experiment is counted, the run goes on
        traceback.print_exc()
        record["problems"] = ["raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        return record
    finally:
        if traced:
            undo()

    record["problems"] = check.check_report(report, density, golden)
    record["golden_observed"] = check.golden_values(report)
    traj = report.trajectory
    record["counts"] = {
        "solver.n_fev": traj.n_fev,
        "solver.n_steps": traj.n_steps,
        "solver.n_rejected": traj.n_rejected,
        "maximum_principle.snapshots_checked": report.stage("domination").info["n_snapshots"]
        if report.t0 is not None else 0,
        "experiments.bytes_written": sum(p.stat().st_size for p in paths.values()),
    }
    if traced:
        record["layers"] = tracing.layer_metrics(tracer, record["wall_s"])
        record["layers"]["experiments.bytes_written"] = record["counts"]["experiments.bytes_written"]
        tracer.dump(out_dir / "spans.jsonl")
    return record


if __name__ == "__main__":
    sys.exit(main())
