"""The benchmark's tracing and output check still fit the library.

``bench/tracing.py`` wraps attributes of the pipeline's modules by name and
``bench/check.py`` reads the report's trajectory; a rename in the library
would otherwise only show when the benchmark runs.
"""
import importlib.util
from pathlib import Path

import pytest

from beckerdoring import density, experiments
from beckerdoring.experiments import ExperimentConfig, run_uniform_moment_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_report():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    originals = {attr: getattr(experiments, attr) for attr in tracing.EXPERIMENTS_CALLS}
    undo = tracing.install(tracer)
    try:
        report = tracer.wrap("experiments.run", run_uniform_moment_experiment)(
            ExperimentConfig(n=300, t_end=10.0, snapshots=51)
        )
    finally:
        undo()
    assert {attr: getattr(experiments, attr) for attr in originals} == originals
    return report, tracing.layer_metrics(tracer, wall_s=1.0)


def test_tracing_sees_the_solver_and_the_supersolution_step(traced_report):
    _, layers = traced_report
    assert layers["solver.n_fev"] > 0 and layers["solver.n_steps"] > 0
    assert layers["maximum_principle.snapshots_checked"] > 0
    for metric in ("supersolution.build_s", "supersolution.verify_s", "supersolution.params_s"):
        assert layers[metric] > 0, metric


def test_bench_check_finds_no_problems(traced_report):
    report, _ = traced_report
    assert _load("check").check_report(report, density, golden=None) == []
