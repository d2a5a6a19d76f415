"""The benchmark's tracing and output check still fit the library.

``bench/tracing.py`` wraps attributes of the pipeline's modules by name and
``bench/check.py`` reads the report's trajectory; a rename in the library
would otherwise only show when the benchmark runs.
"""
import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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
    return report, tracing.layer_metrics(tracer, wall_s=1.0), tracer.spans


def test_tracing_sees_the_solver_and_the_supersolution_step(traced_report):
    _, layers, _ = traced_report
    assert layers["solver.n_fev"] > 0 and layers["solver.n_steps"] > 0
    assert layers["maximum_principle.snapshots_checked"] > 0
    for metric in ("supersolution.build_s", "supersolution.verify_s", "supersolution.params_s"):
        assert layers[metric] > 0, metric


def test_tracing_sees_the_preamble(traced_report):
    # the preamble's three spans are wrapped by their names in
    # ``experiments``: ``prepare`` must still call them through those names
    _, layers, _ = traced_report
    for metric in ("equilibrium.critical_s", "equilibrium.activity_s", "equilibrium.profile_s"):
        assert layers[metric] > 0, metric


def test_every_traced_call_the_template_reaches_records_a_span(traced_report):
    # a refactor that calls past a traced name of ``experiments`` (say,
    # ``supersolution.make_params`` from ``preflight``) would leave its
    # layer's metrics at zero; the power-law template builds no rate table
    # and no exponential-tail model
    tracing = _load("tracing")
    _, _, spans = traced_report
    unreached = {"load_rate_table", "make_exponential_tail_model"}
    expected = {span for attr, span in tracing.EXPERIMENTS_CALLS.items() if attr not in unreached}
    assert expected - {name for name, *_ in spans} == set()


def test_bench_check_finds_no_problems(traced_report):
    report, _, _ = traced_report
    assert _load("check").check_report(report, density, golden=None) == []


def _with_full_rows(report):
    """The report as ``check.py`` would read it from a full (snapshots, N)
    matrix: each snapshot's stored head row padded with zeros to N."""
    trajectory = report.trajectory
    rows = [SimpleNamespace(c=trajectory.at(s.t), t=s.t) for s in trajectory.snapshots]
    return dataclasses.replace(report, trajectory=SimpleNamespace(snapshots=rows))


def test_bench_check_reads_head_rows_as_full_rows(traced_report):
    # the check's density drift and suffix sums give the same verdict on the
    # stored head rows, so it need not rebuild the (snapshots, N) matrix
    report, _, _ = traced_report
    trajectory = report.trajectory
    assert trajectory.support < trajectory.n
    assert all(np.shares_memory(s.c, trajectory.states) for s in trajectory.snapshots)
    check = _load("check").check_report
    undominated = dataclasses.replace(report, supersolution=SimpleNamespace(r=np.zeros(trajectory.n)))
    for case in (report, undominated):
        problems = check(case, density, golden=None)
        assert problems == check(_with_full_rows(case), density, golden=None)
    assert problems and "final tail density exceeds r at j=1" in problems[-1]


def test_filter_callback_runs_once_per_step_that_passed_the_error_test(traced_report):
    # ``solver.filter_s`` times the accept filter alone: snapshot rows are
    # clamped inside ``integrate`` after the solve, not through a callback
    report, _, spans = traced_report
    (info,) = [info for name, *_, info in spans if name == "rk.solve"]
    trajectory = report.trajectory
    n_filter_calls, _ = info["callbacks"]["solver.filter"]
    assert n_filter_calls == trajectory.n_steps + trajectory.n_rejected_filter
    assert info["n_steps"] == trajectory.n_steps
