"""Spans around the calls between the modules of ``beckerdoring``.

The library itself carries no instrumentation; ``install`` replaces the
cross-module attributes the certificate pipeline calls with wrappers that
record a span (name, parent, start, end) per call, and returns a function
that puts the originals back.  Spans stay in memory until ``dump``.

The three callbacks ``integrate`` hands to ``solve_rk54`` (the right-hand
side, the accept filter and the snapshot transform) run once per stage or
step, up to a few hundred thousand times per experiment.  They are not
recorded as spans of their own: their call count and total time are summed
onto the enclosing ``rk.solve`` span, which keeps the trace small and its
overhead low.

A span's self time is its duration minus the time its child spans (and
summed callbacks) cover.  ``layer_metrics`` turns one experiment's spans
into the per-layer metrics of the benchmark.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter

# attribute of beckerdoring.experiments -> span name ("<layer>.<what>")
EXPERIMENTS_CALLS = {
    "make_power_law_model": "coefficients.model",
    "make_exponential_tail_model": "coefficients.model",
    "load_rate_table": "coefficients.model",
    "critical_values": "equilibrium.critical",
    "solve_monomer_activity": "equilibrium.activity",
    "equilibrium_profile": "equilibrium.profile",
    "density": "solver.density",
    "integrate": "solver.integrate",
    "detect_threshold": "experiments.threshold",
    "short_time_constant": "experiments.short_time",
    "tail_density": "tails.tail_density",
    "make_params": "supersolution.params",
    "build_supersolution": "supersolution.build",
    "verify_supersolution": "supersolution.verify",
    "check_domination": "maximum_principle.domination",
    "weighted_sum_bound": "supersolution.weighted_sum",
    "stretched_weights": "tails.stretched_weights",
}

# span name -> what to keep from the call's result
SPAN_INFO = {"maximum_principle.domination": lambda report: report.n_snapshots}

RHS = "solver.rhs"
FILTER = "solver.filter"


class Tracer:
    """Spans of one experiment, as lists [name, parent, start, end, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span per call; ``info(result)`` is stored with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        return traced

    def wrap_solver(self, solve):
        """``solve_rk54`` with its callbacks' calls and time summed onto its span."""

        @functools.wraps(solve)
        def traced(f, *args, **kwargs):
            totals = {RHS: [0, 0.0], FILTER: [0, 0.0]}
            f = _summed(f, totals[RHS])
            for key in ("accept_filter", "snapshot_transform"):
                if kwargs.get(key) is not None:
                    kwargs[key] = _summed(kwargs[key], totals[FILTER])

            def info(sol):
                return {
                    "callbacks": totals,
                    "n_fev": sol.stats.n_fev,
                    "n_steps": sol.stats.n_steps,
                    "n_rejected": sol.stats.n_rejected_error + sol.stats.n_rejected_filter,
                    "snapshot_bytes": sol.y_eval.nbytes,
                }

            return self.wrap("rk.solve", solve, info)(f, *args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, parent, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "name": name,
                                     "start": start, "end": end, "info": info}) + "\n")


def _summed(fn, cell):
    def summed(*args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            cell[0] += 1
            cell[1] += perf_counter() - start

    return summed


def install(tracer: Tracer):
    """Wrap the pipeline's cross-module calls; returns the undo function."""
    from beckerdoring import experiments, maximum_principle, solver
    from beckerdoring.coefficients import CoefficientModel

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for attr, name in EXPERIMENTS_CALLS.items():
        patch(experiments, attr, tracer.wrap(name, getattr(experiments, attr), SPAN_INFO.get(name)))
    patch(solver, "solve_rk54", tracer.wrap_solver(solver.solve_rk54))
    patch(solver, "relative_free_energy",
          tracer.wrap("equilibrium.free_energy", solver.relative_free_energy))
    patch(maximum_principle, "tail_density",
          tracer.wrap("tails.tail_density", maximum_principle.tail_density))
    for attr in ("a", "b"):
        patch(CoefficientModel, attr, tracer.wrap("coefficients.rate", getattr(CoefficientModel, attr)))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# per-layer metric -> span whose summed self time it reports
SELF_TIMES = {
    "rk.self_s": "rk.solve",
    "solver.observables_s": "solver.integrate",
    "equilibrium.critical_s": "equilibrium.critical",
    "equilibrium.activity_s": "equilibrium.activity",
    "equilibrium.profile_s": "equilibrium.profile",
    "equilibrium.free_energy_s": "equilibrium.free_energy",
    "tails.tail_density_s": "tails.tail_density",
    "maximum_principle.domination_s": "maximum_principle.domination",
    "supersolution.params_s": "supersolution.params",
    "supersolution.build_s": "supersolution.build",
    "supersolution.verify_s": "supersolution.verify",
    "supersolution.weighted_sum_s": "supersolution.weighted_sum",
    "coefficients.rate_s": "coefficients.rate",
    "coefficients.model_s": "coefficients.model",
    "experiments.threshold_s": "experiments.threshold",
    "experiments.short_time_s": "experiments.short_time",
    "experiments.self_s": "experiments.run",
    "experiments.emit_s": "experiments.emit",
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced experiment that took ``wall_s``.

    ``trace.residual_s`` is the part of ``wall_s`` that no reported self
    time covers: spans with no metric of their own (``solver.density``,
    ``tails.stretched_weights``), the gaps between the top-level spans and
    the part of the wrappers' own cost that falls outside every span.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    callbacks = {RHS: [0, 0.0], FILTER: [0, 0.0]}
    rk = {"n_fev": 0, "n_steps": 0, "n_rejected": 0, "snapshot_bytes": 0}
    snapshots_checked = 0
    for name, parent, start, end, info in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for idx, (name, parent, start, end, info) in enumerate(spans):
        if name == "rk.solve" and info is not None:
            for key, (n, t) in info["callbacks"].items():
                callbacks[key][0] += n
                callbacks[key][1] += t
                covered[idx] += t
            for key in rk:
                rk[key] += info[key]
        if name == "maximum_principle.domination" and info is not None:
            snapshots_checked += info
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[idx]
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    out = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    n_fev = rk["n_fev"]
    attempts = rk["n_steps"] + rk["n_rejected"]
    out.update({
        "rk.self_us_per_fev": 1e6 * out["rk.self_s"] / n_fev if n_fev else 0.0,
        "solver.rhs_s": callbacks[RHS][1],
        "solver.rhs_us": 1e6 * callbacks[RHS][1] / callbacks[RHS][0] if callbacks[RHS][0] else 0.0,
        "solver.filter_s": callbacks[FILTER][1],
        "solver.n_fev": n_fev,
        "solver.n_steps": rk["n_steps"],
        "solver.n_rejected": rk["n_rejected"],
        "solver.accept_ratio": rk["n_steps"] / attempts if attempts else 0.0,
        "solver.integrate_s": inclusive.get("solver.integrate", 0.0),
        "solver.snapshot_bytes": rk["snapshot_bytes"],
        "equilibrium.free_energy_calls": calls.get("equilibrium.free_energy", 0),
        "tails.tail_density_calls": calls.get("tails.tail_density", 0),
        "maximum_principle.snapshots_checked": snapshots_checked,
        "coefficients.rate_calls": calls.get("coefficients.rate", 0),
        "trace.spans": len(spans),
    })
    accounted = sum(out[m] for m in SELF_TIMES) + out["solver.rhs_s"] + out["solver.filter_s"]
    out["trace.residual_s"] = wall_s - accounted
    out["trace.residual_frac"] = out["trace.residual_s"] / wall_s
    return out
