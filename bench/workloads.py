"""Benchmark workloads: the experiment configs each repetition runs.

Every workload is one or more flat configs in the format ``load_config``
reads.  A repetition (one fresh interpreter) runs each config of its
workload once.  Repetition 0 of every run uses the unperturbed density
rho = 1, which is what the golden values in ``golden.json`` were taken at;
every later repetition draws rho from the run's seed, uniformly within
+-5 %, so one run averages over several densities.  All of them stay far
below the critical density rho_s.
"""
from __future__ import annotations

import json
import random

# The template config (``beckerdoring config-template``), spelled out so the
# benchmark does not depend on the code it measures to describe its inputs.
TEMPLATE = {
    "family": "power_law",
    "gamma": 0.5,
    "z_s": 1.0,
    "q": 1.0,
    "mu_c": 0.5,
    "sigma": 1.0,
    "n": 2000,
    "rho": 1.0,
    "init": "monodisperse",
    "t_end": 200.0,
    "snapshots": 401,
    "rel_tol": 1e-08,
    "k_moments": [2.0],
    "stretched": [[1.0, 0.5]],
}

RHO_SPREAD = 0.05


def _cfg(**changes) -> dict:
    return {**TEMPLATE, **changes}


# name -> {label: config}.  BENCHMARK.json records why each workload is
# there and which modules it loads; the sizes keep one experiment at about
# 0.6 to 2.5 s so a run collects at least ten of them.
WORKLOADS: dict[str, dict[str, dict]] = {
    "flagship": {
        "power_law": _cfg(),
        "exponential_tail": _cfg(family="exponential_tail"),
    },
    "stiff_linear": {"power_law": _cfg(gamma=1.0, stretched=[], t_end=50.0, snapshots=101)},
    "fine_grid": {"power_law": _cfg(snapshots=1001)},
    "large_n": {"power_law": _cfg(n=32000, t_end=20.0, snapshots=41)},
}


def rep_rho(seed: int, rep: int) -> float:
    """Density of repetition ``rep`` in a run with ``seed``; 1.0 for rep 0."""
    if rep == 0:
        return 1.0
    rng = random.Random(f"{seed}:{rep}")
    return 1.0 + RHO_SPREAD * (2.0 * rng.random() - 1.0)


def rep_configs(workload: str, seed: int, rep: int) -> dict[str, dict]:
    """Configs of one repetition, keyed by label."""
    rho = rep_rho(seed, rep)
    return {label: {**cfg, "rho": rho} for label, cfg in WORKLOADS[workload].items()}


def config_text(cfg: dict) -> str:
    """Render a config as the flat ``key = value`` text ``load_config`` parses."""
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items())
