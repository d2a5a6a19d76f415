"""Flat key = value experiment-config files.

The format is a TOML-style flat table: one ``key = value`` per line,
``#`` comments, double-quoted strings, numbers, booleans and (nested)
lists.  ``template_text`` prints every key with its default and a short
comment; unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .experiments import ExperimentConfig

_INT_KEYS = {f.name for f in fields(ExperimentConfig) if f.type == "int"}

TEMPLATE = """\
# model
family = "power_law"        # power_law | exponential_tail | custom
gamma = 0.5                 # coagulation growth exponent, (0, 1]
z_s = 1.0                   # asymptotic fragmentation/coagulation ratio
q = 1.0                     # power_law perturbation amplitude
mu_c = 0.5                  # family exponent, (0, 1)
sigma = 1.0                 # exponential_tail stretch amplitude
rates_file = ""             # custom family: text file with columns "i a_i b_i"

# initial data (shapes are scaled to hit rho exactly; "file" is raw)
n = 2000                    # truncation length
rho = 1.0                   # target density
init = "monodisperse"       # monodisperse | equilibrium | geometric | file
init_ratio = 0.5            # geometric shape ratio
init_file = ""              # file shape: columns "i c_i"

# integration
t_end = 200.0
snapshots = 401             # uniform output grid size
rel_tol = 1e-08
abs_tol = 0.0               # 0 selects 1e-14 * rho
tail_threshold = 1e-06      # warn when c_N exceeds this share of rho/N

# experiment
k_moments = [2.0]           # algebraic moment orders to certify
stretched = [[1.0, 0.5]]    # (alpha, mu) pairs to certify
omega = 0.0                 # monomer cap; 0 selects z_bar + omega_margin*(z_s - z_bar)
omega_margin = 0.1
delta = 1.0                 # weight-growth bound for the construction
tol_dom = 0.0               # domination slack; 0 selects 1e-10 * rho
n_series = 100000           # truncation for critical-value estimates
seed = 0                    # recorded for randomized corpora; dynamics are deterministic
"""


def template_text() -> str:
    return TEMPLATE


def _strip_comment(value: str) -> str:
    value = value.strip()
    if value.startswith('"'):
        end = value.find('"', 1)
        if end < 0:
            raise ConfigError(f"unterminated string: {value!r}")
        rest = value[end + 1 :].strip()
        if rest and not rest.startswith("#"):
            raise ConfigError(f"trailing junk after string: {value!r}")
        return value[: end + 1]
    return value.split("#", 1)[0].strip()


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = _strip_comment(value)
        if value in ("true", "false"):
            value = value.capitalize()
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"line {lineno}: cannot parse value {value!r}") from exc
    return out


def config_from_dict(values: dict) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cleaned = dict(values)
    for key in _INT_KEYS & set(cleaned):
        cleaned[key] = int(cleaned[key])
    if "k_moments" in cleaned:
        cleaned["k_moments"] = tuple(float(k) for k in cleaned["k_moments"])
    if "stretched" in cleaned:
        pairs = []
        for p in cleaned["stretched"]:
            if len(p) != 2:
                raise ConfigError(f"stretched entries must be pairs, got {p!r}")
            pairs.append((float(p[0]), float(p[1])))
        cleaned["stretched"] = tuple(pairs)
    try:
        return ExperimentConfig(**cleaned)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(parse_config_text(Path(path).read_text()))
