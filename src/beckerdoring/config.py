"""Experiment-config files.

A config file is a TOML 1.0 document whose top-level keys are fields of
``ExperimentConfig``; the dataclass's annotations are the only schema.
``template_text`` prints every key with its default and a short comment.
Unknown keys, values of the wrong type, booleans, non-finite numbers and
values below a key's least admissible one (``_MINIMUM``) are refused with
``ConfigError``.
"""
from __future__ import annotations

import math
import re
import tomllib
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError
from .experiments import ExperimentConfig

_FIELD_TYPES = get_type_hints(ExperimentConfig)
# the least value of a key that has one: an output grid needs two times,
# the integrator two sizes (the equilibrium profile's tail estimate reads
# its last two entries), and a negative tolerance would run as given
_MINIMUM = {"snapshots": 2, "n": 2, "rel_tol": 0.0}

TEMPLATE = """\
# model
family = "power_law"        # power_law | exponential_tail | custom
gamma = 0.5                 # coagulation growth exponent, (0, 1]
z_s = 1.0                   # limit of b_i/a_i, > 0 (custom: the one the table declares)
q = 1.0                     # power_law perturbation amplitude
mu_c = 0.5                  # family exponent, (0, 1)
sigma = 1.0                 # exponential_tail stretch amplitude
rates_file = ""             # custom family: text file with columns "i a_i b_i"

# initial data (shapes are scaled to hit rho exactly; "file" is raw)
n = 2000                    # truncation length, >= 2
rho = 1.0                   # target density
init = "monodisperse"       # monodisperse | equilibrium | geometric | file
init_ratio = 0.5            # geometric shape ratio
init_file = ""              # file shape: columns "i c_i"

# integration
t_end = 200.0
snapshots = 401             # uniform output grid size
rel_tol = 1e-08

# experiment
k_moments = [2.0]           # algebraic moment orders to certify
stretched = [[1.0, 0.5]]    # (alpha, mu) pairs to certify
omega = 0.0                 # monomer cap; 0 selects z_bar + omega_margin*(z_s - z_bar)
omega_margin = 0.1
"""


def template_text() -> str:
    return TEMPLATE


def parse_config_text(text: str) -> dict:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        # the message ends "(at line L, column C)": quote line L, which names the key
        at = re.search(r"\(at line (\d+),", str(exc))
        line = f": {text.splitlines()[int(at[1]) - 1].strip()!r}" if at else ""
        raise ConfigError(f"config is not valid TOML: {exc}{line}") from exc


def _cast(value, hint):
    """``value`` as the field type ``hint``; raises TypeError (or OverflowError,
    for an int past the float range) when it is not one.

    Numbers in lists become floats; a float field keeps an int as written,
    so ``rho = 1`` is reported as 1.
    """
    args = get_args(hint)  # tuple[X, ...] or tuple[X, Y]: a TOML array
    if args and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) == len(items):
            return tuple(float(_cast(v, a)) if a is float else _cast(v, a) for v, a in zip(value, items))
    elif hint is str and isinstance(value, str):
        return value
    # type(), not isinstance: a bool is an int too, and is refused
    elif hint in (int, float) and type(value) in (int, float) and math.isfinite(value):
        if hint is float:
            return value
        if value == int(value):
            return int(value)
    raise TypeError


def config_from_dict(values: dict) -> ExperimentConfig:
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cleaned = {}
    for key, value in values.items():
        try:
            cleaned[key] = _cast(value, _FIELD_TYPES[key])
        except (TypeError, OverflowError):
            # the field's annotation with floats marked finite, e.g. "tuple[finite float, ...]"
            expected = ExperimentConfig.__annotations__[key].replace("float", "finite float")
            raise ConfigError(f"config key {key!r}: expected {expected}, got {value!r}") from None
        if key in _MINIMUM and cleaned[key] < _MINIMUM[key]:
            raise ConfigError(f"config key {key!r}: must be at least {_MINIMUM[key]}, got {value!r}")
    return ExperimentConfig(**cleaned)


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(parse_config_text(Path(path).read_text()))
