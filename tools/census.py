"""Exit-code census of the robustness grid.

Runs every config of the grid that ``tests/test_cli.py``'s robustness
guard draws from (``_robustness_config``: 2 families x 4 gammas x 5 mu_c
x 5 shares x 3 initial shapes, 600 configs) through ``cli.main
experiment``, in process, each in its own temporary directory.  Prints one
JSON line per config: its five parameters, the exit code, the first
stderr line, ``n_fev`` summed over its ``integrate`` calls, the wall time
and the sha1 of each output file; a last line gives the totals.

    PYTHONPATH=src python tools/census.py > census.jsonl
    python tools/census.py --compare parent.jsonl census.jsonl

``--compare`` prints every config whose line differs in anything but the
wall time, then the number of such configs; it exits 1 if there are any.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

# the sampled_from lists of test_every_run_ends_in_a_verdict_or_a_named_error
GRID = {
    "family": ["power_law", "exponential_tail"],
    "gamma": [0.2, 0.5, 0.8, 1.0],
    "mu_c": [0.2, 0.35, 0.5, 0.65, 0.8],
    "share": [0.3, 0.6, 0.9, 0.97, 0.995],
    "init": ["monodisperse", "equilibrium", "geometric"],
}


def census():
    """Yield one record per config of the grid, then the totals."""
    import beckerdoring.experiments as experiments
    from beckerdoring.cli import main
    from test_cli import _robustness_config

    real_integrate = experiments.integrate
    n_fev = 0

    def counted(*args, **kwargs):
        nonlocal n_fev
        trajectory = real_integrate(*args, **kwargs)
        n_fev += trajectory.n_fev
        return trajectory

    experiments.integrate = counted
    codes: Counter = Counter()
    total_fev, total_wall = 0, 0.0
    for values in itertools.product(*GRID.values()):
        params = dict(zip(GRID, values))
        n_fev = 0
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "exp.toml", Path(tmp) / "o"
            path.write_text(_robustness_config(**params))
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["experiment", "--config", str(path), "--out", str(out)])
            wall = time.perf_counter() - start
            files = {p.name: hashlib.sha1(p.read_bytes()).hexdigest() for p in sorted(out.glob("*"))}
        codes[code] += 1
        total_fev += n_fev
        total_wall += wall
        stderr = err.getvalue().splitlines()
        yield {**params, "exit": code, "stderr": stderr[0] if stderr else "", "n_fev": n_fev,
               "files": files, "wall_s": round(wall, 4)}
    yield {"configs": sum(codes.values()), "exit_codes": {str(c): codes[c] for c in sorted(codes)},
           "n_fev": total_fev, "wall_s": round(total_wall, 2)}


def compare(before: Path, after: Path) -> int:
    """Print the configs whose records differ in anything but wall time."""
    def records(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        return [{k: v for k, v in r.items() if k != "wall_s"} for r in lines]

    old, new = records(before), records(after)
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in changed:
        print(json.dumps(a))
        print(json.dumps(b))
    print(f"{len(changed)} of {max(len(old), len(new))} records differ" + (
        "" if len(old) == len(new) else f"; the files have {len(old)} and {len(new)} records"))
    return 1 if changed or len(old) != len(new) else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    for record in census():
        print(json.dumps(record), flush=True)
