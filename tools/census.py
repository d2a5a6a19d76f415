"""Exit-code census of the robustness grid.

Runs every config of the grid that ``tests/test_cli.py``'s robustness
guard draws from (``_robustness_config``: 2 families x 4 gammas x 5 mu_c
x 5 shares x 3 initial shapes, 600 configs) through ``cli.main
experiment`` and ``cli.main verify``, in process, each in its own temporary
directory.  Prints one JSON line per config: its five parameters, the exit
code of ``experiment``, the first stderr line, ``n_fev`` summed over its
``integrate`` calls, the wall time of ``experiment``, the sha1 of each
output file, the ``supersolution`` stage's ``worst_margin`` and
``worst_index`` (null when no sequence was built), the first failing
gating stage (``failed_stage``) and its ``flag`` (null when the run wrote
no verdict or passed, or the stage has no flag), ``summary_body``, the sha1
of ``summary.json`` with its ``config`` key dropped, dumped with sorted keys
(null when no summary was written; a change to the config's echo moves
``files.summary.json`` but not this), the top-level scalars of
``summary.json`` (``SUMMARY_KEYS``: ``z_s``, ``rho_s``, ``z_bar``,
``omega``, ``t0`` and ``verdict``, each null when no summary was written),
so that a move of ``summary_body`` names the keys that moved, and the exit
code of ``verify``
(``verify_exit``); a last line gives the totals, with the number of
configs per cause (``causes``, as ``cause`` names them), the process's peak
resident memory (``ru_maxrss``) as ``peak_rss_mb`` and the package's import cost as ``import_ms``: the
median, over 5 fresh interpreters, of ``import beckerdoring`` plus one
``load_config`` of the template, timed after an untimed ``import numpy``
(without cached bytecode, as under ``PYTHONDONTWRITEBYTECODE=1``, it
includes compiling the package).

    PYTHONPATH=src python tools/census.py > census.jsonl
    python tools/census.py --compare parent.jsonl census.jsonl

``--bench`` runs instead the rho = 1 config of every workload in
``bench/workloads.py`` (read, not changed), one record per workload and
label, so ``--compare`` of two such files checks that every output file of
the benchmark's configs is byte-identical between two trees:

    PYTHONPATH=src python tools/census.py --bench > bench.jsonl

To compare two trees, run this one tool on each, with the tree's package
on the path: ``PYTHONPATH=<tree>/src python tools/census.py --bench``.

``--lines`` runs every grid config and every ``--bench`` config the same
way, under a ``sys.settrace`` line tracer limited to the package's files,
and prints instead, per module, the executable lines of its functions that
no config ran (module-level and class-body code, which runs at import, is
not counted, nor is a line whose only instruction is a function's entry).
It needs no coverage tool.  Such a tracer costs time: on a shared 2-core
x86-64 box tier-1 took about 2x as long under it (31.5 s against 16.1 s;
an earlier measurement read 2.1x, 43.0 s against 20.0 s), and ``--lines``
takes 32.4 s where the untraced grid and bench censuses take 24.8 s.

    PYTHONPATH=src python tools/census.py --lines

``--lines --tests`` also runs tier-1 in this process under the same
tracer, and prints per module the lines that neither a config nor a test
ran: the check that each ``raise`` an input reaches is tested.  On a
shared 2-core x86-64 box tier-1 took 36.7 s under the tracer, against
18.8 s untraced, and ``--lines --tests`` took 66 s in all.

    PYTHONPATH=src python tools/census.py --lines --tests

``--compare`` prints every config whose line differs in anything but the
wall time, the peak memory and the import cost (so in ``verify_exit`` too),
with the keys that moved and their two values; then, for each key of the
records that moved (a top-level one, not ``files``), the number of configs
it moved in and, where both values of some move are numbers, its largest
relative change, so a round-off change reads as one line per key (for
example ``rho_s: moved in 168 configs, largest relative change 0.37``);
then the number
of configs that moved from each cause (exit code with stderr, or failed
stage and flag) to each other, then the number of such configs, and last,
one line per output file, the number of configs whose file moved (for
example ``files.timeseries.csv: 155``); it exits 1 if any config differs.
"""
from __future__ import annotations

import argparse
import contextlib
import dis
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import resource
import statistics
import subprocess
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


def grid_configs():
    """(parameters, config text) of every config of the robustness grid."""
    from test_cli import _robustness_config

    for values in itertools.product(*GRID.values()):
        params = dict(zip(GRID, values))
        yield params, _robustness_config(**params)


def bench_configs():
    """(workload and label, config text) of each benchmark config at rho = 1."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, config_text, rep_configs

    for workload in WORKLOADS:
        for label, cfg in rep_configs(workload, seed=0, rep=0).items():
            yield {"workload": workload, "label": label}, config_text(cfg)


IMPORT_PROBE = """\
import sys, time
import numpy
start = time.perf_counter()
import beckerdoring
from beckerdoring.config import load_config
load_config(sys.argv[1])
print((time.perf_counter() - start) * 1e3)
"""


def import_ms(runs: int = 5) -> float:
    """Median over ``runs`` fresh interpreters of ``IMPORT_PROBE``'s time, in
    ms, importing the package this process imported."""
    import beckerdoring
    from beckerdoring.config import template_text

    src = str(Path(beckerdoring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "template.toml"
        config.write_text(template_text())
        times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config)], env=env,
                                      capture_output=True, text=True, check=True).stdout)
                 for _ in range(runs)]
    return round(statistics.median(times), 2)


SUMMARY_KEYS = ("z_s", "rho_s", "z_bar", "omega", "t0", "verdict")


def summary_fields(summary: Path) -> dict:
    """From a ``summary.json``: the ``supersolution`` stage's worst margin and
    its row, the first failing gating stage with its flag, the sha1 of the
    summary without its ``config`` key (``summary_body``) and the values of
    ``SUMMARY_KEYS``; nulls where the run wrote none, built no sequence or
    failed no stage."""
    data = json.loads(summary.read_text()) if summary.exists() else {}
    stages = data.get("stages", [])
    info = next((s["info"] for s in stages if s["name"] == "supersolution"), {})
    failed = next((s for s in stages if s["gating"] and not s["ok"]), None)
    data.pop("config", None)
    body = hashlib.sha1(json.dumps(data, sort_keys=True).encode()).hexdigest() if data else None
    return {"worst_margin": info.get("worst_margin"), "worst_index": info.get("worst_index"),
            "failed_stage": failed and failed["name"], "flag": failed and failed["info"].get("flag"),
            "summary_body": body, **{key: data.get(key) for key in SUMMARY_KEYS}}


def census(configs):
    """Yield one record per (parameters, config text) pair, then the totals.

    ``experiments.integrate`` goes through a counting wrapper while the
    generator runs, and is put back when it ends or is closed early."""
    import beckerdoring.experiments as experiments
    from beckerdoring.cli import main

    real_integrate = experiments.integrate
    n_fev = 0

    def counted(*args, **kwargs):
        nonlocal n_fev
        trajectory = real_integrate(*args, **kwargs)
        n_fev += trajectory.n_fev
        return trajectory

    experiments.integrate = counted
    try:
        codes: Counter = Counter()
        causes: Counter = Counter()
        verify_codes: Counter = Counter()
        total_fev, total_wall = 0, 0.0
        for params, text in configs:
            n_fev = 0
            with tempfile.TemporaryDirectory() as tmp:
                path, out = Path(tmp) / "exp.toml", Path(tmp) / "o"
                path.write_text(text)
                err = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(["experiment", "--config", str(path), "--out", str(out)])
                wall = time.perf_counter() - start
                files = {p.name: hashlib.sha1(p.read_bytes()).hexdigest() for p in sorted(out.glob("*"))}
                fields = summary_fields(out / "summary.json")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    verify_code = main(["verify", "--config", str(path)])
            codes[code] += 1
            verify_codes[verify_code] += 1
            total_fev += n_fev
            total_wall += wall
            stderr = err.getvalue().splitlines()
            record = {**params, "exit": code, "stderr": stderr[0] if stderr else "", "n_fev": n_fev,
                      "files": files, "wall_s": round(wall, 4), **fields, "verify_exit": verify_code}
            causes[cause(record)] += 1
            yield record
        yield {"configs": sum(codes.values()), "exit_codes": {str(c): codes[c] for c in sorted(codes)},
               "causes": dict(sorted(causes.items())),
               "verify_exit_codes": {str(c): verify_codes[c] for c in sorted(verify_codes)},
               "n_fev": total_fev, "wall_s": round(total_wall, 2),
               "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
               "import_ms": import_ms()}
    finally:
        experiments.integrate = real_integrate


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def cause(record: dict) -> str:
    """A config's outcome: its exit code with the first 40 characters of its
    stderr or, for a verdict, its failed stage and flag, each number in them
    replaced by ``#``, so that one refusal at two densities is one cause."""
    why = record.get("stderr") or " ".join(str(record.get(k)) for k in ("failed_stage", "flag") if record.get(k))
    why = NUMBER.sub("#", why)
    return f"exit {record['exit']}" + (f": {why[:40]}" if why else "")


def key_moves(pairs) -> dict:
    """For each top-level key of the config records, ``files`` aside, that
    moved between the two records of a pair: (the number of configs it
    moved in, its largest relative change |after - before| / max(|before|,
    |after|) over the moves between two numbers, None if it had none)."""
    moves: dict = {}
    for a, b in pairs:
        if "exit" not in a:
            continue  # the totals line
        for key in sorted(a.keys() & b.keys() - {"files"}):
            x, y = a[key], b[key]
            if x == y:
                continue
            count, largest = moves.get(key, (0, None))
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                largest = max(largest or 0.0, abs(y - x) / max(abs(x), abs(y)))
            moves[key] = (count + 1, largest)
    return moves


def compare(before: Path, after: Path) -> int:
    """Print the configs whose records differ in anything but wall time,
    peak memory and import cost, then how many moved from each cause to
    each other."""
    def records(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        return [{k: v for k, v in r.items() if k not in ("wall_s", "peak_rss_mb", "import_ms")} for r in lines]

    def flat(record, prefix=""):
        for key, value in record.items():
            if isinstance(value, dict):
                yield from flat(value, f"{prefix}{key}.")
            else:
                yield f"{prefix}{key}", value

    old, new = records(before), records(after)
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    files: Counter = Counter()  # output file -> configs it moved in
    for a, b in changed:
        fa, fb = dict(flat(a)), dict(flat(b))
        label = {k: v for k, v in a.items() if k in (*GRID, "workload", "label")}
        keys = [k for k in {**fa, **fb} if fa.get(k) != fb.get(k)]
        files.update(k for k in keys if k.startswith("files."))
        moved = [f"{k}: {fa.get(k)!r} -> {fb.get(k)!r}" for k in keys]
        print(f"{json.dumps(label) if label else 'totals'}: {'; '.join(moved)}")
    for key, (count, largest) in sorted(key_moves(changed).items()):
        change = "" if largest is None else f", largest relative change {largest:.3g}"
        print(f"{key}: moved in {count} configs{change}")
    shifts = Counter((cause(a), cause(b)) for a, b in changed if "exit" in a and "exit" in b)
    for (was, now), count in sorted(shifts.items()):
        print(f"{count:5d}  {was} -> {now}")
    print(f"{len(changed)} of {max(len(old), len(new))} records differ" + (
        "" if len(old) == len(new) else f"; the files have {len(old)} and {len(new)} records"))
    for key, count in sorted(files.items()):
        print(f"{key}: {count}")
    return 1 if changed or len(old) != len(new) else 0


def executable_lines(path: Path) -> set[int]:
    """The lines of a module's functions that hold an instruction other than
    a function's entry (RESUME): the lines a line tracer can report."""
    def nested(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                yield const
                yield from nested(const)

    module = compile(path.read_text(), str(path), "exec")
    return {ins.positions.lineno for code in nested(module) if code.co_flags & inspect.CO_OPTIMIZED
            for ins in dis.get_instructions(code) if ins.opname != "RESUME" and ins.positions.lineno}


def lines_not_run(configs, tests: bool = False) -> dict[str, list[int]]:
    """Module file name -> the executable lines of the package that no
    config ran, over ``census`` of every config (without its totals) and,
    with ``tests``, that no test of tier-1 ran either: ``pytest`` runs the
    ``tests`` directory in this process under the same tracer, its report
    going to stderr.  A test that installs a tracer of its own (this
    function, in ``tests/test_census.py``) puts this one back when it is
    done; the lines it runs meanwhile count for its tracer only."""
    import beckerdoring

    package = Path(beckerdoring.__file__).resolve().parent
    seen: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(str(package)):
            return None
        lines = seen.setdefault(frame.f_code.co_filename, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    configs = list(configs)
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        with contextlib.closing(census(configs)) as records:
            for _ in itertools.islice(records, len(configs)):
                pass
        if tests:
            import pytest

            with contextlib.redirect_stdout(sys.stderr):
                failed = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")])
            if failed:
                print(f"warning: tier-1 exited {int(failed)} under the tracer", file=sys.stderr)
    finally:
        sys.settrace(previous)
    return {path.name: sorted(executable_lines(path) - seen.get(str(path), set()))
            for path in sorted(package.glob("*.py"))}


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. "3, 7-9"."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--bench", action="store_true", help="run the benchmark's rho = 1 configs, not the grid")
    parser.add_argument("--lines", action="store_true", help="print the package's lines no grid or bench config runs")
    parser.add_argument("--tests", action="store_true", help="with --lines: nor any test of tier-1")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.tests and not args.lines:
        parser.error("--tests needs --lines")
    if args.lines:
        for name, lines in lines_not_run(itertools.chain(grid_configs(), bench_configs()), args.tests).items():
            print(f"{name}: {len(lines)} lines not run" + (f": {spans(lines)}" if lines else ""))
        sys.exit(0)
    for record in census(bench_configs() if args.bench else grid_configs()):
        print(json.dumps(record), flush=True)
