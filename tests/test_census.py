import contextlib
import itertools
import json
import sys
from pathlib import Path

from beckerdoring import experiments
from beckerdoring.config import template_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import census  # noqa: E402


def _line_of(path: Path, fragment: str) -> int:
    return next(number for number, line in enumerate(path.read_text().splitlines(), 1) if fragment in line)


_SMALL = template_text().replace("n = 2000", "n = 300").replace("t_end = 200.0", "t_end = 10.0")


def test_lines_not_run_reads_the_tracer():
    # one small template run: the domination check runs, the unknown-family
    # refusal does not; every module of the package is listed, and the
    # census's counting wrapper of ``integrate`` is gone afterwards
    tracer, integrate = sys.gettrace(), experiments.integrate
    missing = census.lines_not_run([({"label": "small"}, _SMALL)])
    assert experiments.integrate is integrate
    source = Path(experiments.__file__)
    assert _line_of(source, "dom = check_domination(") not in missing["experiments.py"]
    assert _line_of(source, 'raise ConfigError(f"unknown family') in missing["experiments.py"]
    assert set(missing) == {path.name for path in source.parent.glob("*.py")}
    assert sys.gettrace() is tracer


def test_census_puts_integrate_back():
    integrate = experiments.integrate
    records = census.census([({"label": "small"}, _SMALL)] * 2)
    first = next(records)
    assert first["exit"] == 0 and first["n_fev"] > 0
    assert experiments.integrate is not integrate
    records.close()  # closed before its second config and its totals
    assert experiments.integrate is integrate


def test_summary_body_leaves_out_the_config_echo():
    # init_file is not read under init = "monodisperse": it moves only the
    # config echo, so summary.json's hash but not summary_body
    echo_only = _SMALL.replace('init_file = ""', 'init_file = "unused.txt"')
    with contextlib.closing(census.census([({"label": "a"}, _SMALL), ({"label": "b"}, echo_only)])) as records:
        first, second = itertools.islice(records, 2)
    assert first["files"]["summary.json"] != second["files"]["summary.json"]
    assert first["summary_body"] is not None and first["summary_body"] == second["summary_body"]


def test_spans_joins_consecutive_lines():
    assert census.spans([3, 7, 8, 9, 12]) == "3, 7-9, 12"
    assert census.spans([]) == ""


def test_a_cause_reads_no_numbers():
    # one refusal at two densities is one cause; a verdict's cause is its
    # failed stage and flag, a label's numbers replaced too
    record = {"exit": 11, "stderr": "config error: density 5.283 is not below the critical density: "
                                   "sum_(i<=100000) i Q_i z_s^i = 4.32105 at z_s = 1"}
    other = {**record, "stderr": record["stderr"].replace("5.283", "1.2e+03").replace("4.32105", "-0.5")}
    assert census.cause(record) == census.cause(other) == "exit 11: config error: density # is not below the"
    verdict = {"exit": 2, "stderr": "", "failed_stage": "short_time_bound[k=2.5]", "flag": None}
    assert census.cause(verdict) == "exit 2: short_time_bound[k=#]"


def test_a_record_carries_the_summary_scalars(tmp_path):
    # the top-level scalars of summary.json, nulls where no summary was written
    summary = tmp_path / "summary.json"
    values = {"z_s": 1.003, "rho_s": 4.87, "z_bar": 0.6, "omega": 0.8, "t0": None, "verdict": True}
    summary.write_text(json.dumps({**values, "config": {}, "stages": []}))
    fields = census.summary_fields(summary)
    assert {key: fields[key] for key in census.SUMMARY_KEYS} == values
    missing = census.summary_fields(tmp_path / "none.json")
    assert all(missing[key] is None for key in census.SUMMARY_KEYS)


def test_compare_names_the_summary_keys_that_moved(tmp_path, capsys):
    # rho_s moves in both configs, once from "inf": both are counted, the
    # relative change read from the numeric move; z_s moves in none
    def record(rho_s, body):
        return {"family": "power_law", "exit": 0, "z_s": 1.003, "rho_s": rho_s, "summary_body": body,
                "files": {"summary.json": body}, "wall_s": 1.0}

    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    before.write_text(json.dumps(record(4.96, "a")) + "\n" + json.dumps(record("inf", "b")) + "\n")
    after.write_text(json.dumps(record(4.88, "c")) + "\n" + json.dumps(record(2.67e6, "d")) + "\n")
    assert census.compare(before, after) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"rho_s: moved in 2 configs, largest relative change {0.08 / 4.96:.3g}" in out
    assert "summary_body: moved in 2 configs" in out
    assert not any(line.startswith("z_s:") for line in out)
    assert "files.summary.json: 2" in out
