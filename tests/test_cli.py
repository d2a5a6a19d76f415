import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring.cli import _exit_code, main
from beckerdoring.config import load_config, template_text
from beckerdoring.equilibrium import N_SERIES
from beckerdoring.errors import ConfigError
from beckerdoring.experiments import (
    ExperimentConfig, dominating_sequence, preflight, prepare, run_uniform_moment_experiment,
)
import oracles


@pytest.fixture()
def small_config(tmp_path):
    text = (
        template_text()
        .replace("n = 2000", "n = 300")
        .replace("t_end = 200.0", "t_end = 10.0")
        .replace("snapshots = 401", "snapshots = 51")
    )
    path = tmp_path / "exp.toml"
    path.write_text(text)
    return path


def test_config_template_parses(capsys):
    assert main(["config-template"]) == 0
    out = capsys.readouterr().out
    assert "family" in out and "k_moments" in out


def test_every_config_key_is_a_field_and_an_echo(small_config, tmp_path):
    # the template prints each field of the config and nothing else, and
    # summary.json echoes each of them
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(tomllib.loads(template_text())) == fields
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "exp")]) == 0
    assert set(json.loads((tmp_path / "exp" / "summary.json").read_text())["config"]) == fields


# per key: the lines that make a run read it, and a line that moves it off
# the template's value there
_KEY_MOVES = {
    "family": ([], 'family = "exponential_tail"'),
    "gamma": ([], "gamma = 0.4"),
    "z_s": ([], "z_s = 1.2"),
    "q": ([], "q = 2.0"),
    "mu_c": ([], "mu_c = 0.3"),
    "sigma": (['family = "exponential_tail"'], "sigma = 2.0"),
    "rates_file": (['family = "custom"', 'rates_file = "{q1}"'], 'rates_file = "{q2}"'),
    "n": ([], "n = 400"),
    "rho": ([], "rho = 0.8"),
    "init": ([], 'init = "geometric"'),
    "init_ratio": (['init = "geometric"'], "init_ratio = 0.3"),
    "init_file": (['init = "file"', 'init_file = "{c1}"'], 'init_file = "{c2}"'),
    "t_end": ([], "t_end = 8.0"),
    "snapshots": ([], "snapshots = 41"),
    "rel_tol": ([], "rel_tol = 1e-07"),
    "k_moments": ([], "k_moments = [3.0]"),
    "stretched": ([], "stretched = [[0.5, 0.5]]"),
    "omega": ([], "omega = 0.7"),
    "omega_margin": ([], "omega_margin = 0.2"),
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_config_key_moves_an_output(small_config, tmp_path, key):
    # each key, moved where a run reads it, moves the exit code of
    # ``experiment`` or a value of summary.json other than its config echo
    paths = {name: tmp_path / f"{name}.txt" for name in ("q1", "q2", "c1", "c2")}
    i = np.arange(1, 3001)
    for name, q in (("q1", 1.0), ("q2", 2.0)):
        model = bd.make_power_law_model(0.5, 1.0, q, 0.5)
        paths[name].write_text("".join(f"{j} {a!r} {b!r}\n" for j, a, b in zip(i, model.a(i).tolist(), model.b(i).tolist())))
    paths["c1"].write_text("1 1.0\n")
    paths["c2"].write_text("1 0.5\n2 0.25\n")

    def outcome(lines, out):
        text = small_config.read_text()
        for line in lines:
            text = re.sub(rf"^{line.split(' = ')[0]} = .*$", line.format(**paths), text, flags=re.M)
        path = tmp_path / f"{out}.toml"
        path.write_text(text)
        code = main(["experiment", "--config", str(path), "--out", str(tmp_path / out)])
        summary = tmp_path / out / "summary.json"
        body = json.loads(summary.read_text()) if summary.exists() else {}
        body.pop("config", None)
        return code, body

    context, moved = _KEY_MOVES[key]
    before = outcome(context, "before")
    assert before[0] in (0, 2) and before[1], before[0]
    assert outcome([*context, moved], "after") != before


def test_verify_ok(small_config, tmp_path, capsys):
    assert main(["verify", "--config", str(small_config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in lines[:4]] == ["frag_ok", "ratio_ok", "profile_monotone_ok", "all_ok"]
    # then one line per weight: its label, anchor index M (for k = 2 the
    # first j with j / (j - 1) <= delta_star) and the growth constant C_phi
    # of the experiment's pre-T0 stage
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "exp")]) == 0
    stages = json.loads((tmp_path / "exp" / "summary.json").read_text())["stages"]
    c_phi = {s["name"]: s["info"]["c_phi"] for s in stages if s["name"].startswith("short_time_bound")}
    assert lines[4:] == [
        f"moment[k=2] anchor=8 c_phi={c_phi['short_time_bound[k=2]']!r}",
        f"stretched[alpha=1,mu=0.5] anchor=2 c_phi={c_phi['short_time_bound[alpha=1,mu=0.5]']!r}",
    ]


def test_verify_stops_at_the_table_end(tmp_path, capsys):
    # a 500-row power-law table under the scan length N_SERIES = 100000
    rates = tmp_path / "rates.txt"
    model = bd.make_power_law_model(0.5, 1.0, 1.0, 0.5)
    rates.write_text("".join(f"{i} {model.a(i)!r} {model.b(i)!r}\n" for i in range(1, 501)))
    config = tmp_path / "custom.toml"
    config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 100\n')
    assert main(["verify", "--config", str(config)]) == 0
    assert "all_ok=True" in capsys.readouterr().out.splitlines()


def test_verify_failure_exit_2(tmp_path, capsys):
    # tabulated rates with b_i = a_i / i: the detailed-balance ratio diverges
    rates = tmp_path / "rates.txt"
    rates.write_text("\n".join(f"{i} 1.0 {1.0 / i!r}" for i in range(1, 2001)) + "\n")
    config = tmp_path / "custom.toml"
    config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 100\n')
    assert main(["verify", "--config", str(config)]) == 2
    assert "ratio_ok=False" in capsys.readouterr().out


def test_equilibrium_block(small_config, capsys):
    assert main(["equilibrium", "--config", str(small_config)]) == 0
    out = capsys.readouterr().out
    for key in ("z_s=", "rho_s=", "z_bar=", "n_cut=", "h_initial="):
        assert key in out


@pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
def test_summary_writes_the_partial_sum(small_config, tmp_path, family):
    # summary.json's rho_s is L = sum_(i<=n) i Q_i z_s^i at the model's own
    # z_s = 1, within round-off of the 10^5-term sum, the sum the activity
    # solve refuses at; its z_s is the root test's estimate, which omega
    # and lambda were built from
    path = tmp_path / "family.toml"
    path.write_text(small_config.read_text().replace('family = "power_law"', f'family = "{family}"'))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    model = ExperimentConfig(family=family).build_model()
    i = np.arange(1, N_SERIES + 1, dtype=float)
    full = math.fsum((i * np.exp(bd.detailed_balance(model, N_SERIES))).tolist())
    crit = bd.critical_values(model)
    assert summary["rho_s"] == crit.rho_s == pytest.approx(full, rel=1e-12)
    assert summary["z_s"] == crit.z_s > 1.0


def test_summary_rho_s_is_finite_where_the_root_test_diverged(tmp_path):
    # an exponential tail at mu_c = 0.2: the root test's partial sums still
    # grew at 10^5 terms, and summary.json wrote rho_s = "inf"; L is finite
    path, out = tmp_path / "exp.toml", tmp_path / "o"
    path.write_text(_robustness_config("exponential_tail", 0.5, 0.2, 0.3, "monodisperse"))
    model = ExperimentConfig(family="exponential_tail", gamma=0.5, mu_c=0.2).build_model()
    assert math.isinf(oracles.root_test_rho_s(model))
    main(["experiment", "--config", str(path), "--out", str(out)])
    rho_s = json.loads((out / "summary.json").read_text())["rho_s"]
    assert rho_s == bd.critical_values(model).rho_s == pytest.approx(2673524.1, rel=1e-8)


def test_simulate_writes_csv_and_states(small_config, tmp_path):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out_dir), "--dump-states", "3"]) == 0
    csv = (out_dir / "timeseries.csv").read_text().splitlines()
    assert csv[0].startswith("#")
    states = sorted(out_dir.glob("state_t*.csv"))
    assert len(states) == 3
    assert states[0].read_text().splitlines()[0] == "i,c_i"
    tails = sorted(out_dir.glob("tail_t*.csv"))
    assert len(tails) == 3
    assert tails[0].read_text().splitlines()[0] == "j,G_j"


def test_dumped_states_parse_back_to_the_trajectory(small_config, tmp_path):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out_dir), "--dump-states", "3"]) == 0
    config = load_config(small_config)
    prep = prepare(config)
    traj = bd.integrate(prep.c0, prep.model, config.t_end, prep.opts)
    for i in np.linspace(0, len(traj.times) - 1, 3).astype(int):
        t = traj.times[i]
        c = traj.at(t)
        for name, want in ((f"state_t{t:g}.csv", c), (f"tail_t{t:g}.csv", bd.tail_density(c))):
            data = np.loadtxt(out_dir / name, delimiter=",", skiprows=1)
            assert np.array_equal(data[:, 0], np.arange(1, len(want) + 1))
            assert np.array_equal(data[:, 1], want)


def test_written_files_hold_plain_numbers(small_config, tmp_path, capsys):
    # files and stdout print repr() of floats: a NumPy scalar would read np.float64(...)
    assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "sim"), "--dump-states", "3"]) == 0
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "exp")]) == 0
    assert main(["supersolution", "--config", str(small_config), "--out", str(tmp_path / "sup")]) == 0
    written = sorted(tmp_path.glob("*/*"))
    assert len(written) == 1 + 6 + 5 + 2
    for path in written:
        assert "np.float64" not in path.read_text(), path.name
    for command in ("equilibrium", "verify"):
        assert main([command, "--config", str(small_config)]) == 0
    out = capsys.readouterr().out
    assert "tail_bound=" in out and "all_ok=" in out and "uniform_bound=" in out
    assert "np." not in out


def test_supersolution_export(small_config, tmp_path):
    out_dir = tmp_path / "sup"
    assert main(["supersolution", "--config", str(small_config), "--out", str(out_dir)]) == 0
    witness = json.loads((out_dir / "witness.json").read_text())
    assert witness["verified"] is True and witness["lambda"] > 1.0
    assert (out_dir / "supersolution.csv").exists()


def test_outputs_carry_the_bits_of_the_params_the_sequence_was_built_from(small_config, tmp_path, capsys):
    # witness.json, the #lambda line and the stdout of ``supersolution`` read
    # lambda, the switch index and the uniform bound off ``sol.params``
    config = load_config(small_config)
    prep, params, _ = preflight(config)
    initial, _ = dominating_sequence(prep, params, bd.tail_density(prep.c0))
    built = run_uniform_moment_experiment(config).supersolution
    capsys.readouterr()
    for command, sol in (("supersolution", initial), ("experiment", built)):
        assert sol.params == params
        out_dir = tmp_path / command
        assert main([command, "--config", str(small_config), "--out", str(out_dir)]) == 0
        witness = json.loads((out_dir / "witness.json").read_text())
        assert (witness["lambda"], witness["n_switch"], witness["uniform_bound"]) == (
            sol.params.lam, sol.params.n_switch, sol.params.uniform_bound)
        lines = (out_dir / "supersolution.csv").read_text().splitlines()
        assert lines[1] == f"#lambda={sol.params.lam!r}"
        printed = capsys.readouterr().out.splitlines()
        if command == "supersolution":
            assert printed[0] == (f"lambda={sol.params.lam!r} n_switch={sol.params.n_switch} "
                                  f"uniform_bound={sol.params.uniform_bound!r}")


def test_large_n_supersolution_holds_the_head(small_config, tmp_path):
    # N = 32 000: both commands write rows 1..m of r and s, m + 3 lines,
    # and the file reads back to the full arrays the run built
    text = small_config.read_text().replace("n = 300", "n = 32000").replace("t_end = 10.0", "t_end = 3.0")
    config_path = tmp_path / "large.toml"
    config_path.write_text(text)
    config = load_config(config_path)
    prep, params, _ = preflight(config)
    initial, _ = dominating_sequence(prep, params, bd.tail_density(prep.c0))
    built = run_uniform_moment_experiment(config).supersolution
    for command, sol in (("supersolution", initial), ("experiment", built)):
        out_dir = tmp_path / command
        assert main([command, "--config", str(config_path), "--out", str(out_dir)]) == 0
        path = out_dir / "supersolution.csv"
        assert len(path.read_text().splitlines()) == sol.n_head + 3
        r, s = bd.read_supersolution(path)
        assert r.tobytes() == sol.r.tobytes() and s.tobytes() == sol.s.tobytes()


def test_experiment_pass_and_outputs(small_config, tmp_path):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", str(small_config), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["verdict"] is True
    stage_names = {s["name"] for s in summary["stages"]}
    assert {"integrate", "threshold", "supersolution", "domination"} <= stage_names


def test_omega_refused_before_integration(small_config, tmp_path, capsys, monkeypatch):
    # omega = 1.5 is above z_s, so no lambda exists; lambda depends on the
    # model and omega only, so the refusal needs no trajectory
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a config that lambda refuses")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    path = tmp_path / "omega.toml"
    path.write_text(re.sub(r"^omega = .*$", "omega = 1.5", small_config.read_text(), flags=re.M))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "omega")]) == 11
    assert "omega must lie in (0, z_s" in capsys.readouterr().err


def test_supersolution_margin_at_n_32000_reads_the_rates(tmp_path, capsys, monkeypatch):
    # r's geometric continuation underflows from row 2752: the balance rows
    # from there on are the closed form, worst at j = N - 1, where the
    # subnormal floor read -2.3705159961431706e-06 at j = 2888
    def integrate(*args, **kwargs):
        raise AssertionError("the supersolution command integrated")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    path = tmp_path / "large.toml"
    path.write_text(re.sub(r"^n = 2000", "n = 32000", template_text(), flags=re.M))
    assert main(["supersolution", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "verified=True worst_margin=-0.0293970091378801\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "out" / "witness.json").read_text())["worst_margin"] == -0.0293970091378801


def test_experiment_verdict_failure_exit_2(small_config, tmp_path):
    # at t = 0.5, c_1 = 0.630 is still above omega = 0.599
    text = small_config.read_text().replace("t_end = 10.0", "t_end = 0.5")
    bad = small_config.parent / "low_omega.toml"
    bad.write_text(text)
    out_dir = tmp_path / "fail"
    assert main(["experiment", "--config", str(bad), "--out", str(out_dir)]) == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = [s["name"] for s in summary["stages"] if not s["ok"] and s["gating"]]
    assert "threshold" in failed


def test_a_tail_that_has_not_decayed_fails_its_stage(small_config, tmp_path, capsys):
    # a geometric start of ratio 0.99 at N = 300 has c_N = 6.16e-6 rho: no
    # dominating sequence is built above its tail at T0 = 0.  The run still
    # ends in a verdict, with the trajectory written; ``supersolution``
    # refuses the same initial tail as a bad configuration
    text = (small_config.read_text().replace("t_end = 10.0", "t_end = 20.0")
            .replace('init = "monodisperse"', 'init = "geometric"').replace("init_ratio = 0.5", "init_ratio = 0.99"))
    path = tmp_path / "geometric.toml"
    path.write_text(re.sub(r"^stretched = .*$", "stretched = []", text, flags=re.M))
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "[FAIL] supersolution\n" in capsys.readouterr().out
    assert {p.name for p in out_dir.iterdir()} == {"summary.json", "timeseries.csv", "bounds.dat"}
    summary = json.loads((out_dir / "summary.json").read_text())
    stages = {s["name"]: s for s in summary["stages"]}
    assert list(stages) == ["integrate", "threshold", "short_time_bound[k=2]", "supersolution", "convergence_shadow"]
    assert stages["supersolution"]["info"] == {"flag": "tail-not-decayed", "g_N_over_rho": pytest.approx(6.16e-6, rel=1e-3)}
    assert summary["witness"] == {} and summary["verdict"] is False
    assert main(["supersolution", "--config", str(path), "--out", str(tmp_path / "sup")]) == 11
    assert capsys.readouterr().err.startswith("config error: g_N = 6.16e-06 has not decayed below 1e-06 * rho")
    assert not (tmp_path / "sup").exists()


def _header(path):
    return dict(line[1:].split("=", 1) for line in path.read_text().splitlines() if line.startswith("#"))


def test_commands_agree_on_preamble(small_config, tmp_path, capsys):
    # the template's power-law rates, and a table of them for i = 1..3000
    # that declares their limit z_s = 1
    rates = tmp_path / "rates.txt"
    model, i = bd.make_power_law_model(0.5, 1.0, 1.0, 0.5), np.arange(1, 3001)
    rates.write_text("".join(f"{j} {a!r} {b!r}\n" for j, a, b in zip(i, model.a(i).tolist(), model.b(i).tolist())))
    table = tmp_path / "table.toml"
    table.write_text(small_config.read_text().replace('family = "power_law"', 'family = "custom"')
                     .replace('rates_file = ""', f'rates_file = "{rates}"'))
    for path in (small_config, table):
        config, out = str(path), tmp_path / path.stem
        out.mkdir()
        capsys.readouterr()  # the previous config's output
        assert main(["equilibrium", "--config", config]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert main(["simulate", "--config", config, "--out", str(out / "sim")]) == 0
        assert main(["supersolution", "--config", config, "--out", str(out / "sup")]) == 0
        assert main(["experiment", "--config", config, "--out", str(out / "exp")]) == 0
        simulated = _header(out / "sim" / "timeseries.csv")
        witness = json.loads((out / "sup" / "witness.json").read_text())
        summary = json.loads((out / "exp" / "summary.json").read_text())
        experiment = _header(out / "exp" / "timeseries.csv")
        z_bar = summary["z_bar"]
        assert float(printed["z_bar"]) == float(simulated["z_bar"]) == float(experiment["z_bar"]) == z_bar
        assert witness["omega"] == float(simulated["omega"]) == float(experiment["omega"]) == summary["omega"]
        rho = summary["config"]["rho"]
        assert witness["rho"] == float(simulated["rho"]) == float(experiment["rho"]) == rho
        # lambda, n_switch and the bound on r depend on the config alone, not
        # on the tail profile each command builds above
        experiment_witness = json.loads((out / "exp" / "witness.json").read_text())
        for key in ("lambda", "n_switch", "uniform_bound"):
            assert witness[key] == experiment_witness[key]


def test_rate_table_states_its_critical_values(small_config, tmp_path, capsys, monkeypatch):
    # the template's power-law rates for i = 1..3000, declared with their
    # limit z_s = 1: the critical values are that z_s and the table's sum
    # of i Q_i z_s^i, 4.87787 (the root test read z_s = 1.01892 and
    # rho_s = 5.3949, and rho = 5 then solved to z_bar = 1.0048 > z_s)
    rates = tmp_path / "rates.txt"
    model, i = bd.make_power_law_model(0.5, 1.0, 1.0, 0.5), np.arange(1, 3001)
    rates.write_text("".join(f"{j} {a!r} {b!r}\n" for j, a, b in zip(i, model.a(i).tolist(), model.b(i).tolist())))
    table = tmp_path / "table.toml"
    table.write_text(small_config.read_text().replace('family = "power_law"', 'family = "custom"')
                     .replace('rates_file = ""', f'rates_file = "{rates}"'))
    assert main(["equilibrium", "--config", str(table)]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    log_q = bd.detailed_balance(model, 3000)
    assert float(printed["z_s"]) == 1.0
    assert float(printed["rho_s"]) == pytest.approx(math.fsum((i * np.exp(log_q)).tolist()), rel=1e-12)

    def integrate(*args, **kwargs):
        raise AssertionError("a supercritical density was integrated")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    table.write_text(table.read_text().replace("rho = 1.0", "rho = 5.0"))
    assert main(["experiment", "--config", str(table), "--out", str(tmp_path / "out")]) == 11
    assert capsys.readouterr().err == ("config error: density 5 is not below the critical density: "
                                       "sum_(i<=3000) i Q_i z_s^i = 4.87787 at z_s = 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["equilibrium", "experiment"])
def test_a_rate_table_whose_partial_sum_overflows_is_refused(small_config, tmp_path, capsys, monkeypatch, command):
    # 10^5 rows of a_i = 1.009, b_i = 1 at z_s = 1: i Q_i z_s^i = i 1.009^(i-1),
    # whose running sum passes DBL_MAX at row 77 438 (the terms themselves
    # from row 77 963 on), so no critical density can be stated.
    # Both commands refuse the table there, before the assumption scan and
    # before anything is integrated, with no floating-point warning (the
    # sum read inf, and equilibrium printed it and exited 0)
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a rate table whose partial sum overflows")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    rates = tmp_path / "rates.txt"
    rates.write_text("".join(f"{i} 1.009 1.0\n" for i in range(1, 100_001)))
    table = tmp_path / "table.toml"
    table.write_text(small_config.read_text().replace('family = "power_law"', 'family = "custom"')
                     .replace('rates_file = ""', f'rates_file = "{rates}"'))
    out = ["--out", str(tmp_path / "out")] if command == "experiment" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(table), *out]) == 11
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("config error: the critical density is not finite: sum_(i<=100000) "
                                       "i Q_i z_s^i at z_s = 1 leaves the float range at row 77438\n")
    assert not (tmp_path / "out").exists()


def test_certificate_commands_refuse_a_rate_table_verify_rejects(small_config, tmp_path, capsys, monkeypatch):
    # the template's power-law rates for i = 1..3000, declared with z_s = 1.2
    # where they tend to 1: Q_i z_s^i grows to the table's end
    rates = tmp_path / "rates.txt"
    model, i = bd.make_power_law_model(0.5, 1.0, 1.0, 0.5), np.arange(1, 3001)
    rates.write_text("".join(f"{j} {a!r} {b!r}\n" for j, a, b in zip(i, model.a(i).tolist(), model.b(i).tolist())))
    table = tmp_path / "table.toml"
    table.write_text(small_config.read_text().replace('family = "power_law"', 'family = "custom"')
                     .replace('rates_file = ""', f'rates_file = "{rates}"').replace("z_s = 1.0", "z_s = 1.2"))
    assert main(["verify", "--config", str(table)]) == 2
    assert "profile_monotone_ok=False start_index=3000" in capsys.readouterr().out

    def integrate(*args, **kwargs):
        raise AssertionError("integrated a rate table that verify rejects")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    for command in ("experiment", "supersolution"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(table), "--out", str(out_dir)]) == 11, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: rate file {str(rates)!r} fails the standing assumptions: "), err
        assert "profile_monotone_ok=False start_index=3000" in err, err
        assert not out_dir.exists()
    monkeypatch.undo()
    # the commands that certify nothing still run it
    assert main(["simulate", "--config", str(table), "--out", str(tmp_path / "sim")]) == 0
    assert main(["equilibrium", "--config", str(table)]) == 0


@pytest.mark.parametrize(
    "lines, code, message",
    [
        pytest.param(["k_moments = [1.2]"], 11, "moment order k = 1.2 is below max(2 - gamma, 1 + gamma)",
                     id="moment-order"),
        pytest.param(["gamma = 0.1", "stretched = [[1.0, 0.9]]", "n = 2000"], 11,
                     "largest admissible n is 1472", id="overflowing-weight"),
        pytest.param(["omega = 1.5"], 11, "omega must lie in (0, z_s", id="omega-above-z_s"),
        # b_j / a_(j-1) falls to lambda omega = 1.0026 near j = 145 000
        pytest.param(["omega = 1.002", "n = 150000"], 12, "b_j >= lambda omega a_(j-1) still fails at j = 150000",
                     id="no-switch-index"),
        pytest.param(["rho = 9.0"], 11, "density 9 is not below the critical density", id="supercritical"),
        pytest.param(["rho = -1.0"], 11, "density must be positive", id="negative-density"),
        pytest.param(["n = 5"], 11, "weight sequence too short", id="too-few-sizes"),
        pytest.param(["omega = 0.25"], 11, "omega = 0.25 is at or below z_N", id="z_N-reaches-omega"),
        # omega = z_bar: F_N(omega) = rho (1 + 8.7e-13), inside the activity
        # solve's tolerance, so z_N may lie at or below omega
        pytest.param(["omega_margin = 0.0"], 11, "omega = 0.554153 is at or below z_N", id="omega-at-z_bar"),
        # psi of (0.5, 0.245) rises only from j ~ 1660: the certificate stage
        # would refuse it at any horizon, and its test reads neither T0 nor c
        pytest.param(["stretched = [[0.5, 0.245]]"], 12,
                     "numerical failure: weight ratio 0.999133 below 1: the weight is still decreasing",
                     id="inadmissible-weight"),
    ],
)
def test_preflight_refusals_agree(small_config, tmp_path, capsys, monkeypatch, lines, code, message):
    # every refusal that needs no trajectory: ``experiment``, ``supersolution``
    # and ``verify`` exit with one code and one message, and nothing is
    # integrated or written
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a config the preflight refuses")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    text = small_config.read_text()
    for line in lines:
        key = line.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    path = tmp_path / "refused.toml"
    path.write_text(text)
    errors = []
    for command in ("experiment", "supersolution", "verify"):
        out = ["--out", str(tmp_path / command)] if command != "verify" else []
        assert main([command, "--config", str(path), *out]) == code, command
        captured = capsys.readouterr()
        assert message in captured.err, (command, captured.err)
        errors.append(captured.err)
        assert not (tmp_path / command).exists()
    assert errors[0] == errors[1] == errors[2]
    assert captured.out.splitlines()[-1] == "all_ok=True"


@pytest.mark.parametrize(
    "line, stage, column",
    [
        # keys whose stage label (6 significant digits) does not parse back to them
        ("k_moments = [2.1234567]", "certified_moment[k=2.12346]", "M_2.12346"),
        ("stretched = [[1.2345678, 0.5]]", "certified_stretched[alpha=1.23457,mu=0.5]", "E_1.23457_0.5"),
        # two keys with one label: refused, stage names must be unique
        ("k_moments = [2.0, 2.0000001]", None, None),
    ],
)
def test_stage_labels_carry_their_keys(small_config, tmp_path, capsys, line, stage, column):
    key = line.split(" = ")[0]
    path = tmp_path / "labels.toml"
    path.write_text(re.sub(rf"^{key} = .*$", line, small_config.read_text(), flags=re.M))
    out_dir = tmp_path / "out"
    rc = main(["experiment", "--config", str(path), "--out", str(out_dir)])
    if stage is None:
        assert rc == 11
        assert "same stage label 'k=2'" in capsys.readouterr().err
        return
    assert rc == 0
    lines = (out_dir / "timeseries.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines if not r.startswith("#")]
    expected = [row[rows[0].index(column)] for row in rows[1:]]
    bounds = [r.split() for r in (out_dir / "bounds.dat").read_text().splitlines()]
    idx = bounds[0].index(stage) - 1  # the header line starts with "#"
    assert [row[idx] for row in bounds[1:]] == expected


def test_missing_out_parent_exit_10(small_config, tmp_path):
    rc = main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "no" / "such")])
    assert rc == 10


@pytest.mark.parametrize(
    "line",
    [
        pytest.param("family = definitely not parseable", id="not-toml"),
        pytest.param("rho = 1.0\nrho = 0.5", id="repeated-key"),
        pytest.param('gamma = "0.5"', id="string-for-number"),
        pytest.param('n = "abc"', id="string-for-int"),
        pytest.param("n = 300.7", id="fractional-int"),
        pytest.param("n = true", id="bool-for-int"),
        pytest.param("k_moments = 2.0", id="number-for-list"),
        pytest.param('stretched = [[1.0, "a"]]', id="string-in-pair"),
        pytest.param("rho = nan", id="nan"),
        pytest.param("rho = inf", id="inf"),
        pytest.param("snapshots = 0", id="no-snapshots"),
        pytest.param("snapshots = 1", id="one-snapshot"),
        pytest.param("rel_tol = -1e-8", id="negative-rel-tol"),
        # the lines of an older template, each setting a key since removed,
        # and values its range refused then: each is an unknown key now
        pytest.param("tol_dom = 0.0", id="removed-tol-dom"),
        pytest.param("n_series = 100000", id="removed-n-series"),
        pytest.param("delta = 0.5", id="delta-below-1"),
        pytest.param("abs_tol = -1e-14", id="negative-abs-tol"),
        pytest.param("tail_threshold = -1", id="negative-tail-threshold"),
        pytest.param("delta = 1.0", id="removed-delta"),
        pytest.param("abs_tol = 0.0", id="removed-abs-tol"),
        pytest.param("tail_threshold = 1e-06", id="removed-tail-threshold"),
        pytest.param("seed = 0", id="removed-seed"),
        pytest.param("n = 1", id="one-size"),
    ],
)
def test_malformed_config_exit_11(small_config, tmp_path, capsys, line):
    # every value the config's TOML, its field types or their ranges refuse,
    # and every key that is not a field: exit 11 from every command with the
    # key named, before anything runs or is written (a sweep makes its
    # output directory, not the config's)
    key = line.split(" = ")[0]
    bad = tmp_path / "bad.toml"
    text, count = re.subn(rf"^{key} = .*$", line, small_config.read_text(), flags=re.M)
    bad.write_text(text if count else text + line + "\n")
    out = tmp_path / "o"
    for argv in (["equilibrium"], ["verify"], ["simulate", "--out", str(out)],
                 ["supersolution", "--out", str(out)], ["experiment", "--out", str(out)]):
        assert main([argv[0], "--config", str(bad), *argv[1:]]) == 11, argv[0]
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not out.exists()
    assert main(["sweep", str(bad), "--out", str(out)]) == 11
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (out / "bad").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["experiment"], id="missing-config"),
        pytest.param(["experiment", "--confg", "x.toml"], id="misspelt-option"),
        pytest.param(["simulate", "--config", "x.toml", "--seed", "7"], id="seed-not-recorded"),
        pytest.param(["experiment", "--config", "x.toml", "--seed", "7"], id="experiment-seed"),
        pytest.param(["sweep", "x.toml", "--seed", "7"], id="sweep-seed"),
        pytest.param(["verify", "--config", "x.toml", "--out", "x"], id="verify-writes-nothing"),
        pytest.param(["equilibrium", "--config", "x.toml", "--out", "x"], id="equilibrium-writes-nothing"),
    ],
)
def test_usage_error_exit_11(argv, capsys):
    # argparse's own code 2 is the exit code of a failed verdict
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 11
    assert "usage: beckerdoring" in capsys.readouterr().err


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--out" in out


@pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
def test_formula_families_refuse_a_density_at_their_partial_sum(small_config, tmp_path, capsys, monkeypatch, family):
    # L = sum_(i<=n) i Q_i z_s^i at the model's own z_s = 1 bounds rho_s
    # from below, n being where its later terms stop moving it (the sum of
    # all 10^5 terms rounds to the same 6 digits): 1.001 L is refused as
    # the activity solve's first step, before F is evaluated at any iterate
    # and before anything is integrated, by every command that certifies
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a density at or above the partial sum")

    def series_at_activity(*args, **kwargs):
        raise AssertionError("evaluated F for a density at or above the partial sum")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    monkeypatch.setattr("beckerdoring.equilibrium._series_at_activity", series_at_activity)
    model = ExperimentConfig(family=family).build_model()
    i = np.arange(1, N_SERIES + 1, dtype=float)
    full = math.fsum((i * np.exp(bd.detailed_balance(model, N_SERIES))).tolist())
    n_terms = {"power_law": 2048, "exponential_tail": 8192}[family]
    rho = 1.001 * full
    path = tmp_path / "above.toml"
    path.write_text(small_config.read_text().replace('family = "power_law"', f'family = "{family}"')
                    .replace("rho = 1.0", f"rho = {rho!r}"))
    for command in ("experiment", "supersolution", "verify"):
        out = ["--out", str(tmp_path / command)] if command != "verify" else []
        assert main([command, "--config", str(path), *out]) == 11, command
        err = capsys.readouterr().err
        assert err == (f"config error: density {rho:.6g} is not below the critical density: "
                       f"sum_(i<={n_terms}) i Q_i z_s^i = {full:.6g} at z_s = 1\n"), (command, err)
        assert not (tmp_path / command).exists()


def test_simulate_prints_the_truncation_warning(small_config, tmp_path, capsys):
    # at n = 12 the monodisperse run's mass reaches c_N within the horizon
    path = tmp_path / "short.toml"
    path.write_text(small_config.read_text().replace("n = 300", "n = 12"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    warning = capsys.readouterr().out.splitlines()[1]
    assert warning.startswith("warning: truncation tail occupied at t="), warning
    assert warning.endswith("exceeds 1e-06 * rho / N; the truncation may no longer be faithful"), warning


def test_supercritical_config_exit_11(small_config, tmp_path):
    text = small_config.read_text().replace("rho = 1.0", "rho = 9.0")
    sup = small_config.parent / "super.toml"
    sup.write_text(text)
    assert main(["experiment", "--config", str(sup), "--out", str(tmp_path / "o")]) == 11


@pytest.mark.parametrize("values", [
    ["1.0", "nan", "0.1"],
    ["1.0", "0.2", "inf"],
    ["1.0", "-0.1", "0.1"],
    ["0.0", "0.0", "0.0"],
    ["1.0", "np.float64(0.2)", "0.1"],
    ["0.1"] * 301,
], ids=["nan", "inf", "negative", "no-mass", "not-a-number", "mass-past-n"])
def test_bad_initial_state_file_exit_11(small_config, tmp_path, capsys, values):
    # refused where the config is read: a non-finite state would spin the
    # step budget with h = nan, a massless one divide by its density, and
    # the truncation at n = 300 would drop the mass of row 301
    init = tmp_path / "c0.txt"
    init.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values, start=1)))
    config = tmp_path / "file.toml"
    config.write_text(small_config.read_text().replace('init = "monodisperse"', 'init = "file"')
                      .replace('init_file = ""', f'init_file = "{init}"'))
    for command in ("experiment", "simulate", "supersolution", "equilibrium"):
        out = ["--out", str(tmp_path / command)] if command != "equilibrium" else []
        start = time.perf_counter()
        assert main([command, "--config", str(config), *out]) == 11, command
        assert time.perf_counter() - start < 5.0, command
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(init) in err, err
        assert len(values) <= 300 or "puts mass in row 301, past n = 300" in err, err
        assert not (tmp_path / command).exists()


def _file_config(small_config, tmp_path, rho: float) -> Path:
    """The small config started from a file holding a monodisperse state of
    density ``rho``; the config's own ``rho`` stays 1."""
    init = tmp_path / f"c0_{rho:g}.txt"
    init.write_text("".join(f"{i} {rho if i == 1 else 0.0!r}\n" for i in range(1, 301)))
    config = tmp_path / f"file_{rho:g}.toml"
    config.write_text(small_config.read_text().replace('init = "monodisperse"', 'init = "file"')
                      .replace('init_file = ""', f'init_file = "{init}"'))
    return config


def test_initial_state_file_sets_the_density_of_the_activity(small_config, tmp_path):
    # z_bar, and with it omega and the equilibrium, solve the file's
    # density 3, not the config's rho = 1
    path = _file_config(small_config, tmp_path, 3.0)
    config = load_config(path)
    assert config.rho == 1.0
    prep = prepare(config)
    monodisperse = prepare(dataclasses.replace(config, init="monodisperse", init_file="", rho=3.0))
    assert prep.rho == 3.0
    assert prep.z_bar.hex() == monodisperse.z_bar.hex() and prep.omega == monodisperse.omega
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")]) == 0


def test_supercritical_initial_state_file_exit_11(small_config, tmp_path, capsys, monkeypatch):
    # a file of density 6, above rho_s = 4.96, with the config's rho = 1
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a supercritical initial state")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    path = _file_config(small_config, tmp_path, 6.0)
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")]) == 11
    assert "config error: density 6 is not below the critical density" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_initial_state_file_accepts_zero_rows_past_n(tmp_path):
    init = tmp_path / "c0.txt"
    init.write_text("".join(f"{i} {0.1 if i <= 5 else 0.0}\n" for i in range(1, 11)))
    assert ExperimentConfig(n=5, init="file", init_file=str(init)).initial_state().tolist() == [0.1] * 5


@pytest.mark.parametrize("row, line", [
    ("1 np.float64(1.0) 2.0", ""),
    ("1 1.0", ""),
    ("1 nan 2.0", ""),
    ("1 1.0 inf", ""),
    ("", ""),
    ("1 0.0 2.0", ""),
    ("1 1.0 2.0", "z_s = 0.0"),
    ("1 1e-300 1e300", ""),
], ids=["not-a-number", "ragged", "nan", "inf", "gap", "zero-rate", "no-z_s", "overflowing-ratio"])
def test_malformed_rate_table_exit_11(tmp_path, capsys, row, line):
    # numpy's own parse error names neither the file nor the config; it is
    # a bad configuration, not a crash.  A non-finite rate, a missing row 1
    # ("gap"), a zero a_1, a table that declares no z_s and one whose b_1/a_1
    # overflows are refused the same way, with the file named
    rates = tmp_path / "rates.txt"
    rates.write_text(row + "\n" + "".join(f"{i} 1.0 2.0\n" for i in range(2, 101)))
    config = tmp_path / "custom.toml"
    config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 50\n{line}\n')
    for command in ("experiment", "verify"):
        out = ["--out", str(tmp_path / command)] if command == "experiment" else []
        assert main([command, "--config", str(config), *out]) == 11, command
        err = capsys.readouterr().err
        assert err.startswith("config error: rate file ") and str(rates) in err, err
        assert "Traceback" not in err
        assert not (tmp_path / command).exists()


_TABLE = "".join(f"{i} 1.0 2.0\n" for i in range(1, 101))


@pytest.mark.parametrize("lines, files, named", [
    pytest.param(['family = "custom"'], {}, "rates_file", id="custom-without-rates-file"),
    pytest.param(['family = "power-law"'], {}, "unknown family 'power-law'", id="unknown-family"),
    pytest.param(['init = "geometric"', "init_ratio = 1.5"], {}, "init_ratio", id="init-ratio-above-1"),
    pytest.param(['init = "file"', 'init_file = "{c0}"'], {"c0": "1 0.5 0.0\n2 0.25 0.0\n"},
                 "'{c0}' must have 2 columns 'i c_i', got 3", id="init-file-three-columns"),
    pytest.param(['init = "file"', 'init_file = "{c0}"'], {"c0": "1 0.5\n3 0.25\n"},
                 "'{c0}': indices must be 1-based and contiguous", id="init-file-gap"),
    pytest.param(['init = "uniform"'], {}, "unknown init 'uniform'", id="unknown-init"),
    pytest.param(['family = "exponential_tail"', "mu_c = 1.0"], {}, "mu_c", id="exponential-tail-mu-c-1"),
    pytest.param(['family = "custom"', 'rates_file = "{rates}"'], {"rates": "1 1.0 2.0\n"}, "'{rates}'",
                 id="one-row-rate-file"),
    pytest.param(['family = "custom"', 'rates_file = "{rates}"'],
                 {"rates": _TABLE.replace("\n5 1.0 2.0\n", "\n5 1.0 0.0\n")}, "'{rates}'", id="zero-b-5"),
    pytest.param(['family = "custom"', 'rates_file = "{rates}"'],
                 {"rates": _TABLE.replace(" 2.0\n", " 2.0 0.0\n")}, "'{rates}'", id="four-column-rate-file"),
])
def test_config_refusals_exit_11(small_config, tmp_path, capsys, monkeypatch, lines, files, named):
    # a model, rate file, initial shape or initial-state file that a config
    # names and that cannot be built: exit 11 naming the key or the file,
    # and nothing is integrated or written
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a config that cannot be built")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    text = small_config.read_text()
    for line in lines:
        key = line.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", line.format(**paths), text, flags=re.M)
    path = tmp_path / "refused.toml"
    path.write_text(text)
    for command in ("experiment", "verify"):
        out = ["--out", str(tmp_path / command)] if command == "experiment" else []
        assert main([command, "--config", str(path), *out]) == 11, command
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named.format(**paths) in err, (command, err)
        assert not (tmp_path / command).exists()


def test_a_short_rate_table_is_refused_by_verify(tmp_path, capsys):
    # the assumption scan reads 10 rows at least; a 5-row table has too few.
    # ``experiment`` refuses it the same way at every density: the activity
    # solve before the scan takes the table's F as its finite sum
    rates = tmp_path / "rates.txt"
    rates.write_text(_TABLE[: _TABLE.index("6 1.0")])
    config = tmp_path / "custom.toml"
    for rho in (1.0, 0.001):
        config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 5\nrho = {rho!r}\n')
        for command in ("verify", "experiment"):
            out = ["--out", str(tmp_path / command)] if command == "experiment" else []
            assert main([command, "--config", str(config), *out]) == 11, (command, rho)
            assert capsys.readouterr().err == "config error: assumption scan needs n >= 10\n"
            assert not (tmp_path / command).exists()


def test_a_rate_table_whose_log_q_underflows_exit_12(tmp_path, capsys, recwarn):
    # a_4 / b_5 = 1e-600 is 0 in float64, so log Q_5 and every later entry
    # are -inf: refused with its own message, and with no numpy warning
    table = _TABLE.replace("\n4 1.0 2.0\n", "\n4 1e-300 2.0\n").replace("\n5 1.0 2.0\n", "\n5 1.0 1e300\n")
    rates = tmp_path / "rates.txt"
    rates.write_text(table)
    config = tmp_path / "custom.toml"
    config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 50\n')
    for command in ("experiment", "verify"):
        out = ["--out", str(tmp_path / command)] if command == "experiment" else []
        assert main([command, "--config", str(config), *out]) == 12, command
        err = capsys.readouterr().err
        assert err == "numerical failure: log Q_i left the representable range\n", (command, err)
        assert not (tmp_path / command).exists()
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_a_climbing_fragmentation_ratio_fails_verify(small_config, tmp_path, capsys, monkeypatch):
    # a_i = 1 and b_i = 1, but for the last ten rows of 1000, where b_i/a_i
    # climbs to 1.01: the sup of b_i/a_i is still rising at the scan's end
    rates = tmp_path / "rates.txt"
    b = [1.0] * 990 + [1.0 + 1e-3 * k for k in range(1, 11)]
    rates.write_text("".join(f"{i} 1.0 {b_i!r}\n" for i, b_i in enumerate(b, start=1)))
    table = tmp_path / "table.toml"
    table.write_text(small_config.read_text().replace('family = "power_law"', 'family = "custom"')
                     .replace('rates_file = ""', f'rates_file = "{rates}"').replace("n = 300", "n = 100"))
    assert main(["verify", "--config", str(table)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["frag_ok=False b_bar_observed=1.01", out[1], out[2], "all_ok=False"]
    assert out[1].startswith("ratio_ok=True") and out[2] == "profile_monotone_ok=True start_index=1"

    def integrate(*args, **kwargs):
        raise AssertionError("integrated a rate table that verify rejects")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    assert main(["experiment", "--config", str(table), "--out", str(tmp_path / "out")]) == 11
    err = capsys.readouterr().err
    assert err == (f"config error: rate file {str(rates)!r} fails the standing assumptions: "
                   "frag_ok=False b_bar_observed=1.01\n")
    assert not (tmp_path / "out").exists()


def test_overflowing_stretched_weight_exit_11(tmp_path, capsys):
    # exp(n^0.9) overflows float64 past n = 1472; refused before integrating
    text = template_text().replace("gamma = 0.5", "gamma = 0.1")
    text = re.sub(r"^stretched = .*$", "stretched = [[1.0, 0.9]]", text, flags=re.M)
    path = tmp_path / "overflow.toml"
    path.write_text(text)
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 11
    err = capsys.readouterr().err
    assert "(alpha=1.0, mu=0.9)" in err and "n = 2000" in err
    assert "largest admissible n is 1472" in err
    assert not (tmp_path / "o").exists()


def test_overflowing_rates_exit_11(tmp_path, capsys, monkeypatch):
    # exp(sigma (2^mu_c - 1)) overflows at sigma = 2000: the model is refused
    # when it is built, so no command reports b_bar = inf or steps with h = nan
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a model whose rates overflow")

    monkeypatch.setattr("beckerdoring.experiments.integrate", integrate)
    monkeypatch.setattr("beckerdoring.cli.integrate", integrate)
    text = template_text().replace('family = "power_law"', 'family = "exponential_tail"')
    path = tmp_path / "overflow.toml"
    path.write_text(text.replace("sigma = 1.0", "sigma = 2000.0"))
    for command in ("experiment", "verify", "simulate"):
        out = ["--out", str(tmp_path / command)] if command != "verify" else []
        start = time.perf_counter()
        assert main([command, "--config", str(path), *out]) == 11, command
        assert time.perf_counter() - start < 2.0, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: exponential_tail rates overflow at gamma=0.5, z_s=1.0, sigma=2000.0, mu_c=0.5: "
            "sup b_i/a_i is nan\n"
        ), command
        assert not (tmp_path / command).exists()


def test_numerical_failure_exit_12(small_config, tmp_path):
    # cap squeezed against z_s: the decay rate degenerates and the moment
    # weights can no longer satisfy the growth bound within the truncation
    text = small_config.read_text().replace("omega = 0.0", "omega = 1.002")
    tight = small_config.parent / "tight.toml"
    tight.write_text(text)
    assert main(["experiment", "--config", str(tight), "--out", str(tmp_path / "o")]) == 12


def test_short_time_growth_past_the_float_range(tmp_path):
    # C_phi T0 = 71.78 * 19.2 = 1378 for k = 3, so exp(C_phi (t - t_0))
    # overflows inside the pre-T0 window; the ratio is taken in log space
    # and the run certifies.  An overflow raises: a ratio over an infinite
    # exponential would read 0 and pass
    text = _robustness_config(family="exponential_tail", gamma=0.2, mu_c=0.5, share=0.3, init="monodisperse")
    path = tmp_path / "growth.toml"
    path.write_text(re.sub(r"^k_moments = .*$", "k_moments = [3.0]", text, flags=re.M))
    with np.errstate(over="raise"):
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    (info,) = [s["info"] for s in summary["stages"] if s["name"] == "short_time_bound[k=3]"]
    assert info["worst_ratio"] <= 1 + 1e-8
    assert info["c_phi"] * summary["t0"] > 709


def test_determinism_bit_identical(small_config, tmp_path):
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "d1")]) == 0
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "d2")]) == 0
    for name in ("summary.json", "timeseries.csv", "supersolution.csv", "bounds.dat", "witness.json"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the balance product of the right-hand side is at most 64 x 63, below
    # the size at which OpenBLAS splits a gemv across threads, and no sum
    # over a long window goes through BLAS: the template at N = 300 writes
    # the same bytes on one BLAS thread and on two
    config = tmp_path / "exp.toml"
    config.write_text(template_text().replace("n = 2000", "n = 300"))
    src = str(Path(bd.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "beckerdoring", "experiment", "--config", str(config), "--out", str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    names = {"summary.json", "timeseries.csv", "supersolution.csv", "bounds.dat", "witness.json"}
    assert set(outputs[0]) == names and outputs[0] == outputs[1]


def test_cli_import_leaves_out_the_process_pool():
    # only ``sweep --workers`` > 1 runs a pool; every other command starts
    # without importing concurrent.futures
    code = "import sys, beckerdoring.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(bd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_sweep_runs_workers(small_config, tmp_path):
    other = small_config.parent / "second.toml"
    other.write_text(small_config.read_text().replace("rho = 1.0", "rho = 0.5"))
    rc = main(["sweep", str(small_config), str(other), "--out", str(tmp_path / "sw"), "--workers", "2"])
    assert rc == 0
    assert (tmp_path / "sw" / "exp" / "summary.json").exists()
    assert (tmp_path / "sw" / "second" / "summary.json").exists()


def test_sweep_propagates_verdict_failure(small_config, tmp_path):
    failing = small_config.parent / "failing.toml"
    failing.write_text(small_config.read_text().replace("t_end = 10.0", "t_end = 0.5"))
    rc = main(["sweep", str(small_config), str(failing), "--out", str(tmp_path / "sw2")])
    assert rc == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_reports_every_config(small_config, tmp_path, capfd, workers):
    # a refused config neither hides the verdict of the others nor their exit code
    bad = small_config.parent / "bad.toml"
    bad.write_text(small_config.read_text().replace("rho = 1.0", "rho = 9.0"))
    failing = small_config.parent / "failing.toml"
    failing.write_text(small_config.read_text().replace("t_end = 10.0", "t_end = 0.5"))
    out_dir = tmp_path / "sw"
    rc = main(["sweep", str(small_config), str(bad), str(failing), "--out", str(out_dir), "--workers", workers])
    assert rc == 11
    captured = capfd.readouterr()
    verdicts = dict(reversed(line.split(" ", 1)) for line in captured.out.splitlines())
    assert verdicts == {str(small_config): "PASS", str(bad): "ERROR(11)", str(failing): "FAIL"}
    assert "config error: density 9 is not below the critical density" in captured.err
    assert json.loads((out_dir / "exp" / "summary.json").read_text())["verdict"] is True
    assert (out_dir / "failing" / "summary.json").exists() and not (out_dir / "bad").exists()


def test_sweep_reports_a_refused_size_beside_a_passing_config(small_config, tmp_path, capfd):
    # n = 1 is refused where the config is read, so it stays with its config
    one = small_config.parent / "one.toml"
    one.write_text(small_config.read_text().replace("n = 300", "n = 1"))
    rc = main(["sweep", str(small_config), str(one), "--out", str(tmp_path / "sw")])
    assert rc == 11
    captured = capfd.readouterr()
    verdicts = dict(reversed(line.split(" ", 1)) for line in captured.out.splitlines())
    assert verdicts == {str(small_config): "PASS", str(one): "ERROR(11)"}
    assert f"{one}: config error: config key 'n'" in captured.err


@pytest.mark.parametrize("same_path", [False, True])
def test_sweep_refuses_configs_sharing_an_output_dir(small_config, tmp_path, capsys, same_path):
    # out/<stem> per config: a/exp.toml and b/exp.toml, or one path twice,
    # would write one directory twice, so nothing runs
    if same_path:
        other = small_config
    else:
        (tmp_path / "b").mkdir()
        other = tmp_path / "b" / "exp.toml"
        other.write_text(small_config.read_text().replace("rho = 1.0", "rho = 0.5"))
    out_dir = tmp_path / "sw"
    rc = main(["sweep", str(small_config), str(other), "--out", str(out_dir), "--workers", "2"])
    assert rc == 11
    err = capsys.readouterr().err
    assert f"{small_config} and {other} -> {out_dir / 'exp'}" in err
    assert not out_dir.exists()


def test_sweep_failure_messages_name_their_config(small_config, tmp_path, capfd):
    paths = []
    for rho in (7, 9):
        path = small_config.parent / f"rho{rho}.toml"
        path.write_text(small_config.read_text().replace("rho = 1.0", f"rho = {rho}.0"))
        paths.append(path)
    rc = main(["sweep", *map(str, paths), "--out", str(tmp_path / "sw"), "--workers", "2"])
    assert rc == 11
    errors = capfd.readouterr().err.splitlines()
    for rho, path in zip((7, 9), paths):
        assert any(line.startswith(f"{path}: config error: density {rho} ") for line in errors)


def test_failure_message_is_one_write(monkeypatch):
    # sweep workers share stderr; a message and its newline written apart
    # can interleave with another worker's line
    class Stream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    def refuse():
        raise ConfigError("bad value")

    stream = Stream()
    monkeypatch.setattr(sys, "stderr", stream)
    assert _exit_code(refuse, prefix="a.toml: ") == 11
    assert stream.writes == ["a.toml: config error: bad value\n"]


def test_sweep_workers_match_serial_bytes(small_config, tmp_path):
    assert main(["sweep", str(small_config), "--out", str(tmp_path / "ser"), "--workers", "1"]) == 0
    assert main(["sweep", str(small_config), "--out", str(tmp_path / "par"), "--workers", "2"]) == 0
    for name in ("summary.json", "timeseries.csv", "supersolution.csv"):
        serial = (tmp_path / "ser" / "exp" / name).read_bytes()
        parallel = (tmp_path / "par" / "exp" / name).read_bytes()
        assert serial == parallel


def _robustness_config(family: str, gamma: float, mu_c: float, share: float, init: str) -> str:
    """The template at N = 300, t_end = 20 with rho = share * rho_s, rho_s
    the root test's old estimate (``oracles.root_test_rho_s``; share * 10
    where it is infinite, or 1 where the model itself is refused) and one
    stretched weight of admissible order mu = (1 - gamma) / 2, none at
    gamma = 1, where the linear branch refuses them."""
    config = ExperimentConfig(family=family, gamma=gamma, mu_c=mu_c)
    try:
        rho_s = oracles.root_test_rho_s(config.build_model())
        rho = share * (rho_s if math.isfinite(rho_s) else 10.0)
    except bd.ParameterError:
        rho = 1.0
    text = template_text().replace("n = 2000", "n = 300").replace("t_end = 200.0", "t_end = 20.0")
    for key, value in [("family", f'"{family}"'), ("gamma", gamma), ("mu_c", mu_c), ("rho", repr(rho)),
                       ("init", f'"{init}"'), ("stretched", f"[[1.0, {(1 - gamma) / 2!r}]]" if gamma < 1 else "[]")]:
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["power_law", "exponential_tail"]),
    gamma=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    mu_c=st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]),
    share=st.sampled_from([0.3, 0.6, 0.9, 0.97, 0.995]),
    init=st.sampled_from(["monodisperse", "equilibrium", "geometric"]),
)
def test_every_run_ends_in_a_verdict_or_a_named_error(family, gamma, mu_c, share, init):
    # a bare exception propagates out of main and fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "exp.toml", Path(tmp) / "o"
        path.write_text(_robustness_config(family, gamma, mu_c, share, init))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["experiment", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 10, 11, 12)
        if (out / "summary.json").exists():
            json.loads((out / "summary.json").read_text(), parse_constant=_refuse_nan)


def test_robustness_run_switches_at_its_first_veto(tmp_path):
    # a run of the robustness space that draws one positivity veto early:
    # that veto ends its explicit steps (measured 771 evaluations).  A veto
    # that only held the explicit steps just under the filter's limit left
    # it at that limit for the rest of the run (7762 evaluations)
    path = tmp_path / "veto.toml"
    path.write_text(_robustness_config("power_law", 0.8, 0.2, 0.6, "geometric"))
    config = load_config(path)
    prep = prepare(config)
    traj = bd.integrate(prep.c0, prep.model, config.t_end, prep.opts)
    assert traj.t_stiff is not None
    assert traj.n_rejected_filter == 1
    assert traj.n_fev <= 1000


def _refuse_nan(name):
    if name == "NaN":
        raise AssertionError("summary.json holds NaN")
    return float(name)
