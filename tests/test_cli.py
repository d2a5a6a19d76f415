import json
import re
import sys

import numpy as np
import pytest

import beckerdoring as bd
from beckerdoring.cli import _exit_code, main
from beckerdoring.config import load_config, template_text
from beckerdoring.errors import ConfigError
from beckerdoring.experiments import dominating_sequence, prepare, run_uniform_moment_experiment


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


def test_verify_ok(small_config, capsys):
    assert main(["verify", "--config", str(small_config)]) == 0
    assert "all_ok=True" in capsys.readouterr().out


def test_verify_failure_exit_2(tmp_path, capsys):
    # tabulated rates with b_i = a_i / i: the detailed-balance ratio diverges
    rates = tmp_path / "rates.txt"
    rates.write_text("\n".join(f"{i} 1.0 {1.0 / i!r}" for i in range(1, 2001)) + "\n")
    config = tmp_path / "custom.toml"
    config.write_text(f'family = "custom"\nrates_file = "{rates}"\nn = 100\nn_series = 2000\n')
    assert main(["verify", "--config", str(config)]) == 2
    assert "ratio_ok=False" in capsys.readouterr().out


def test_equilibrium_block(small_config, capsys):
    assert main(["equilibrium", "--config", str(small_config)]) == 0
    out = capsys.readouterr().out
    for key in ("z_s=", "rho_s=", "z_bar=", "n_cut=", "h_initial="):
        assert key in out


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
    traj = bd.integrate(prep.state0, prep.model, config.t_end, prep.opts)
    for i in np.linspace(0, len(traj.times) - 1, 3).astype(int):
        t, c = traj.times[i], traj.states[i]
        for name, want in ((f"state_t{t:g}.csv", c), (f"tail_t{t:g}.csv", bd.tail_density(c))):
            data = np.loadtxt(out_dir / name, delimiter=",", skiprows=1)
            assert np.array_equal(data[:, 0], np.arange(1, len(want) + 1))
            assert np.array_equal(data[:, 1], want)


def test_written_files_hold_plain_numbers(small_config, tmp_path):
    assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "sim"), "--dump-states", "3"]) == 0
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "exp")]) == 0
    written = sorted(tmp_path.glob("*/*"))
    assert len(written) == 1 + 6 + 5
    for path in written:
        assert "np.float64" not in path.read_text(), path.name


def test_supersolution_export(small_config, tmp_path):
    out_dir = tmp_path / "sup"
    assert main(["supersolution", "--config", str(small_config), "--out", str(out_dir)]) == 0
    witness = json.loads((out_dir / "witness.json").read_text())
    assert witness["verified"] is True and witness["lambda"] > 1.0
    assert (out_dir / "supersolution.csv").exists()


def test_large_n_supersolution_holds_the_head(small_config, tmp_path):
    # N = 32 000: both commands write rows 1..m of r and s, m + 3 lines,
    # and the file reads back to the full arrays the run built
    text = small_config.read_text().replace("n = 300", "n = 32000").replace("t_end = 10.0", "t_end = 3.0")
    config_path = tmp_path / "large.toml"
    config_path.write_text(text)
    config = load_config(config_path)
    prep = prepare(config)
    _, initial, _ = dominating_sequence(prep, config, bd.tail_density(prep.state0.c))
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


def test_experiment_verdict_failure_exit_2(small_config, tmp_path):
    text = small_config.read_text().replace("omega = 0.0", "omega = 0.25")
    bad = small_config.parent / "low_omega.toml"
    bad.write_text(text)
    out_dir = tmp_path / "fail"
    assert main(["experiment", "--config", str(bad), "--out", str(out_dir)]) == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = [s["name"] for s in summary["stages"] if not s["ok"] and s["gating"]]
    assert "threshold" in failed


def _header(path):
    return dict(line[1:].split("=", 1) for line in path.read_text().splitlines() if line.startswith("#"))


def test_commands_agree_on_preamble(small_config, tmp_path, capsys):
    config = str(small_config)
    assert main(["equilibrium", "--config", config]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
    assert main(["supersolution", "--config", config, "--out", str(tmp_path / "sup")]) == 0
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "exp")]) == 0
    simulated = _header(tmp_path / "sim" / "timeseries.csv")
    witness = json.loads((tmp_path / "sup" / "witness.json").read_text())
    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    experiment = _header(tmp_path / "exp" / "timeseries.csv")
    z_bar = summary["z_bar"]
    assert float(printed["z_bar"]) == float(simulated["z_bar"]) == float(experiment["z_bar"]) == z_bar
    assert witness["omega"] == float(experiment["omega"]) == summary["omega"]
    rho = summary["config"]["rho"]
    assert witness["rho"] == float(simulated["rho"]) == float(experiment["rho"]) == rho


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
    ],
)
def test_malformed_config_exit_11(small_config, tmp_path, capsys, line):
    # every value the config's TOML or its field types refuse: exit 11 with
    # the key named, before anything runs or is written
    key = line.split(" = ")[0]
    bad = tmp_path / "bad.toml"
    bad.write_text(re.sub(rf"^{key} = .*$", line, small_config.read_text(), flags=re.M))
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")]) == 11
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["experiment"], id="missing-config"),
        pytest.param(["experiment", "--confg", "x.toml"], id="misspelt-option"),
        pytest.param(["simulate", "--config", "x.toml", "--seed", "7"], id="seed-not-recorded"),
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
    assert "--seed" in capsys.readouterr().out


def test_experiment_seed_is_written_to_summary(small_config, tmp_path):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", str(small_config), "--out", str(out_dir), "--seed", "7"]) == 0
    assert '"seed": 7,' in (out_dir / "summary.json").read_text()


def test_supercritical_config_exit_11(small_config, tmp_path):
    text = small_config.read_text().replace("rho = 1.0", "rho = 9.0")
    sup = small_config.parent / "super.toml"
    sup.write_text(text)
    assert main(["experiment", "--config", str(sup), "--out", str(tmp_path / "o")]) == 11


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


def test_numerical_failure_exit_12(small_config, tmp_path):
    # cap squeezed against z_s: the decay rate degenerates and the moment
    # weights can no longer satisfy the growth bound within the truncation
    text = small_config.read_text().replace("omega = 0.0", "omega = 1.002")
    tight = small_config.parent / "tight.toml"
    tight.write_text(text)
    assert main(["experiment", "--config", str(tight), "--out", str(tmp_path / "o")]) == 12


def test_short_time_growth_past_the_float_range(tmp_path, capsys):
    # C_phi * (t - t_0) passes 709 inside the pre-T0 window, so exp() of it
    # overflows; the ratio is then taken in log space and the run goes on to
    # its own refusal (PhiDecayError, exit 12) instead of a traceback
    text = template_text().replace("mu_c = 0.5", "mu_c = 0.8").replace("t_end = 200.0", "t_end = 50.0")
    text = text.replace('init = "monodisperse"', 'init = "geometric"')
    text = re.sub(r"^stretched = .*$", "stretched = [[1.0, 0.117]]", text, flags=re.M)
    text = re.sub(r"^rho = .*$", f"rho = {0.9 * 4.424719403509092!r}", text, flags=re.M)  # 0.9 rho_s
    path = tmp_path / "growth.toml"
    path.write_text(text)
    config = load_config(path)
    assert (config.mu_c, config.init, config.stretched) == (0.8, "geometric", ((1.0, 0.117),))
    try:
        run_uniform_moment_experiment(config)
    except bd.BeckerDoringError:
        pass  # a named refusal; an OverflowError fails the test
    code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code in (0, 2, 10, 11, 12)
    assert "Traceback" not in capsys.readouterr().err


def test_determinism_bit_identical(small_config, tmp_path):
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "d1")]) == 0
    assert main(["experiment", "--config", str(small_config), "--out", str(tmp_path / "d2")]) == 0
    for name in ("summary.json", "timeseries.csv", "supersolution.csv", "bounds.dat", "witness.json"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_sweep_runs_workers(small_config, tmp_path):
    other = small_config.parent / "second.toml"
    other.write_text(small_config.read_text().replace("rho = 1.0", "rho = 0.5"))
    rc = main(["sweep", str(small_config), str(other), "--out", str(tmp_path / "sw"), "--workers", "2"])
    assert rc == 0
    assert (tmp_path / "sw" / "exp" / "summary.json").exists()
    assert (tmp_path / "sw" / "second" / "summary.json").exists()


def test_sweep_propagates_verdict_failure(small_config, tmp_path):
    failing = small_config.parent / "failing.toml"
    failing.write_text(small_config.read_text().replace("omega = 0.0", "omega = 0.25"))
    rc = main(["sweep", str(small_config), str(failing), "--out", str(tmp_path / "sw2")])
    assert rc == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_reports_every_config(small_config, tmp_path, capfd, workers):
    # a refused config neither hides the verdict of the others nor their exit code
    bad = small_config.parent / "bad.toml"
    bad.write_text(small_config.read_text().replace("rho = 1.0", "rho = 9.0"))
    failing = small_config.parent / "failing.toml"
    failing.write_text(small_config.read_text().replace("omega = 0.0", "omega = 0.25"))
    out_dir = tmp_path / "sw"
    rc = main(["sweep", str(small_config), str(bad), str(failing), "--out", str(out_dir), "--workers", workers])
    assert rc == 11
    captured = capfd.readouterr()
    verdicts = dict(reversed(line.split(" ", 1)) for line in captured.out.splitlines())
    assert verdicts == {str(small_config): "PASS", str(bad): "ERROR(11)", str(failing): "FAIL"}
    assert "config error: density 9 is not below the critical density" in captured.err
    assert json.loads((out_dir / "exp" / "summary.json").read_text())["verdict"] is True
    assert (out_dir / "failing" / "summary.json").exists() and not (out_dir / "bad").exists()


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
