import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import beckerdoring as bd
from beckerdoring.cli import main
from beckerdoring.coefficients import _BLOCK, _EVAL_RANGE
from beckerdoring.config import config_from_dict, load_config, parse_config_text, template_text
from beckerdoring.errors import ConfigError, ParameterError, UnboundedGrowthConstantError
from beckerdoring.equilibrium import N_SERIES, support_length
from beckerdoring.experiments import (
    ExperimentConfig, emit_report, preflight, prepare, run_uniform_moment_experiment, weighted_l1_distance,
    write_trajectory_csv,
)
from conftest import monodisperse

SMALL = dict(n=300, t_end=10.0, snapshots=51)


class TestShortTimeConstant:
    def test_linear_weight_formula(self, family_a):
        # eps = 1, A = sup i^(1/2)/i = 1, b_bar = 2: C = (rho + 2) * 1
        phi = np.arange(1, 1001, dtype=float)
        bound = bd.short_time_constant(family_a, phi, 1.0)
        assert bound.eps == pytest.approx(1.0, abs=0)
        assert bound.a_phi == pytest.approx(1.0, abs=0)
        assert bound.c_phi == pytest.approx(3.0, rel=1e-15)

    def test_quadratic_weight_scan_oracle(self, family_a):
        phi = np.arange(1, 1001, dtype=float) ** 2
        bound = bd.short_time_constant(family_a, phi, 1.0)
        i = np.arange(1, 1000, dtype=float)
        oracle = np.max(np.sqrt(i) * (2 * i + 1) / i**2)
        assert bound.a_phi == pytest.approx(float(oracle), rel=1e-14)

    def test_exponential_weight_rejected(self, family_a):
        phi = np.exp(np.arange(1, 400, dtype=float))
        with pytest.raises(UnboundedGrowthConstantError):
            bd.short_time_constant(family_a, phi, 1.0)

    def test_flat_weight_rejected(self, family_a):
        with pytest.raises(ParameterError):
            bd.short_time_constant(family_a, np.ones(100), 1.0)

    def test_zero_weight_rejected(self, family_a):
        with pytest.raises(ParameterError, match="weights must be positive"):
            bd.short_time_constant(family_a, np.arange(100, dtype=float), 1.0)


@pytest.fixture(scope="module")
def setup(family_a):
    crit = bd.critical_values(family_a)
    z_bar = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
    eq = bd.equilibrium_profile(family_a, z_bar, 300)
    return crit, z_bar, eq


class TestDetectThreshold:

    def test_equilibrium_start_is_immediate(self, family_a, setup):
        crit, z_bar, eq = setup
        traj = bd.integrate(eq.profile.copy(), family_a, 5.0, bd.IntegrateOptions(n_snapshots=11))
        omega = z_bar + 0.1 * (crit.z_s - z_bar)
        assert bd.detect_threshold(traj, omega) == 0.0

    def test_monodisperse_settles(self, family_a, setup):
        crit, z_bar, _ = setup
        z2 = bd.solve_monomer_activity(family_a, 2.0, critical=crit)
        traj = bd.integrate(monodisperse(800, 2.0), family_a, 60.0, bd.IntegrateOptions(n_snapshots=121))
        omega = z2 + 0.05 * (crit.z_s - z2)
        t0 = bd.detect_threshold(traj, omega)
        assert t0 is not None and 0.0 < t0 < 60.0

    def test_unreachable_cap_flags(self, family_a, setup):
        _, z_bar, _ = setup
        traj = bd.integrate(monodisperse(300, 1.0), family_a, 10.0, bd.IntegrateOptions(n_snapshots=21))
        assert bd.detect_threshold(traj, 0.5 * z_bar) is None


class TestPipeline:
    def test_equilibrium_start_trivially_passes(self):
        report = run_uniform_moment_experiment(ExperimentConfig(init="equilibrium", **SMALL))
        assert report.verdict
        assert report.t0 == 0.0
        for name in ("integrate", "threshold", "supersolution", "domination"):
            assert report.stage(name).ok

    def test_certified_dominates_observed(self):
        report = run_uniform_moment_experiment(ExperimentConfig(**SMALL))
        stage = report.stage("certified_moment[k=2]")
        assert stage.info["observed_sup"] <= stage.info["certified"]
        stage = report.stage("certified_stretched[alpha=1,mu=0.5]")
        assert stage.info["observed_sup"] <= stage.info["certified"]

    @pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
    def test_weighted_l1_rows_are_their_own(self, family):
        # each row of the convergence shadow's distance is summed over its
        # own support: no other row, however wide, moves its last digits
        config = ExperimentConfig(family=family)
        report = run_uniform_moment_experiment(config)
        q = prepare(config).equilibrium.profile
        states, supports = report.trajectory.states, report.trajectory.supports
        assert supports.tolist() == [support_length(c) for c in states]
        one_row = [weighted_l1_distance(c[None, :s], np.array([s]), q)[0] for c, s in zip(states, supports.tolist())]
        assert weighted_l1_distance(states, supports, q).tolist() == one_row
        assert report.stage("convergence_shadow").info["final_l1_weighted"] == one_row[-1]

    def test_supercritical_refused(self):
        with pytest.raises(bd.SupercriticalError):
            run_uniform_moment_experiment(ExperimentConfig(rho=8.0, **SMALL))

    def test_small_k_refused(self):
        with pytest.raises(ConfigError):
            run_uniform_moment_experiment(ExperimentConfig(k_moments=(1.0,), **SMALL))

    def test_stretched_outside_branch_refused(self):
        with pytest.raises(ConfigError):
            run_uniform_moment_experiment(
                ExperimentConfig(stretched=((1.0, 0.8),), **SMALL)  # mu > 1 - gamma
            )
        with pytest.raises(ConfigError):
            run_uniform_moment_experiment(
                ExperimentConfig(gamma=1.0, z_s=2.0, k_moments=(2.0,), stretched=((1.0, 0.2),), **SMALL)
            )

    @pytest.mark.parametrize("changes, refused", [
        (dict(omega=0.25, **SMALL), True),
        (dict(omega_margin=-0.1, **SMALL), True),
        (dict(SMALL), False),
        # omega = 0.599 lies above z_bar = 0.554 in both, but the two-size
        # system's monomer tends to 0.650 and the five-size one's to 0.559;
        # five sizes carry no weight (the short-time bound needs ten)
        (dict(SMALL, n=2), True),
        (dict(SMALL, n=5, k_moments=(), stretched=()), False),
    ], ids=["low-cap", "negative-margin", "template", "two-sizes", "five-sizes"])
    def test_preflight_refuses_a_cap_the_truncated_equilibrium_reaches(self, changes, refused):
        # z_N, the root of F_N(z) = sum_(i<=N) i Q_i z^i = rho, by bisection
        config = ExperimentConfig(**changes)
        prep = prepare(config)
        i = np.arange(1, config.n + 1)

        def f_n(z):
            return math.fsum(i * prep.equilibrium.profile * (z / prep.z_bar) ** i)

        lo, hi = 0.0, prep.critical.z_s
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f_n(mid) < prep.rho else (lo, mid)
        assert (hi >= prep.omega) == refused
        if not refused:
            assert preflight(config)[0].omega == prep.omega
            return
        with pytest.raises(ParameterError) as exc:
            preflight(config)
        message = str(exc.value)
        assert message.startswith(f"omega = {prep.omega:.6g} is at or below z_N")
        share = 1.0 - prep.equilibrium.rho / prep.rho
        for part in (f"{f_n(prep.omega):.6g} <= rho = {prep.rho:.6g}", f"z_bar = {prep.z_bar:.6g}",
                     f"keeps {share:.3g} of rho past N"):
            assert part in message

    def test_low_cap_fails_threshold_stage(self):
        # at t = 0.5, c_1 = 0.630 is still above omega = 0.599
        report = run_uniform_moment_experiment(ExperimentConfig(stretched=(), **{**SMALL, "t_end": 0.5}))
        assert not report.verdict
        assert not report.stage("threshold").ok

    def test_family_b_passes(self):
        config = ExperimentConfig(
            family="exponential_tail", sigma=1.0, n=400, t_end=20.0, snapshots=81
        )
        report = run_uniform_moment_experiment(config)
        assert report.verdict

    def test_report_round_trips_to_json(self):
        report = run_uniform_moment_experiment(ExperimentConfig(**SMALL))
        blob = json.dumps(report.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["verdict"] is True
        assert any(s["name"] == "domination" for s in parsed["stages"])

    @pytest.mark.parametrize(
        "changes",
        [{}, {"family": "exponential_tail"}, {**SMALL, "t_end": 0.5}],
        ids=["template", "exponential-tail-template", "threshold-fails"],
    )
    def test_report_dict_holds_only_builtin_types(self, changes):
        # to_dict converts nothing: json.dumps writes an np.float64 like a
        # float but raises on np.int64 and np.bool_, so none may reach it
        def leaves(value):
            if type(value) is dict:
                assert all(type(key) is str for key in value)
                value = list(value.values())
            if type(value) in (list, tuple):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        report = run_uniform_moment_experiment(ExperimentConfig(**changes))
        types = {type(leaf) for leaf in leaves(report.to_dict())}
        assert types <= {str, int, float, bool, type(None)}


def _arrays(obj, seen=None):
    """Every array reachable from obj through dataclass fields, dicts,
    tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value, seen)


class TestModelSequencesOnce:
    """An experiment evaluates each model sequence once and slices it."""

    # the final length K of the log-Q prefix on the templates: the partial
    # sum's truncation, past which neither the activity solve nor N = 2000
    # grows it
    PREFIX_LENGTH = {"power_law": 2048, "exponential_tail": 8192}

    @staticmethod
    def _record(monkeypatch) -> dict:
        """The index array of every call of ``CoefficientModel.a`` and ``b``,
        by rate and by the name of the calling function (for the increments
        of log Q, of the function that asked for them)."""
        seen = {"a": {}, "b": {}}
        for name in seen:
            original = getattr(bd.CoefficientModel, name)

            def recorded(self, i, _calls=seen[name], _original=original):
                caller = sys._getframe(1).f_code.co_name
                if caller == "log_q_increments":
                    caller = sys._getframe(2).f_code.co_name
                _calls.setdefault(caller, []).append(np.array(i, dtype=float).ravel())
                return _original(self, i)

            monkeypatch.setattr(bd.CoefficientModel, name, recorded)
        return seen

    # the rates are evaluated by ``scans`` consumers in the preamble, each
    # index once per consumer: the log-Q prefix's a_1..a_{K-1} and
    # b_2..b_K, a block at a time as it grows, and for the exponential tail
    # the model build's 1..10^4 b_bar scan.  The root test's window adds
    # a_i and b_{i+1} for the 10^4 indices i below N_SERIES, once, and no
    # rate in between is evaluated.  An experiment and the supersolution
    # command add ``rate_pairs``' one evaluation, and extend no scan of the
    # preamble: z_s has one producer (the prepare cases keep the ids
    # [power_law-1] and [exponential_tail-2])
    @pytest.mark.parametrize("family,scans,run", [
        pytest.param(family, scans, run, id="-".join([family, str(scans)] + [run] * (run != "prepare")))
        for family, scans in [("power_law", 1), ("exponential_tail", 2)]
        for run in ("prepare", "experiment", "supersolution")
    ])
    def test_prepare_computes_log_q_once(self, monkeypatch, tmp_path, family, scans, run):
        seen = self._record(monkeypatch)
        config = ExperimentConfig(family=family)
        if run == "prepare":
            prepare(config)
        elif run == "experiment":
            assert run_uniform_moment_experiment(config).supersolution is not None
        else:
            path = tmp_path / "exp.toml"
            path.write_text(template_text().replace('family = "power_law"', f'family = "{family}"'))
            assert main(["supersolution", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        b_bar_scan = {} if family == "power_law" else {"_sup_ratio_b_over_a": 1}
        pairs = {} if run == "prepare" else {"rate_pairs": 1}
        assert len(b_bar_scan) == scans - 1
        k, m = self.PREFIX_LENGTH[family], N_SERIES // 10
        for name, first in (("a", 1), ("b", 2)):
            calls = seen[name]
            blocked = calls.pop("detailed_balance")
            (window,) = calls.pop("critical_values")
            assert {caller: len(c) for caller, c in calls.items()} == {**b_bar_scan, **pairs}
            for i in calls.get("_sup_ratio_b_over_a", []):
                assert np.array_equal(i, np.arange(1, _EVAL_RANGE + 1))
            assert all(len(i) <= _BLOCK for i in blocked)
            assert np.array_equal(np.sort(np.concatenate(blocked)), np.arange(first, k + first - 1))
            assert np.array_equal(window, np.arange(N_SERIES - m, N_SERIES) + first - 1)

    @pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
    def test_an_experiment_evaluates_the_rates_once(self, monkeypatch, family):
        # each consumer evaluates the rates once: rate_pairs in one call, the
        # log-Q prefix once per growth as its length doubles from 256 to K
        # (no growth spans more than a block), the root test's window in one
        # call, the exponential tail's b_bar scan once
        seen = self._record(monkeypatch)
        config = ExperimentConfig(family=family)
        report = run_uniform_moment_experiment(config)
        assert report.supersolution is not None  # every consumer of the rates ran
        growths = int(math.log2(self.PREFIX_LENGTH[family] // 256)) + 1
        expected = {"rate_pairs": 1, "detailed_balance": growths, "critical_values": 1}
        if family == "exponential_tail":
            expected["_sup_ratio_b_over_a"] = 1
        for calls in seen.values():
            assert {caller: len(c) for caller, c in calls.items()} == expected

    @pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
    def test_the_preamble_holds_log_q_and_one_term_array(self, family):
        # log Q and the terms of F up to the partial sum's truncation, and the
        # root test's 10^4-index window: 0.5-0.8 MB.  Filled to
        # N_SERIES = 10^5 they took 1.6 MB; evaluated whole, the scan's
        # temporaries took the traced peak to 4.6-5.7 MB
        config = ExperimentConfig(family=family)
        prepare(config)  # lazy imports and first-call set-up are not traced
        tracemalloc.start()
        try:
            prepare(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    def test_the_preamble_keeps_no_log_q_prefix(self):
        config = ExperimentConfig()
        prep = prepare(config)
        sizes = set()
        for array in _arrays(prep):
            while isinstance(array, np.ndarray):
                sizes.add(array.size)
                array = array.base
        assert config.n in sizes and N_SERIES not in sizes


@pytest.fixture(scope="module")
def report():
    return run_uniform_moment_experiment(ExperimentConfig(**SMALL))


class TestEmitReport:

    def test_all_outputs_written(self, report, tmp_path):
        paths = emit_report(report, tmp_path / "out")
        for key in ("summary", "timeseries", "supersolution", "witness", "bounds"):
            assert paths[key].exists()
        header = paths["timeseries"].read_text().splitlines()
        assert header[0].startswith("#family=")
        assert any(line.startswith("#z_bar=") for line in header[:10])
        assert "t,c1,rho,H,M_2,E_1_0.5" in header[8]

    def test_shared_columns_are_formatted_once_for_both_files(self, report, tmp_path):
        paths = emit_report(report, tmp_path / "out")
        trajectory = report.trajectory
        alone = write_trajectory_csv(tmp_path / "alone.csv", trajectory, report.config,
                                     report.z_s, report.z_bar, report.omega)
        assert alone.read_bytes() == paths["timeseries"].read_bytes()
        rows = [line.split(",") for line in paths["timeseries"].read_text().splitlines()[9:]]
        bounds = [line.split(" ") for line in paths["bounds"].read_text().splitlines()[1:]]
        # bounds.dat: t, then each certified key's tracked sum and bound
        keys = list(trajectory.tracked)
        certs = sorted((s for s in report.stages if s.name.startswith("certified_")), key=lambda s: s.name)
        assert len(rows) == len(bounds) == len(trajectory.times) and certs
        for row, line in zip(rows, bounds):
            assert [line[0], *line[1::2]] == [row[0]] + [row[4 + keys.index(s.key)] for s in certs]

    def test_supersolution_columns(self, report, tmp_path):
        paths = emit_report(report, tmp_path / "out")
        lines = paths["supersolution"].read_text().splitlines()
        sol = report.supersolution
        assert lines[:3] == [f"#n={sol.n}", f"#lambda={sol.params.lam!r}", "j,r_j,s_j"]
        assert len(lines) == sol.n_head + 3
        first = lines[3].split(",")
        assert int(first[0]) == 1 and float(first[1]) > 0

    def test_missing_parent_raises_io(self, report, tmp_path):
        with pytest.raises(OSError):
            emit_report(report, tmp_path / "absent" / "out")

    def test_unknown_stage_name_raises(self, report):
        assert report.stage("domination").name == "domination"
        with pytest.raises(KeyError, match="no_such_stage"):
            report.stage("no_such_stage")

    def test_deterministic_bytes(self, report, tmp_path):
        p1 = emit_report(report, tmp_path / "a")
        p2 = emit_report(report, tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


class TestConfigFile:
    def test_equilibrium_start_needs_a_profile(self):
        with pytest.raises(ConfigError, match="equilibrium initial data needs an equilibrium profile"):
            ExperimentConfig(init="equilibrium").initial_state()

    def test_template_matches_defaults(self):
        config = config_from_dict(parse_config_text(template_text()))
        assert config == ExperimentConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_key": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gamma = oops\n")

    def test_comments_and_strings(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('family = "power_law"  # inline comment\nn = 100\nstretched = []\n')
        config = load_config(path)
        assert config.family == "power_law" and config.n == 100 and config.stretched == ()

    def test_pair_shape_enforced(self):
        with pytest.raises(ConfigError):
            config_from_dict({"stretched": [[1.0, 0.5, 0.2]]})

    def test_integral_float_for_int_key(self):
        config = config_from_dict(parse_config_text("n = 2000.0\n"))
        assert config.n == 2000 and type(config.n) is int

    def test_int_for_float_key_is_reported_as_written(self, tmp_path):
        text = "n = 300\nt_end = 10.0\nsnapshots = 51\nrho = 1\n"
        report = run_uniform_moment_experiment(config_from_dict(parse_config_text(text)))
        summary = emit_report(report, tmp_path / "out")["summary"].read_text()
        assert '"rho": 1,' in summary


def test_an_experiment_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests only, so
    # a fresh interpreter runs an experiment, its Rosenbrock phase included,
    # and lists what it imported from scipy
    code = (
        "import json, sys\n"
        "from beckerdoring.experiments import ExperimentConfig, emit_report, run_uniform_moment_experiment\n"
        "report = run_uniform_moment_experiment(ExperimentConfig(n=300, t_end=60.0, snapshots=31))\n"
        "emit_report(report, sys.argv[1])\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([report.trajectory.t_stiff is not None, scipy]))\n"
    )
    src = str(Path(bd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [True, []]
