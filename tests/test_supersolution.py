import collections
import dataclasses
import functools
import math

import numpy as np
import pytest

import beckerdoring as bd
import oracles
from beckerdoring.equilibrium import support_length
from beckerdoring.errors import ConfigError, NoSwitchIndexError, ParameterError, PhiDecayError
from beckerdoring.experiments import (
    ExperimentConfig,
    detect_threshold,
    dominating_sequence,
    export_supersolution,
    preflight,
    prepare,
    read_supersolution,
    write_columns,
)
from beckerdoring import supersolution
from beckerdoring.supersolution import SupersolutionParams
from beckerdoring.tails import stretched_weights, tail_density


def random_profile(rng, n, rho):
    c = rng.random(n) * np.exp(-np.arange(n) / 20.0)
    c[-n // 10 :] = 0.0
    c *= rng.uniform(0.3, 1.0) * rho / math.fsum(c)
    return tail_density(c)


def random_model(rng):
    gamma = rng.uniform(0.2, 0.9)
    z_s = rng.uniform(0.5, 2.0)
    mu = rng.uniform(0.2, 0.8)
    if rng.integers(0, 2):
        return bd.make_power_law_model(gamma, z_s, rng.uniform(0.3, 2.0), mu)
    return bd.make_exponential_tail_model(gamma, z_s, rng.uniform(0.3, 1.5), mu)


class TestChooseLambda:
    def test_constant_rates(self, half_model):
        params = bd.make_params(half_model, 1.0, 1.0, n_max=2000, z_s=half_model.z_s_param)
        assert params.lam == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert params.n_switch == 1

    def test_family_a(self, family_a):
        params = bd.make_params(family_a, 0.5, 1.0, n_max=2000, z_s=family_a.z_s_param)
        assert params.lam == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert params.n_switch == 1

    def test_cap_too_high_rejected(self, family_a):
        with pytest.raises(ParameterError):
            bd.make_params(family_a, family_a.z_s_param, 1.0, z_s=family_a.z_s_param)
        with pytest.raises(ParameterError):
            bd.make_params(family_a, 2.0, 1.0, z_s=family_a.z_s_param)

    def test_delayed_switch_index(self):
        # fragmentation approaches z_s from below: the switch moves inward
        n = 500
        i = np.arange(1, n + 1, dtype=float)
        b = 1.0 * (1.0 - 0.6 * np.exp(-i / 15.0))
        model = bd.make_custom_model(np.ones(n), b, gamma=1.0, z_s=1.0)
        params = bd.make_params(model, 0.8, 1.0, n_max=n, z_s=model.z_s_param)
        assert params.n_switch > 1
        js = np.arange(max(2, params.n_switch), n + 1, dtype=float)
        assert np.all(model.b(js) >= params.lam * 0.8 * model.a(js - 1))

    def test_no_switch_index_error(self):
        # fragmentation crawls up to z_s so slowly that b_j < lambda omega a_{j-1}
        # still holds at the end of the scan
        n = 200
        j = np.arange(1, n + 1, dtype=float)
        b = 1.0 * (1.0 - 0.3 * j**-0.05)
        model = bd.make_custom_model(np.ones(n), b, gamma=1.0, z_s=1.0)
        with pytest.raises(NoSwitchIndexError):
            bd.make_params(model, 0.95, 1.0, n_max=n, z_s=model.z_s_param)

    @pytest.mark.parametrize("changes, match", [
        (dict(lam=1.0), r"need lambda > 1"),
        (dict(omega=0.0), "omega and rho must be positive"),
        (dict(n_switch=0), "switch index must be >= 1"),
    ], ids=["lambda-at-1", "zero-omega", "zero-switch-index"])
    def test_direct_construction_refused(self, changes, match):
        # parameters built by hand, not by make_params, are still checked
        with pytest.raises(ParameterError, match=match):
            SupersolutionParams(**{**dict(omega=1.0, rho=1.0, lam=1.5, n_switch=1), **changes})

    def test_make_params_is_the_only_producer(self):
        assert not hasattr(bd, "choose_lambda")
        assert not hasattr(supersolution, "choose_lambda")


class TestBuildSupersolution:
    def test_hand_recursion(self, half_model):
        # lambda = 3/2, omega = 1, rho = 1, g_j = 2^-j
        params = SupersolutionParams(omega=1.0, rho=1.0, lam=1.5, n_switch=1)
        n = 60
        g = 0.5 ** np.arange(1, n + 1)
        sol = bd.build_supersolution(half_model, params, g)
        assert sol.s[0] == pytest.approx(11.0 / 12.0, rel=1e-15)
        assert sol.s[1] == pytest.approx(11.0 / 18.0, rel=1e-15)
        # full r recomputed by an independent loop
        s = np.zeros(n)
        s[0] = 1.0 / 1.5 + (g[0] - g[1])
        for j in range(1, n):
            h = g[j] - (g[j + 1] if j + 1 < n else 0.0)
            s[j] = max(s[j - 1] / 1.5, h)
        r = np.array([s[j:].sum() + s[-1] / 0.5 for j in range(n)])
        assert sol.r == pytest.approx(r, rel=1e-12)

    def test_zero_profile_geometric(self, half_model):
        params = SupersolutionParams(omega=1.0, rho=1.0, lam=1.5, n_switch=1)
        n = 40
        sol = bd.build_supersolution(half_model, params, np.zeros(n))
        expected_s = (1.0 / 1.5) * 1.5 ** -np.arange(n, dtype=float)
        assert sol.s == pytest.approx(expected_s, rel=1e-12)
        check = bd.verify_supersolution(sol.r, half_model, 1.0, 1.0)
        assert check.ok and check.worst_margin < 0

    def test_wide_growth_bound_inflates_first_increment(self):
        # at omega = 3e9 the 1 + 1/omega cap is within 1e-9 of 1 and is not
        # taken: lambda = sqrt(z_s/omega) = 1.1547, and omega (lambda - 1) =
        # 4.6e8 > 1 then needs the inflated start to keep r_1 at the density
        n = 80
        model = bd.make_custom_model(np.ones(n), 4e9 * np.ones(n), gamma=1.0, z_s=4e9)
        params = bd.make_params(model, 3e9, 1.0, n_max=n, z_s=model.z_s_param)
        assert params.lam == math.sqrt(4e9 / 3e9)
        assert params.omega * (params.lam - 1.0) > 1.0
        sol = bd.build_supersolution(model, params, np.zeros(n))
        assert sol.r[0] >= 1.0 * (1 - 1e-12)
        check = bd.verify_supersolution(sol.r, model, 3e9, 1.0)
        assert check.ok

    def test_domination_and_shape(self, family_a):
        rng = np.random.default_rng(8)
        g = random_profile(rng, 300, 1.0)
        params = bd.make_params(family_a, 0.6, 1.0, z_s=family_a.z_s_param)
        sol = bd.build_supersolution(family_a, params, g)
        assert np.all(sol.r >= g)
        ns = sol.params.n_switch
        assert np.all(np.diff(sol.r[ns - 1 :]) <= 0.0)
        assert sol.r[0] >= 1.0 * (1 - 1e-12)
        assert np.max(sol.r) <= sol.params.uniform_bound * (1 + 1e-12)

    @pytest.mark.parametrize(
        "g_builder,match",
        [
            (lambda n: np.linspace(0.1, 0.5, n), "non-increasing"),
            (lambda n: np.linspace(2.0, 0.0, n), "exceeds the density"),
            (lambda n: np.linspace(1.0, 0.5, n), "decayed"),
            (lambda n: np.zeros(2), "profile too short"),
            (lambda n: np.linspace(0.5, -0.1, n), "profile must be non-negative"),
        ],
    )
    def test_rejects_bad_profiles(self, family_a, g_builder, match):
        params = bd.make_params(family_a, 0.6, 1.0, z_s=family_a.z_s_param)
        with pytest.raises((ParameterError, NoSwitchIndexError), match=match):
            bd.build_supersolution(family_a, params, g_builder(100))

    def test_switch_index_needs_room(self, family_a):
        params = dataclasses.replace(bd.make_params(family_a, 0.6, 1.0, z_s=family_a.z_s_param), n_switch=99)
        with pytest.raises(NoSwitchIndexError, match="switch index 99 leaves no room in a truncation of length 100"):
            bd.build_supersolution(family_a, params, np.zeros(100))


def _reference_increments(params, g):
    """s_j = max(s_{j-1} / lambda, h_j) over every index, the loop that
    ``build_supersolution`` runs only up to the support of g."""
    n, ns, lam = len(g), params.n_switch, params.lam
    h = np.append(g[:-1] - g[1:], g[-1])
    s = np.zeros(n)
    s_start = params.rho / (lam * params.omega)
    if params.omega * (lam - 1.0) > 1.0:
        s_start = max(s_start, params.rho * (lam - 1.0) / lam)
    s[ns - 1] = s_start + h[ns - 1]
    inv_lam = 1.0 / lam
    for j in range(ns, n):
        s[j] = max(s[j - 1] * inv_lam, h[j])
    return s


# the two templates and the N = 32 000 variant
PIPELINE_CONFIGS = [
    {"family": "power_law"},
    {"family": "exponential_tail"},
    {"family": "power_law", "n": 32_000, "t_end": 20.0, "snapshots": 41},
]


@functools.cache
def _pipeline(items: tuple) -> tuple:
    """Config, preamble, the state at T0 and three tail profiles: the
    pipeline's g = G(T0) on its own output grid, from a run cut at t = 3
    (T0 is 1.0 on these configs), the initial profile, and a step whose
    last drop outweighs the decayed increment."""
    config = ExperimentConfig(**dict(items))
    prep = prepare(config)
    grid = np.linspace(0.0, config.t_end, config.snapshots)
    opts = dataclasses.replace(prep.opts, t_eval=grid[grid <= 3.0])
    traj = bd.integrate(prep.c0, prep.model, 3.0, opts)
    c_t0 = traj.at(detect_threshold(traj, prep.omega))
    step = np.where(np.arange(config.n) < 30, 0.5 * prep.rho, 0.0)
    return config, prep, c_t0, (tail_density(c_t0), tail_density(prep.c0), step)


def pipeline(changes: dict) -> tuple:
    return _pipeline(tuple(sorted(changes.items())))


class TestSupportTrimmedRecurrence:
    """The increments past the support of g are the full loop's, bit for bit."""

    @pytest.mark.parametrize("changes", PIPELINE_CONFIGS)
    def test_equals_full_loop(self, changes):
        config, prep, _, profiles = pipeline(changes)
        for g in profiles:
            _, params, _ = preflight(config)
            sol, _ = dominating_sequence(prep, params, g)
            assert max(support_length(g), params.n_switch) < config.n // 10
            assert sol.s.tobytes() == _reference_increments(params, g).tobytes()


class TestVerifySupersolution:
    def test_needs_three_rows(self, family_a):
        with pytest.raises(ParameterError, match="sequence too short to verify"):
            bd.verify_supersolution(np.ones(2), family_a, 0.6, 1.0)

    def test_constant_sequence(self, family_a):
        r = np.full(50, 2.0)
        check = bd.verify_supersolution(r, family_a, 0.5, 2.0)
        assert check.ok

    def test_decaying_non_supersolution_located(self, ones_model):
        # r = g = 2^-j with omega close to z_s: balance flips positive
        r = 0.5 ** np.arange(1, 40)
        check = bd.verify_supersolution(r, ones_model, 0.9, r[0])
        assert not check.ok
        assert check.worst_index is not None and check.worst_margin > 0

    def test_round_trip_corpus(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            model = random_model(rng)
            rho = rng.uniform(0.5, 2.0)
            z_s = model.z_s_param
            omega = rng.uniform(0.2, 0.9) * z_s
            g = random_profile(rng, 300, rho)
            params = bd.make_params(model, omega, rho, n_max=2000, z_s=model.z_s_param)
            sol = bd.build_supersolution(model, params, g)
            check = bd.verify_supersolution(sol.r, model, omega, rho)
            assert check.ok, (model.family, omega, z_s, check.worst_margin)


@pytest.fixture(scope="module")
def built(family_a):
    rng = np.random.default_rng(77)
    g = random_profile(rng, 300, 1.0)
    params = bd.make_params(family_a, 0.6, 1.0, z_s=family_a.z_s_param)
    return params, g, bd.build_supersolution(family_a, params, g)


class TestWeightedSumBound:

    @pytest.mark.parametrize("weight", ["linear", "quadratic", "stretched"])
    def test_admissible_weights_bounded(self, built, weight):
        params, g, sol = built
        j = np.arange(1, 301, dtype=float)
        phi = {"linear": j, "quadratic": j**2, "stretched": np.exp(np.sqrt(j))}[weight]
        wb = bd.weighted_sum_bound(sol.r, g, phi, params, bd.anchor_index(phi, params))
        assert wb.lhs <= wb.rhs

    def test_zero_profile_bound_is_constant(self, half_model):
        params = SupersolutionParams(omega=1.0, rho=1.0, lam=1.5, n_switch=1)
        n = 40
        g = np.zeros(n)
        sol = bd.build_supersolution(half_model, params, g)
        phi = np.arange(1, n + 1, dtype=float)
        wb = bd.weighted_sum_bound(sol.r, g, phi, params, bd.anchor_index(phi, params))
        assert wb.rhs == pytest.approx(wb.c_used, rel=1e-15)
        assert wb.lhs <= wb.rhs

    def test_too_fast_growth_rejected(self, built):
        params, _, _ = built
        phi = 3.0 ** np.arange(1, 301, dtype=float)
        with pytest.raises(PhiDecayError, match="weight ratio 3 still above delta_star"):
            bd.anchor_index(phi, params)

    def test_still_decreasing_weight_named(self, built):
        # the stretched psi-weight of (0.5, 0.245) rises only from j ~ 1660:
        # at N = 300 its ratio is below 1, not above delta_star
        params, _, _ = built
        phi = stretched_weights(0.5, 0.245).psi(300)
        assert phi[-1] < phi[-2]
        with pytest.raises(PhiDecayError, match="below 1: the weight is still decreasing") as err:
            bd.anchor_index(phi, params)
        assert "delta_star" not in str(err.value)

    def test_zero_weight_refused(self, built):
        params, _, _ = built
        phi = np.arange(300, dtype=float)  # psi_1 = 0
        with pytest.raises(ParameterError, match="weights must be positive"):
            bd.anchor_index(phi, params)

    def test_anchor_needs_a_row_below_the_truncation_end(self, built):
        # n_switch = N leaves no M <= N - 1, whatever the weight
        params, _, _ = built
        phi = np.arange(1, 301, dtype=float)
        with pytest.raises(PhiDecayError, match="no admissible anchor index within the truncation"):
            bd.anchor_index(phi, dataclasses.replace(params, n_switch=300))

    def test_lengths_must_match(self, built):
        params, g, sol = built
        phi = np.arange(1, 301, dtype=float)
        with pytest.raises(ParameterError, match="r, g and psi must share the truncation length"):
            bd.weighted_sum_bound(sol.r, g, phi[:-1], params, bd.anchor_index(phi, params))

    def test_monotone_in_omega(self, family_a):
        # above the turnover the dominating sequence grows with the cap
        rng = np.random.default_rng(15)
        g = random_profile(rng, 300, 1.0)
        previous = None
        for omega in (0.3, 0.5, 0.7, 0.9):
            params = bd.make_params(family_a, omega, 1.0, z_s=family_a.z_s_param)
            sol = bd.build_supersolution(family_a, params, g)
            if previous is not None:
                assert np.all(sol.r >= previous * (1 - 1e-12))
            previous = sol.r


def _full_support_profile(n: int, rho: float) -> np.ndarray:
    # positive at every size and below TAIL_DECAY_TOL * rho at N
    return rho * np.exp(-15.0 * np.arange(1, n + 1) / n)


def _sequence(prep, config, g):
    """The dominating sequence the commands build above g."""
    return dominating_sequence(prep, preflight(config)[1], g)[0]


def _switch_past_support() -> tuple:
    # fragmentation approaches z_s from below, so the switch index (27)
    # lies past the support (1) of a monodisperse tail
    n = 500
    i = np.arange(1, n + 1, dtype=float)
    model = bd.make_custom_model(np.ones(n), 1.0 - 0.6 * np.exp(-i / 15.0), gamma=1.0, z_s=1.0)
    params = bd.make_params(model, 0.8, 0.5, n_max=n, z_s=model.z_s_param)
    g = np.zeros(n)
    g[0] = 0.5
    return params, bd.build_supersolution(model, params, g)


def _built_cases() -> list:
    """(label, Supersolution) for G(T0) of the pipeline configs, a profile
    whose support fills N and a switch index past the support of g."""
    cases = []
    for changes in PIPELINE_CONFIGS:
        config, prep, _, (g_t0, *_) = pipeline(changes)
        cases.append((f"G(T0) n={config.n} {config.family}", _sequence(prep, config, g_t0)))
        if config.n == 2000 and config.family == "power_law":
            sol = _sequence(prep, config, _full_support_profile(config.n, prep.rho))
            assert sol.n_head == config.n  # nothing to rebuild
            cases.append(("full support", sol))
    params, sol = _switch_past_support()
    assert sol.n_head == params.n_switch > 1
    cases.append(("switch past support", sol))
    return cases


def _old_layout(r: np.ndarray, s: np.ndarray) -> str:
    """The full-length layout ``export_supersolution`` wrote before it
    wrote only the head: one header line and all N rows."""
    rows = zip(range(1, len(r) + 1), r.tolist(), s.tolist())
    return "j,r_j,s_j\n" + "".join(f"{j},{x!r},{y!r}\n" for j, x, y in rows)


class TestReadSupersolution:
    """``read_supersolution`` gives back the built r and s bit for bit."""

    def test_rebuilds_the_built_arrays(self, tmp_path):
        for label, sol in _built_cases():
            path = export_supersolution(sol, tmp_path / label.replace(" ", "_"))
            lines = path.read_text().splitlines()
            assert lines[:3] == [f"#n={sol.n}", f"#lambda={sol.params.lam!r}", "j,r_j,s_j"], label
            assert len(lines) == sol.n_head + 3, label
            r, s = read_supersolution(path)
            assert r.tobytes() == sol.r.tobytes(), label
            assert s.tobytes() == sol.s.tobytes(), label

    def test_old_layout_bytes(self, tmp_path):
        # the reference rendering of the rebuilt arrays is the old writer's
        # file, which was write_columns over all N rows
        for label, sol in _built_cases():
            out = tmp_path / label.replace(" ", "_")
            r, s = read_supersolution(export_supersolution(sol, out))
            old = write_columns(out / "old.csv", ["j,r_j,s_j"], [np.arange(1, sol.n + 1), sol.r, sol.s])
            assert _old_layout(r, s).encode() == old.read_bytes(), label

    @pytest.mark.parametrize("edit,line", [
        (lambda lines: lines[1:], 1),  # no #n line
        (lambda lines: [lines[0], *lines[2:]], 2),  # no #lambda line
        (lambda lines: ["#n=2000.5", *lines[1:]], 1),
        (lambda lines: [lines[0], "#lambda=0.9", *lines[2:]], 2),
        (lambda lines: lines[:2] + ["j,r,s"] + lines[3:], 3),
        (lambda lines: lines[:4] + lines[5:6] + lines[4:5] + lines[6:], 5),  # rows 2 and 3 swapped
        (lambda lines: lines[:5] + lines[6:], 6),  # row 3 missing
        (lambda lines: lines[:5] + lines[4:], 6),  # row 2 twice
        (lambda lines: lines[:3], 4),  # no rows
        (lambda lines: ["#n=10", *lines[1:]], 14),  # more rows than N
        (lambda lines: lines[:4] + ["2,1.0"] + lines[5:], 5),
        (lambda lines: lines[:4] + ["2,one,1.0"] + lines[5:], 5),
        (lambda lines: [lines[0], "#lambda=1.5", *lines[2:]], 22),  # r_19 no longer rebuilds
    ])
    def test_malformed_file_names_the_line(self, tmp_path, edit, line):
        config, prep, _, (g_t0, *_) = pipeline(PIPELINE_CONFIGS[0])
        sol = _sequence(prep, config, g_t0)
        path = export_supersolution(sol, tmp_path)
        path.write_text("".join(f"{text}\n" for text in edit(path.read_text().splitlines())))
        with pytest.raises(ConfigError, match=rf"line {line}: expected"):
            read_supersolution(path)

    def test_rows_cut_off_are_refused_or_rebuild_the_same(self, tmp_path):
        # a file cut after row k < m is refused at its last row, unless the
        # rows past k were already the geometric continuation
        refused = set()
        for label, sol in _built_cases():
            path = export_supersolution(sol, tmp_path / label.replace(" ", "_"))
            lines = path.read_text().splitlines()
            m = sol.n_head
            for k in sorted({1, 2, m // 2, m - 2, m - 1} & set(range(1, m))):
                path.write_text("".join(f"{text}\n" for text in lines[: k + 3]))
                try:
                    r, s = read_supersolution(path)
                except ConfigError as exc:
                    assert f"line {k + 3}: expected r_{k} = " in str(exc)
                    refused.add(label)
                else:
                    assert r.tobytes() == sol.r.tobytes() and s.tobytes() == sol.s.tobytes(), (label, k)
        assert refused == {"full support", "switch past support"}

    def test_cut_last_line_refused(self, tmp_path):
        config, prep, _, (g_t0, *_) = pipeline(PIPELINE_CONFIGS[0])
        path = export_supersolution(_sequence(prep, config, g_t0), tmp_path)
        text = path.read_text()
        path.write_text(text[:-3])
        with pytest.raises(ConfigError, match=rf"line {len(text.splitlines())}: expected"):
            read_supersolution(path)


def _one_product(s: np.ndarray, r: np.ndarray, lam: float, m: int, start: int) -> float:
    """``continue_geometrically`` as one running product over every row
    past m, without stopping at the decay's fixed point."""
    decay = np.full(len(s) - m + 1, 1.0 / lam)
    decay[0] = s[m - 1]
    s[m - 1 :] = np.multiply.accumulate(decay)
    tail_value = float(s[-1]) / (lam - 1.0)
    r[start - 1 :] = np.cumsum(s[start - 1 :][::-1])[::-1] + tail_value
    return tail_value


class _CountingNumpy:
    """numpy, with the lengths of the arrays ``np.full`` makes recorded."""

    def __init__(self):
        self.lengths = []

    def __getattr__(self, name):
        return getattr(np, name)

    def full(self, shape, value):
        self.lengths.append(shape)
        return np.full(shape, value)


class _RecordingNumpy:
    """numpy, with the lengths of the arrays passed to each of its functions
    recorded under the function's name."""

    def __init__(self):
        self.lengths = collections.defaultdict(list)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def recorded(*args, **kwargs):
            self.lengths[name] += [len(a) for a in args if isinstance(a, np.ndarray) and a.ndim]
            return attr(*args, **kwargs)

        return recorded


def _poisoned_past_floor(sol) -> np.ndarray:
    """r with NaN on the rows past the floor row k: no balance row before k
    reads them, and any product over them is NaN."""
    r = sol.r.copy()
    r[sol.floor_row :] = np.nan
    return r


class TestClosedFormRows:
    """From the floor row on, the balance check reads the rates, not r's
    subnormal floor; before it, every row is the all-rows check's."""

    @staticmethod
    def _checks(changes):
        config, prep, _, profiles = pipeline(changes)
        _, params, _ = preflight(config)
        for g in profiles:
            sol, check = dominating_sequence(prep, params, g)
            tol = 1e-12 * params.rho
            yield sol, check, oracles.verify_supersolution(sol.r, prep.model, params.omega, params.rho, tol)

    @pytest.mark.parametrize("changes", PIPELINE_CONFIGS[:2])
    def test_all_rows_where_s_stays_normal(self, changes):
        for sol, check, oracle in self._checks(changes):
            assert sol.floor_row == sol.n + 1
            assert check == oracle

    def test_worst_margin_at_n_32000_is_the_closed_form(self):
        config, prep, _, _ = pipeline(PIPELINE_CONFIGS[2])
        _, params, _ = preflight(config)
        lam, omega = params.lam, params.omega
        a_prev, b_j = prep.model.rate_pairs(config.n - 1)
        flux = lam * omega * a_prev[-1]
        closed = (lam - 1.0) * (flux - b_j[-1]) / (lam * (flux + b_j[-1]))
        worst = []
        for sol, check, oracle in self._checks(PIPELINE_CONFIGS[2]):
            # the all-rows check's worst lies in the floor, where it reads underflow
            assert sol.n_head + 2 <= sol.floor_row <= oracle.worst_index < config.n - 1
            assert max(closed, check.worst_margin) < oracle.worst_margin < 0
            assert check._replace(worst_margin=oracle.worst_margin, worst_index=oracle.worst_index) == oracle
            worst.append((check.worst_index, check.worst_margin))
        # G(T0) and the initial tail: the closed form at j = N - 1; the step
        # profile's own worst row, j = 29, lies in the head
        assert worst[:2] == [(config.n - 1, closed)] * 2 and worst[2][0] == 29

    def test_no_array_operation_over_the_floor(self, monkeypatch):
        config, prep, _, (g, *_) = pipeline(PIPELINE_CONFIGS[2])
        _, params, _ = preflight(config)
        sol, check = dominating_sequence(prep, params, g)
        recording = _RecordingNumpy()
        monkeypatch.setattr(supersolution, "np", recording)
        poisoned = bd.verify_supersolution(_poisoned_past_floor(sol), prep.model, params.omega, params.rho,
                                           lam=params.lam, floor_row=sol.floor_row)
        assert poisoned == check
        # lhs and scale, the only arrays formed from r, span rows 2..k-1
        assert {*recording.lengths["where"], *recording.lengths["all"]} == {sol.floor_row - 2}

    def test_bare_array_reads_every_row(self):
        config, prep, _, (g, *_) = pipeline(PIPELINE_CONFIGS[2])
        _, params, _ = preflight(config)
        sol, _ = dominating_sequence(prep, params, g)
        args = (sol.r, prep.model, params.omega, params.rho)
        assert bd.verify_supersolution(*args) == oracles.verify_supersolution(*args, 1e-12 * params.rho)
        with pytest.raises(ParameterError, match="need lambda"):
            bd.verify_supersolution(*args, floor_row=sol.floor_row)


class TestContinueGeometrically:
    """Stopping the decay at its fixed point keeps the bits of one product."""

    @pytest.mark.parametrize("lam", [1.0001, 1.05, 1.294, 4 / 3, 1.5, 1.99, 2.0, 2.5, 7.0])
    @pytest.mark.parametrize("n,m,start", [(32_000, 40, 5), (2000, 37, 3), (300, 299, 10), (10, 10, 2), (5000, 1, 1)])
    def test_same_bits_as_one_product(self, lam, n, m, start):
        head = np.zeros(n)
        head[start - 1 : m] = 0.37 * 0.8 ** np.arange(m - start + 1)
        s, r = head.copy(), np.zeros(n)
        s_ref, r_ref = head.copy(), np.zeros(n)
        assert supersolution.continue_geometrically(s, r, lam, m, start) == _one_product(s_ref, r_ref, lam, m, start)
        assert s.tobytes() == s_ref.tobytes() and r.tobytes() == r_ref.tobytes()

    def test_large_n_stops_multiplying_at_the_floor(self, monkeypatch, tmp_path):
        # the N = 32 000 pipeline's s sticks at 2^-1073 from row 2888: the
        # rebuild multiplies well short of N rows, and the export still
        # reads back as one product over every row would give
        config, prep, _, (g_t0, *_) = pipeline(PIPELINE_CONFIGS[2])
        sol = _sequence(prep, config, g_t0)
        s_ref, r_ref = sol.s.copy(), sol.r.copy()
        _one_product(s_ref, r_ref, sol.params.lam, sol.n_head, sol.n_head)
        assert sol.s.tobytes() == s_ref.tobytes() and sol.r.tobytes() == r_ref.tobytes()
        assert sol.s[-1] == 2.0**-1073
        counting = _CountingNumpy()
        monkeypatch.setattr(supersolution, "np", counting)
        r, s = read_supersolution(export_supersolution(sol, tmp_path))
        assert r.tobytes() == sol.r.tobytes() and s.tobytes() == sol.s.tobytes()
        assert sum(counting.lengths) < 4000 < config.n - sol.n_head


class TestTrimmedSums:
    """Sums that skip terms which cannot move them (zeros past a support,
    subnormals below the head) equal ``math.fsum`` of the full arrays."""

    @staticmethod
    def _states_and_profiles():
        for changes in PIPELINE_CONFIGS:
            config, prep, c_t0, (g_t0, *_) = pipeline(changes)
            full = _full_support_profile(config.n, prep.rho)
            yield config, prep, (c_t0, prep.c0, full), (g_t0, full)

    def test_weighted_sum_rhs(self):
        for config, prep, _, profiles in self._states_and_profiles():
            i = np.arange(1, config.n + 1, dtype=float)
            for g in profiles:
                _, params, _ = preflight(config)
                sol, _ = dominating_sequence(prep, params, g)
                for phi in (i, stretched_weights(1.0, 0.5).psi(config.n)):
                    wb = bd.weighted_sum_bound(sol.r, g, phi, params, bd.anchor_index(phi, params))
                    assert wb.rhs == wb.c_used * (1.0 + math.fsum(phi * g))

    def test_weighted_sum_lhs_at_n_32000(self, monkeypatch):
        # r's geometric continuation sticks at a 2-ulp subnormal, so r has
        # 29 244 subnormal entries and no zero; the two experiment sums
        # equal math.fsum's without summing them exactly, and from the
        # floor row on they form no product phi r at all
        config, prep, _, (g, *_) = pipeline(PIPELINE_CONFIGS[2])
        _, params, _ = preflight(config)
        sol, _ = dominating_sequence(prep, params, g)
        assert np.count_nonzero(sol.r < 2.0**-1022) == 29_244 and np.all(sol.r > 0)
        poisoned, k = _poisoned_past_floor(sol), sol.floor_row
        fsum, lengths = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda x: lengths.append(len(x)) or fsum(x))
        i = np.arange(1, config.n + 1, dtype=float)
        for phi in (i, stretched_weights(1.0, 0.5).psi(config.n)):
            expected, m = fsum(phi * sol.r), bd.anchor_index(phi, params)
            assert bd.weighted_sum_bound(sol.r, g, phi, params, m).lhs == expected
            assert bd.weighted_sum_bound(poisoned, g, phi, params, m, floor_row=k).lhs == expected
        assert max(lengths) < config.n // 10
        # growth ratio e^0.0216 < delta_star, and the skipped rows' bound
        # (N - k + 1) phi_N r_k = 1.0e-3 could move a sum of 39.9: the full
        # product is summed, NaN rows included
        heavy = np.exp(690.0 * i / config.n)
        m = bd.anchor_index(heavy, params)
        assert bd.weighted_sum_bound(sol.r, g, heavy, params, m, floor_row=k).lhs == fsum(heavy * sol.r)
        assert math.isnan(bd.weighted_sum_bound(poisoned, g, heavy, params, m, floor_row=k).lhs)

    def test_density(self):
        for config, _, states, _ in self._states_and_profiles():
            i = np.arange(1, config.n + 1, dtype=float)
            for c in states:
                assert bd.density(c) == math.fsum(i * c)
