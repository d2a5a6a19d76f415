import dataclasses
import math

import numpy as np
import pytest

import beckerdoring as bd
from beckerdoring.equilibrium import support_length
from beckerdoring.errors import NoSwitchIndexError, ParameterError, PhiDecayError
from beckerdoring.experiments import ExperimentConfig, detect_threshold, dominating_sequence, prepare
from beckerdoring.supersolution import SupersolutionParams
from beckerdoring.tails import tail_density


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
        lam, n_switch = bd.choose_lambda(half_model, 1.0, 1.0, n_max=2000)
        assert lam == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert n_switch == 1

    def test_family_a(self, family_a):
        lam, n_switch = bd.choose_lambda(family_a, 0.5, 1.0, n_max=2000)
        assert lam == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert n_switch == 1

    def test_cap_too_high_rejected(self, family_a):
        with pytest.raises(ParameterError):
            bd.choose_lambda(family_a, family_a.z_s_param, 1.0)
        with pytest.raises(ParameterError):
            bd.choose_lambda(family_a, 2.0, 1.0)

    def test_delayed_switch_index(self):
        # fragmentation approaches z_s from below: the switch moves inward
        n = 500
        i = np.arange(1, n + 1, dtype=float)
        b = 1.0 * (1.0 - 0.6 * np.exp(-i / 15.0))
        model = bd.make_custom_model(np.ones(n), b, gamma=1.0, z_s=1.0)
        lam, n_switch = bd.choose_lambda(model, 0.8, 1.0, n_max=n)
        assert n_switch > 1
        js = np.arange(max(2, n_switch), n + 1, dtype=float)
        assert np.all(model.b(js) >= lam * 0.8 * model.a(js - 1))

    def test_no_switch_index_error(self):
        # fragmentation crawls up to z_s so slowly that b_j < lambda omega a_{j-1}
        # still holds at the end of the scan
        n = 200
        j = np.arange(1, n + 1, dtype=float)
        b = 1.0 * (1.0 - 0.3 * j**-0.05)
        model = bd.make_custom_model(np.ones(n), b, gamma=1.0, z_s=1.0)
        with pytest.raises(NoSwitchIndexError):
            bd.choose_lambda(model, 0.95, 1.0, n_max=n)


class TestBuildSupersolution:
    def test_hand_recursion(self, half_model):
        # lambda = 3/2, omega = 1, rho = 1, g_j = 2^-j
        params = SupersolutionParams(omega=1.0, rho=1.0, delta=1.0, lam=1.5, n_switch=1)
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
        params = SupersolutionParams(omega=1.0, rho=1.0, delta=1.0, lam=1.5, n_switch=1)
        n = 40
        sol = bd.build_supersolution(half_model, params, np.zeros(n))
        expected_s = (1.0 / 1.5) * 1.5 ** -np.arange(n, dtype=float)
        assert sol.s == pytest.approx(expected_s, rel=1e-12)
        check = bd.verify_supersolution(sol.r, half_model, 1.0, 1.0, tol=1e-12)
        assert check.ok and check.worst_margin < 0

    def test_wide_growth_bound_inflates_first_increment(self):
        # delta = 2 rules out the 1 + 1/omega ceiling; omega (lambda - 1) > 1
        # then needs the inflated start to keep r_1 at the density
        n = 80
        model = bd.make_custom_model(np.ones(n), 4.0 * np.ones(n), gamma=1.0, z_s=4.0)
        params = bd.make_params(model, 1.5, 1.0, delta=2.0, n_max=n)
        assert params.omega * (params.lam - 1.0) > 1.0
        sol = bd.build_supersolution(model, params, np.zeros(n))
        assert sol.r[0] >= 1.0 * (1 - 1e-12)
        check = bd.verify_supersolution(sol.r, model, 1.5, 1.0, tol=1e-12)
        assert check.ok

    def test_domination_and_shape(self, family_a):
        rng = np.random.default_rng(8)
        g = random_profile(rng, 300, 1.0)
        params = bd.make_params(family_a, 0.6, 1.0)
        sol = bd.build_supersolution(family_a, params, g)
        assert np.all(sol.r >= g)
        ns = sol.n_switch
        assert np.all(np.diff(sol.r[ns - 1 :]) <= 0.0)
        assert sol.r[0] >= 1.0 * (1 - 1e-12)
        assert np.max(sol.r) <= sol.uniform_bound * (1 + 1e-12)

    @pytest.mark.parametrize(
        "g_builder,match",
        [
            (lambda n: np.linspace(0.1, 0.5, n), "non-increasing"),
            (lambda n: np.linspace(2.0, 0.0, n), "exceeds the density"),
            (lambda n: np.linspace(1.0, 0.5, n), "decayed"),
        ],
    )
    def test_rejects_bad_profiles(self, family_a, g_builder, match):
        params = bd.make_params(family_a, 0.6, 1.0)
        with pytest.raises((ParameterError, NoSwitchIndexError), match=match):
            bd.build_supersolution(family_a, params, g_builder(100))


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


class TestSupportTrimmedRecurrence:
    """The increments past the support of g are the full loop's, bit for bit."""

    @pytest.mark.parametrize("changes", [
        {"family": "power_law"},
        {"family": "exponential_tail"},
        {"family": "power_law", "n": 32_000, "t_end": 20.0, "snapshots": 41},
    ])
    def test_equals_full_loop(self, changes):
        # the pipeline's g = G(T0) on its own output grid, from a run cut at
        # t = 3 (T0 is 1.0 on these configs), the initial profile, and a
        # step whose last drop outweighs the decayed increment
        config = ExperimentConfig(**changes)
        prep = prepare(config)
        grid = np.linspace(0.0, config.t_end, config.snapshots)
        opts = dataclasses.replace(prep.opts, t_eval=grid[grid <= 3.0])
        traj = bd.integrate(prep.state0, prep.model, 3.0, opts)
        t0 = detect_threshold(traj, prep.omega)
        step = np.where(np.arange(config.n) < 30, 0.5 * prep.rho, 0.0)
        for g in (tail_density(traj.at(t0).c), tail_density(prep.state0.c), step):
            params, sol, _ = dominating_sequence(prep, config, g)
            assert max(support_length(g), params.n_switch) < config.n // 10
            assert sol.s.tobytes() == _reference_increments(params, g).tobytes()


class TestVerifySupersolution:
    def test_constant_sequence(self, family_a):
        r = np.full(50, 2.0)
        check = bd.verify_supersolution(r, family_a, 0.5, 2.0, tol=1e-12)
        assert check.ok

    def test_decaying_non_supersolution_located(self, ones_model):
        # r = g = 2^-j with omega close to z_s: balance flips positive
        r = 0.5 ** np.arange(1, 40)
        check = bd.verify_supersolution(r, ones_model, 0.9, r[0], tol=1e-12)
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
            params = bd.make_params(model, omega, rho, n_max=2000)
            sol = bd.build_supersolution(model, params, g)
            check = bd.verify_supersolution(sol.r, model, omega, rho, tol=1e-12 * rho)
            assert check.ok, (model.family, omega, z_s, check.worst_margin)


@pytest.fixture(scope="module")
def built(family_a):
    rng = np.random.default_rng(77)
    g = random_profile(rng, 300, 1.0)
    params = bd.make_params(family_a, 0.6, 1.0)
    return params, g, bd.build_supersolution(family_a, params, g)


class TestWeightedSumBound:

    @pytest.mark.parametrize("weight", ["linear", "quadratic", "stretched"])
    def test_admissible_weights_bounded(self, built, weight):
        params, g, sol = built
        j = np.arange(1, 301, dtype=float)
        phi = {"linear": j, "quadratic": j**2, "stretched": np.exp(np.sqrt(j))}[weight]
        wb = bd.weighted_sum_bound(sol.r, g, phi, params)
        assert wb.lhs <= wb.rhs

    def test_zero_profile_bound_is_constant(self, half_model):
        params = SupersolutionParams(omega=1.0, rho=1.0, delta=1.0, lam=1.5, n_switch=1)
        n = 40
        g = np.zeros(n)
        sol = bd.build_supersolution(half_model, params, g)
        wb = bd.weighted_sum_bound(sol.r, g, np.arange(1, n + 1, dtype=float), params)
        assert wb.rhs == pytest.approx(wb.c_used, rel=1e-15)
        assert wb.lhs <= wb.rhs

    def test_too_fast_growth_rejected(self, built):
        params, g, sol = built
        phi = 3.0 ** np.arange(1, 301, dtype=float)
        with pytest.raises(PhiDecayError):
            bd.weighted_sum_bound(sol.r, g, phi, params)

    def test_monotone_in_omega(self, family_a):
        # above the turnover the dominating sequence grows with the cap
        rng = np.random.default_rng(15)
        g = random_profile(rng, 300, 1.0)
        previous = None
        for omega in (0.3, 0.5, 0.7, 0.9):
            params = bd.make_params(family_a, omega, 1.0)
            sol = bd.build_supersolution(family_a, params, g)
            if previous is not None:
                assert np.all(sol.r >= previous * (1 - 1e-12))
            previous = sol.r
