import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring.errors import ConfigError, ParameterError


def power_law_table_b1_zero(n: int = 500) -> bd.CoefficientModel:
    """The power-law rates (gamma = 1/2, z_s = q = 1, mu_c = 1/2) as an
    n-row table with b_1 = 0, the exponential-tail family's convention."""
    rates = bd.make_power_law_model(0.5, 1.0, 1.0, 0.5)
    i = np.arange(1, n + 1, dtype=float)
    b = rates.b(i)
    b[0] = 0.0
    return bd.make_custom_model(rates.a(i), b, gamma=0.5, z_s=1.0)


class TestPowerLawFamily:
    def test_rate_formulas(self, family_a):
        # direct formula evaluation: a_4 = 4^(1/2), b_4 = a_4 (1 + 4^(-1/2))
        assert family_a.a(4) == pytest.approx(2.0, abs=0)
        assert family_a.b(4) == pytest.approx(3.0, rel=1e-15)

    def test_sizes_are_one_based(self, family_a):
        with pytest.raises(ParameterError, match="cluster sizes are 1-based"):
            family_a.a(0)

    def test_linear_exponent_brackets(self):
        model = bd.make_power_law_model(1.0, 2.0, 1.0, 0.5)
        i = np.arange(1, 500, dtype=float)
        assert np.allclose(model.a(i), i)

    def test_b_bar_is_sup_of_ratio(self, family_a):
        # sup of z_s + q i^(mu-1) is attained at i = 1
        assert family_a.b_bar == pytest.approx(2.0, abs=0)
        ratios = family_a.b(np.arange(1, 10_001, dtype=float)) / family_a.a(
            np.arange(1, 10_001, dtype=float)
        )
        assert family_a.b_bar >= np.max(ratios)

    def test_ratio_identity_by_construction(self, family_a):
        # b_i / a_i - z_s = q i^(mu - 1) termwise
        i = np.arange(1, 5_001, dtype=float)
        lhs = family_a.b(i) / family_a.a(i) - family_a.z_s_param
        assert lhs == pytest.approx(i ** (family_a.mu_c - 1.0), rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, z_s=1.0, q=1.0, mu_c=0.5),
            dict(gamma=1.5, z_s=1.0, q=1.0, mu_c=0.5),
            dict(gamma=0.5, z_s=-1.0, q=1.0, mu_c=0.5),
            dict(gamma=0.5, z_s=1.0, q=0.0, mu_c=0.5),
            dict(gamma=0.5, z_s=1.0, q=1.0, mu_c=1.0),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            bd.make_power_law_model(**kwargs)


class TestExponentialTailFamily:
    def test_rate_formulas(self, family_b):
        assert family_b.a(9) == pytest.approx(3.0, abs=0)
        # b_2 = z_s * 1^gamma * exp(sigma (2^mu - 1)) evaluated directly
        assert family_b.b(2) == pytest.approx(math.exp(math.sqrt(2) - 1.0), rel=1e-15)

    def test_b1_convention(self, family_b):
        assert family_b.b(1) == 0.0
        i = np.arange(2, 2000, dtype=float)
        assert np.all(family_b.b(i) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            bd.make_exponential_tail_model(1.0, 1.0, 1.0, 0.5)  # needs gamma < 1
        with pytest.raises(ParameterError):
            bd.make_exponential_tail_model(0.5, 1.0, -1.0, 0.5)

    @pytest.mark.parametrize("gamma,sigma,mu_c", [(0.5, 1.0, 0.5), (0.2, 3.0, 0.2), (0.8, 0.5, 0.8)])
    def test_b_keeps_the_bits_of_the_guarded_formula(self, gamma, sigma, mu_c):
        # b_i with i - 1 guarded away from 0 and b_1 set apart: 0^gamma = 0
        # gives b_1 = 0 without the guards, and every other entry is the
        # same expression
        model = bd.make_exponential_tail_model(gamma, 1.3, sigma, mu_c)
        i = np.arange(1, 10**5 + 1, dtype=float)
        im1 = np.where(i > 1, i - 1.0, 1.0)
        guarded = np.where(i > 1, 1.3 * im1**gamma * np.exp(sigma * (i**mu_c - im1**mu_c)), 0.0)
        assert model.b(i).tobytes() == guarded.tobytes()
        assert model.b(1) == 0.0 and model.b(np.array([1.0]))[0] == 0.0
        _, b = model.rate_pairs(10**5)
        assert b.tobytes() == guarded[1:].tobytes()

    def test_overflowing_rates_are_refused(self):
        # exp(sigma (2^mu_c - 1)) overflows at sigma = 2000: b_bar is not finite
        with pytest.raises(ParameterError, match=r"exponential_tail rates overflow at gamma=0\.5, z_s=1\.0, sigma=2000\.0, mu_c=0\.5"):
            bd.make_exponential_tail_model(0.5, 1.0, 2000.0, 0.5)
        # b_2 = exp(800 (2^0.2 - 1)) = 4.6e51 is finite, but b_1 = 0 exp(800) is nan
        with pytest.raises(ParameterError, match=r"sigma=800\.0, mu_c=0\.2: sup b_i/a_i is nan"):
            bd.make_exponential_tail_model(0.5, 1.0, 800.0, 0.2)
        with pytest.raises(ParameterError, match=r"power_law rates overflow at gamma=0\.5, z_s=1e\+308, q=1e\+308, mu_c=0\.5"):
            bd.make_power_law_model(0.5, 1e308, 1e308, 0.5)


# a fresh model per call, so that no rate_pairs table is shared
PREFIX_MODELS = {
    "power_law": lambda: bd.make_power_law_model(0.5, 1.0, 1.0, 0.5),
    "exponential_tail": lambda: bd.make_exponential_tail_model(0.5, 1.0, 1.0, 0.5),
    "rate_table": lambda: bd.make_custom_model(
        np.linspace(1.0, 3.0, 10**5), np.linspace(1.5, 4.0, 10**5), gamma=0.5, z_s=1.3
    ),
}
PREFIX_LENGTHS = [2, 255, 256, 1999, 2000, 31_999, 32_000]


@functools.cache
def _long_log_q(kind: str) -> np.ndarray:
    return bd.detailed_balance(PREFIX_MODELS[kind](), 10**5)


@functools.cache
def _long_rate_pairs(kind: str) -> tuple[np.ndarray, np.ndarray]:
    return PREFIX_MODELS[kind]().rate_pairs(32_000)


class TestPrefixProperty:
    """A shorter model sequence is the first entries of a longer one, bit
    for bit: what lets each consumer slice one evaluation."""

    @pytest.mark.parametrize("n", PREFIX_LENGTHS)
    @pytest.mark.parametrize("kind", PREFIX_MODELS)
    def test_log_q(self, kind, n):
        log_q = bd.detailed_balance(PREFIX_MODELS[kind](), n)
        assert log_q.tobytes() == _long_log_q(kind)[:n].tobytes()

    @pytest.mark.parametrize("n", PREFIX_LENGTHS)
    @pytest.mark.parametrize("kind", PREFIX_MODELS)
    def test_rate_pairs(self, kind, n):
        a, b = PREFIX_MODELS[kind]().rate_pairs(n)
        a_long, b_long = _long_rate_pairs(kind)
        assert len(a) == len(b) == n - 1
        assert a.tobytes() == a_long[: n - 1].tobytes()
        assert b.tobytes() == b_long[: n - 1].tobytes()

    @pytest.mark.parametrize("kind", PREFIX_MODELS)
    def test_rate_pairs_are_read_only(self, kind):
        model = PREFIX_MODELS[kind]()
        for n in (300, 100, 2000):  # evaluated, sliced, evaluated again
            for rates in model.rate_pairs(n):
                with pytest.raises(ValueError, match="read-only"):
                    rates[0] = 1.0

    def test_rate_pairs_are_evaluated_once_at_the_longest_n(self, monkeypatch):
        model = PREFIX_MODELS["power_law"]()
        lengths = []
        a = bd.CoefficientModel.a
        monkeypatch.setattr(bd.CoefficientModel, "a", lambda self, i: lengths.append(len(i)) or a(self, i))
        for n in (2000, 1999, 300, 2000, 4000, 32):
            assert len(model.rate_pairs(n)[0]) == n - 1
        assert lengths == [1999, 3999]


class TestDetailedBalance:
    def test_constant_rates(self, ones_model):
        log_q = bd.detailed_balance(ones_model, 5)
        assert np.allclose(np.exp(log_q), np.ones(5), atol=0)
        assert bd.critical_values(ones_model).z_s == pytest.approx(1.0, abs=0)

    def test_geometric(self, half_model):
        log_q = bd.detailed_balance(half_model, 3)
        assert np.exp(log_q) == pytest.approx([1.0, 0.5, 0.25], rel=1e-15)

    def test_family_a_q2(self, family_a):
        # recursion by hand: Q_2 = a_1 / b_2 = 1 / (sqrt(2) (1 + 2^(-1/2))) = sqrt(2) - 1
        log_q = bd.detailed_balance(family_a, 2)
        assert np.exp(log_q)[1] == pytest.approx(math.sqrt(2) - 1.0, rel=1e-14)

    @pytest.mark.parametrize("kind", PREFIX_MODELS)
    def test_increments_are_the_log_rate_ratios(self, kind):
        # log Q_{i+1} - log Q_i is log(a_i / b_{i+1}) of the flux rates, summed
        # in index order from log Q_1 = 0
        model = PREFIX_MODELS[kind]()
        a, b = model.rate_pairs(20_000)
        log_q = np.concatenate([[0.0], np.cumsum(np.log(a / b))])
        assert bd.detailed_balance(model, 20_000).tobytes() == log_q.tobytes()

    @pytest.mark.parametrize("fixture", ["family_a", "family_b"])
    def test_recursion_identity(self, fixture, request):
        # Q_{i+1} b_{i+1} = a_i Q_i to relative round-off, checked in linear scale
        model = request.getfixturevalue(fixture)
        n = 1000
        log_q = bd.detailed_balance(model, n)
        i = np.arange(1, n, dtype=float)
        lhs = log_q[1:] + np.log(model.b(i + 1))
        rhs = log_q[:-1] + np.log(model.a(i))
        # |log difference| bounds the relative error of Q_{i+1} b_{i+1} vs a_i Q_i
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_needs_two_sizes(self, family_a):
        with pytest.raises(ParameterError):
            bd.detailed_balance(family_a, 1)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=30),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_recursion_matches_direct_product(self, a_vals, b_vals):
        n = min(len(a_vals), len(b_vals))
        a = np.array(a_vals[:n])
        b = np.array(b_vals[:n])
        model = bd.make_custom_model(a, b, gamma=1.0, z_s=1.0)
        q = np.exp(bd.detailed_balance(model, n))
        direct = [1.0]
        for i in range(1, n):
            direct.append(direct[-1] * a[i - 1] / b[i])
        assert q == pytest.approx(direct, rel=1e-12)


class TestCheckAssumptions:
    def test_family_a_flagship(self, family_a):
        report = bd.check_assumptions(family_a, 10_000)
        assert report.all_ok
        assert report.profile_start_index == 1

    def test_family_b_flagship(self, family_b):
        assert bd.check_assumptions(family_b, 10_000).all_ok

    @pytest.mark.parametrize(
        "model",
        [
            bd.make_power_law_model(0.7, 1.0, 5.0, 0.9),
            bd.make_power_law_model(1.0, 2.0, 0.5, 0.3),
            bd.make_power_law_model(0.3, 0.3, 2.0, 0.8),
            bd.make_exponential_tail_model(0.8, 0.5, 2.0, 0.8),
            bd.make_exponential_tail_model(0.2, 2.0, 0.4, 0.2),
            power_law_table_b1_zero(),
        ],
    )
    def test_both_families_any_valid_parameters(self, model):
        # a table shorter than the scan is scanned up to its last row; a zero
        # b_1 (log ratio -inf) neither sets the sup nor counts as a violation
        report = bd.check_assumptions(model, 2_000)
        assert report.all_ok
        assert report.frag_first_violation is None
        i = np.arange(1, min(2_000, model.table_length or 2_000) + 1, dtype=float)
        assert report.b_bar_observed == pytest.approx(np.max(model.b(i) / model.a(i)), rel=1e-14)

    def test_vanishing_ratio_detected(self):
        # b_i = a_i / i: bounded with b_bar = 1, but Q_{i+1}/Q_i -> infinity,
        # moving away from the declared target 1/z_s
        n = 2000
        i = np.arange(1, n + 1, dtype=float)
        model = bd.make_custom_model(np.ones(n), 1.0 / i, gamma=1.0, z_s=1.0)
        report = bd.check_assumptions(model, n)
        assert report.frag_ok
        assert report.b_bar_observed == pytest.approx(1.0, abs=0)
        assert not report.ratio_ok

    def test_constant_profile_monotone(self, ones_model):
        report = bd.check_assumptions(ones_model, 2_000)
        assert report.profile_monotone_ok
        assert report.profile_start_index == 1


class TestCustomRates:
    def test_load_rate_table(self, tmp_path):
        path = tmp_path / "rates.txt"
        n = 40
        i = np.arange(1, n + 1)
        lines = [f"{j} {float(j)} {2.0 * j}" for j in i]
        path.write_text("\n".join(lines) + "\n")
        model = bd.load_rate_table(path, gamma=1.0, z_s=0.5)
        assert model.a(7) == 7.0
        assert model.b(7) == 14.0

    def test_load_rejects_gaps(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("1 1.0 1.0\n3 1.0 1.0\n")
        with pytest.raises(ConfigError, match="rates.txt"):
            bd.load_rate_table(path, z_s=1.0)

    @pytest.mark.parametrize("a, b", [
        ([1e300, 1.0, 1.0], [0.0, 1e-300, 1.0]),  # Q_2 / Q_1 = a_1 / b_2 = 1e600
        ([1e-300, 1.0, 1.0], [1e300, 1.0, 1.0]),  # b_1 / a_1 = 1e600
    ], ids=["a_over_b", "b_over_a"])
    def test_overflowing_ratios_are_refused(self, a, b):
        # log Q is built from a_i / b_(i+1), so a table whose ratios overflow
        # is refused when it is built, not when log Q leaves the float range
        with pytest.raises(ParameterError, match="tabulated rates overflow"):
            bd.make_custom_model(np.array(a), np.array(b), z_s=1.0)

    def test_index_past_table(self):
        model = bd.make_custom_model(np.ones(10), np.ones(10), z_s=1.0)
        with pytest.raises(ParameterError):
            model.a(11)
