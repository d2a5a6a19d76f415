import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring.coefficients import _BLOCK
from beckerdoring.equilibrium import N_SERIES, _LogQPrefix, _series_at_activity, fsum_array
from beckerdoring.errors import FreeEnergyDomainError, NumericalError, ParameterError, SupercriticalError
from beckerdoring.experiments import ExperimentConfig
from conftest import bare_equilibrium
import oracles
from oracles import density_at_activity


class TestCriticalValues:
    # a rate table's critical values are its stated z_s and its partial sum
    # there, a lower bound on rho_s for every continuation: here the series
    # of the table's rates diverges, and rho_s reads the 4000 rows' sum

    def test_constant_rates_diverge(self, ones_model):
        # Q_i = 1, z_s = 1, i Q_i z_s^i = i
        crit = bd.critical_values(ones_model)
        assert crit.z_s == 1.0 and crit.rho_s == pytest.approx(4000 * 4001 / 2, rel=1e-12)

    def test_geometric_rates_diverge(self, half_model):
        # Q_i = 2^(1-i), z_s = 2, i Q_i z_s^i = 2i, each term the exponential
        # of a running sum of 4000 logarithms: 5e-11 off
        crit = bd.critical_values(half_model)
        assert crit.z_s == 2.0 and crit.rho_s == pytest.approx(4000 * 4001.0, rel=1e-10)

    def test_family_b_finite(self, family_b):
        # rho_s is L, a partial sum of F at the model's own z_s = 1, within
        # round-off of its first 10^5 terms and a lower bound on the
        # 10^6-term sum; z_s is the root test's estimate
        crit = bd.critical_values(family_b)
        assert crit.z_s == pytest.approx(1.0, rel=5e-3)
        log_q = bd.detailed_balance(family_b, 1_000_000)
        i = np.arange(1, 1_000_001, dtype=float)
        with np.errstate(under="ignore"):
            terms = np.exp(np.log(i) + log_q)
        assert crit.rho_s == pytest.approx(math.fsum(terms[:N_SERIES].tolist()), rel=1e-12)
        assert crit.rho_s <= math.fsum(terms.tolist()) * (1 + 1e-12)

    @pytest.mark.parametrize("family, built", [("power_law", 20), ("exponential_tail", 15)])
    def test_the_robustness_grid_keeps_its_critical_values(self, family, built):
        # on every (gamma, mu_c) of the robustness grid whose model builds,
        # z_s from the window alone is within 1e-13 of the old root test's,
        # read off the full 10^5-entry log Q, and the partial sum within
        # 2^-50 of the sum of all 10^5 terms: where it stops short, the
        # terms it drops do not move it
        models = 0
        for gamma, mu_c in itertools.product([0.2, 0.5, 0.8, 1.0], [0.2, 0.35, 0.5, 0.65, 0.8]):
            try:
                model = ExperimentConfig(family=family, gamma=gamma, mu_c=mu_c).build_model()
            except ParameterError:
                continue
            models += 1
            crit = bd.critical_values(model)
            log_q = bd.detailed_balance(model, N_SERIES)
            full = float(np.sum(_one_shot_terms(log_q, math.log(model.z_s_param))[1]))
            assert abs(crit.z_s - oracles.root_test_z_s(log_q)) <= 1e-13 * crit.z_s
            assert abs(crit.rho_s - full) <= 2.0**-50 * full
        assert models == built

    def test_family_a_subcritical_window(self, family_a):
        crit = bd.critical_values(family_a)
        assert math.isfinite(crit.rho_s)
        assert 2.0 < crit.rho_s < 10.0


BLOCKED_MODELS = {
    "power_law": lambda: bd.make_power_law_model(0.5, 1.0, 1.0, 0.5),
    "exponential_tail": lambda: bd.make_exponential_tail_model(0.5, 1.0, 1.0, 0.5),
    "rate_table": lambda: bd.make_custom_model(
        np.linspace(1.0, 3.0, 10**5), np.linspace(1.5, 4.0, 10**5), gamma=0.5, z_s=1.3
    ),
}
BLOCKED_LENGTHS = [2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, 10**5]


def _one_shot_log_q(model, n):
    i = np.arange(1, n, dtype=float)
    log_q = np.concatenate([[0.0], np.cumsum(np.log(model.a(i) / model.b(i + 1)))])
    assert np.all(np.isfinite(log_q))
    return log_q


def _one_shot_terms(log_q, log_z):
    i = np.arange(1, len(log_q) + 1, dtype=float)
    log_t = np.log(i) + log_q + i * log_z
    with np.errstate(under="ignore"):
        return log_t, np.exp(log_t)


def _one_shot_critical_values(model):
    # the sum at the model's own z_s over a table's rows, or over the first
    # n = 256 * 2^k terms (at most N_SERIES) whose terms past n/2 add at most
    # 2^-53 of the sum; a formula family's z_s is the root test's, from the
    # sum of the increments log(a_i / b_(i+1)) over the last tenth of
    # 1..N_SERIES, evaluated there alone
    log_z = math.log(model.z_s_param)
    n = model.table_length or 256
    terms = _one_shot_terms(_one_shot_log_q(model, n), log_z)[1]
    while model.table_length is None and n < N_SERIES and np.sum(terms[n // 2 :]) > 2.0**-53 * np.sum(terms):
        n = min(2 * n, N_SERIES)
        terms = _one_shot_terms(_one_shot_log_q(model, n), log_z)[1]
    rho_s = float(np.sum(terms))
    if model.table_length is not None:
        return model.z_s_param, rho_s, n
    m = N_SERIES // 10
    i = np.arange(N_SERIES - m, N_SERIES, dtype=float)
    return 1.0 / math.exp(float(np.sum(np.log(model.a(i) / model.b(i + 1)))) / m), rho_s, n


def _one_shot_density(model, z, tol_abs, n):
    """One truncation n of ``_series_at_activity``'s (F(z), converged), every
    sequence evaluated whole."""
    log_t, terms = _one_shot_terms(_one_shot_log_q(model, n), math.log(z))
    total, t_last = float(np.sum(terms)), terms[-1]
    if t_last == 0.0 or n == model.table_length:
        return total, True
    r = math.exp(float(np.mean(np.diff(log_t[-6:]))))
    if r < 1.0 - 1e-12 and t_last * r / (1.0 - r) <= tol_abs:
        return total + t_last * r / (1.0 - r), True
    return total, False


class TestBlockedSeries:
    """The preamble's long sequences, evaluated a block at a time, have the
    bits of the one-shot expressions, on both sides of every block edge."""

    @pytest.mark.parametrize("n", BLOCKED_LENGTHS)
    @pytest.mark.parametrize("kind", BLOCKED_MODELS)
    def test_detailed_balance(self, kind, n):
        model = BLOCKED_MODELS[kind]()
        assert bd.detailed_balance(model, n).tobytes() == _one_shot_log_q(model, n).tobytes()

    @pytest.mark.parametrize("n", BLOCKED_LENGTHS)
    @pytest.mark.parametrize("kind", BLOCKED_MODELS)
    def test_critical_values(self, kind, n):
        # from a prefix already filled to n rows, sliced there or grown from
        # there to the sum's truncation (a table's 10^5 rows): the one-shot
        # bits
        model = BLOCKED_MODELS[kind]()
        prefix = _LogQPrefix(model)
        prefix(n)
        assert tuple(bd.critical_values(model, prefix)) == _one_shot_critical_values(model)

    @pytest.mark.parametrize("n", BLOCKED_LENGTHS)
    @pytest.mark.parametrize("kind", BLOCKED_MODELS)
    def test_density_at_activity(self, kind, n):
        model = BLOCKED_MODELS[kind]()
        radius = 4 / 3 if kind == "rate_table" else 1.0  # 1 / lim Q_{i+1}/Q_i
        # inside the radius the terms underflow or the remainder test decides;
        # past it the ratio test reads >= 1 and the long sums overflow
        for z in (0.5 * radius, 0.99 * radius, 1.001 * radius, 1.05 * radius):
            with np.errstate(over="ignore"):
                got = _series_at_activity(_LogQPrefix(model), z, 1e-12, n_start=n, n_cap=n)[:2]
                assert got == _one_shot_density(model, z, 1e-12, n)

    @pytest.mark.parametrize("kind", BLOCKED_MODELS)
    def test_a_grown_log_q_prefix_has_the_one_shot_bits(self, kind, monkeypatch):
        # the activity solve's doubling truncations n = 256 * 2^k: each
        # growth evaluates only the increments past the old prefix, from
        # a_i and b_{i+1}
        model = BLOCKED_MODELS[kind]()
        seen = {"a": [], "b": []}
        for name, calls in seen.items():
            original = getattr(bd.CoefficientModel, name)

            def recorded(self, i, _calls=calls, _original=original):
                _calls.append(np.array(i, dtype=float).ravel())
                return _original(self, i)

            monkeypatch.setattr(bd.CoefficientModel, name, recorded)
        prefix = _LogQPrefix(model)
        grown_from = 1
        for n in (256 * 2**k for k in range(9)):
            seen["a"].clear()
            seen["b"].clear()
            log_q = prefix(n)
            assert np.array_equal(np.concatenate(seen["a"]), np.arange(grown_from, n))
            assert np.array_equal(np.concatenate(seen["b"]), np.arange(grown_from + 1, n + 1))
            assert log_q.tobytes() == bd.detailed_balance(model, n).tobytes()
            assert prefix(n // 2).tobytes() == log_q[: n // 2].tobytes()
            grown_from = n

    def test_the_ratio_test_reads_across_a_block_edge(self):
        # Q_i = 2^(1-i) and z = 2 (1 - 1e-3): at n = B + 3 the tail remainder
        # is about 2e-3 of F, and the six log-terms its ratio is read from
        # straddle the edge between the first two blocks; the table runs on
        # past n, so its sum is not taken as finite there
        n = _BLOCK + 3
        model = bd.make_custom_model(np.ones(2 * n), 2 * np.ones(2 * n), z_s=2.0)
        z = 2 * (1 - 1e-3)
        value, converged, _ = _series_at_activity(_LogQPrefix(model), z, 1e300, n_start=n, n_cap=n)
        assert converged and (value, converged) == _one_shot_density(model, z, 1e300, n)
        partial = float(np.sum(_one_shot_terms(_one_shot_log_q(model, n), math.log(z))[1]))
        assert value > (1 + 1e-3) * partial


class TestSubcriticalRefusal:
    # the activity solve accepts a density only below rho_s = L, the partial
    # sum of F at the model's own z_s = 1 that critical_values reports (the
    # sum of its terms until the later ones stop moving it, or of a table's
    # rows), wherever the root-test
    # estimate of z_s lies; a refused density evaluates no F

    @pytest.mark.parametrize("fixture", ["family_a", "family_b"])
    def test_refuses_at_the_full_partial_sum(self, fixture, request, monkeypatch):
        from beckerdoring import equilibrium

        model = request.getfixturevalue(fixture)
        crit = bd.critical_values(model)
        log_q = bd.detailed_balance(model, N_SERIES)
        full = math.fsum((np.arange(1, N_SERIES + 1) * np.exp(log_q)).tolist())
        assert crit.rho_s == pytest.approx(full, rel=1e-12)
        rho = math.nextafter(crit.rho_s, 0.0)
        z = bd.solve_monomer_activity(model, rho, critical=crit)
        value, converged, _ = _series_at_activity(_LogQPrefix(model), z, 1e-12 * rho / 10)
        assert z < 1.0 and converged and abs(value - rho) <= 1e-12 * rho

        def series_at_activity(*args):
            raise AssertionError("evaluated F for a density at the partial sum")

        monkeypatch.setattr(equilibrium, "_series_at_activity", series_at_activity)
        with pytest.raises(SupercriticalError, match=f"= {full:.6g} at z_s = 1$"):
            bd.solve_monomer_activity(model, crit.rho_s, critical=crit)

    def test_a_rate_table_is_refused_at_its_full_sum(self, ones_model):
        # i Q_i z_s^i = i over the 4000 rows: the sum is 4000 * 4001 / 2,
        # the rho_s critical_values states, with the rows and z_s named.
        # One ulp below it passes the refusal, and no float below z_s = 1
        # meets it
        crit = bd.critical_values(ones_model)
        rho_s = crit.rho_s
        assert rho_s == 4000 * 4001 / 2
        with pytest.raises(NumericalError, match=r"^no activity below z_s = 1 solves F\(z\) = rho = 8\.002e\+06$"):
            bd.solve_monomer_activity(ones_model, math.nextafter(rho_s, 0.0), critical=crit)
        with pytest.raises(SupercriticalError, match=r"sum_\(i<=4000\) i Q_i z_s\^i = 8\.002e\+06 at z_s = 1$"):
            bd.solve_monomer_activity(ones_model, rho_s, critical=crit)


class TestSolveActivity:
    def test_closed_form_exact(self, ones_model):
        # F(z) = z/(1-z)^2 = 2 has root 2z^2 - 5z + 2 = 0, z = 1/2
        z = bd.solve_monomer_activity(ones_model, 2.0, critical=bd.critical_values(ones_model))
        assert z == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("b, rho", [(2.0, 1.0), (1.0, 10.0), (1.0, 50.0), (1.0, 77.9)])
    def test_short_table_solves_its_finite_sum(self, b, rho):
        # 12 rows with a_i = 1 and z_s = 1: F(z) is the finite sum
        # sum_(i<=12) i b^(1-i) z^i, as rho_s is (3.993 at b = 2, 78 at
        # b = 1), so the solve meets its tolerance with no remainder bound;
        # at b = 1 the last terms grow from z = 11/12 (F = 39.1) on
        model = bd.make_custom_model(np.ones(12), b * np.ones(12), gamma=1.0, z_s=1.0)
        crit = bd.critical_values(model)
        assert crit.rho_s == pytest.approx({2.0: 3.993, 1.0: 78.0}[b], abs=1e-3)
        z = bd.solve_monomer_activity(model, rho, critical=crit)
        i = np.arange(1, 13, dtype=float)
        f = math.fsum((i * np.exp(bd.detailed_balance(model, 12) + i * math.log(z))).tolist())
        assert abs(f - rho) <= 1e-12 * rho

    def test_tiny_density_gives_tiny_activity(self, family_a):
        z = bd.solve_monomer_activity(family_a, 1e-8, critical=bd.critical_values(family_a))
        assert 0 < z < 2e-8

    def test_supercritical_rejected(self, family_a):
        crit = bd.critical_values(family_a)
        with pytest.raises(SupercriticalError):
            bd.solve_monomer_activity(family_a, crit.rho_s * 1.01, critical=crit)

    @pytest.mark.parametrize("fixture, full", [("family_a", "4.87787"), ("family_b", "32.4591")])
    def test_templates_refused_below_the_estimate(self, fixture, full, request):
        # 0.995 of the root test's old estimate of rho_s lies above L, the
        # partial sum at the model's own z_s = 1: the library solve
        # refuses it, naming L, where it once returned z_bar = 1.00228 and
        # 1.00138 > z_s
        model = request.getfixturevalue(fixture)
        crit = bd.critical_values(model)
        with pytest.raises(SupercriticalError, match=rf"= {full} at z_s = 1$"):
            bd.solve_monomer_activity(model, 0.995 * oracles.root_test_rho_s(model), critical=crit)

    def test_below_the_partial_sum_the_bits_hold(self, family_a):
        # 0.97 of the old estimate is 4.811, below L = 4.87787: the solve
        # meets it, by Newton on log F from the root test's bracket
        crit = bd.critical_values(family_a)
        z = bd.solve_monomer_activity(family_a, 0.97 * oracles.root_test_rho_s(family_a), critical=crit)
        assert z == 0.9972865790949564

    @pytest.fixture(scope="class")
    def long_ones_model(self):
        # 10^5 rows of a_i = b_i = 1, z_s = 1: rho_s is their sum 5.00005e9
        n = 100_000
        return bd.make_custom_model(np.ones(n), np.ones(n), gamma=1.0, z_s=1.0)

    def test_a_near_critical_table_stalls(self, long_ones_model):
        # at 1 - 1e-11 of the sum: F' near z_s = 1 is about 3e14, so one ulp
        # of z moves F by 0.013, past the tolerance 5e-3: no float z meets
        # this subcritical density, and the solve says so
        crit = bd.critical_values(long_ones_model)
        with pytest.raises(NumericalError, match=r"^activity solve stalled: \|F\(z\) - rho\| = 0\.013 > 0\.005$"):
            bd.solve_monomer_activity(long_ones_model, (1 - 1e-11) * crit.rho_s, critical=crit)

    def test_a_nearer_critical_table_has_no_bracket_below_z_s(self, long_ones_model):
        # at 1 - 1e-13 of the sum F stays below rho at every float below
        # z_s = 1: the bracket's creep stops at z_s, and z_s itself, where F
        # is the sum, within the tolerance of rho, is not returned
        crit = bd.critical_values(long_ones_model)
        with pytest.raises(NumericalError, match=r"^no activity below z_s = 1 solves F\(z\) = rho = 5\.00005e\+09$"):
            bd.solve_monomer_activity(long_ones_model, (1 - 1e-13) * crit.rho_s, critical=crit)

    def test_a_less_near_critical_table_solves(self, long_ones_model):
        # at 1 - 1e-9 of the sum a float below z_s = 1 meets the tolerance
        crit = bd.critical_values(long_ones_model)
        assert bd.solve_monomer_activity(long_ones_model, (1 - 1e-9) * crit.rho_s, critical=crit) == 0.999999999999985

    def test_rate_table_refused_by_the_solve(self, ones_model):
        crit = bd.critical_values(ones_model)
        with pytest.raises(SupercriticalError, match=r"^density 8\.01e\+06 is not below the critical density: "
                                                     r"sum_\(i<=4000\) i Q_i z_s\^i = 8\.002e\+06 at z_s = 1$"):
            bd.solve_monomer_activity(ones_model, 1.001 * crit.rho_s, critical=crit)

    def test_round_trip(self, family_a):
        crit = bd.critical_values(family_a)
        rng = np.random.default_rng(42)
        for _ in range(5):
            z = rng.uniform(0.05, 0.9) * crit.z_s
            rho, converged = density_at_activity(family_a, z, 1e-15)
            assert converged
            z_back = bd.solve_monomer_activity(family_a, rho, critical=crit)
            assert z_back == pytest.approx(z, abs=1e-9)

    def test_bisection_newton_agreement(self, family_b):
        crit = bd.critical_values(family_b)
        rho = 0.5 * crit.rho_s
        z_bis = bd.solve_monomer_activity(family_b, rho, critical=crit)
        # independent safeguarded Newton iteration with the analytic derivative
        log_q = bd.detailed_balance(family_b, 200_000)
        i = np.arange(1, 200_001, dtype=float)

        def f_and_deriv(z):
            with np.errstate(under="ignore"):
                terms = np.exp(np.log(i) + log_q + i * math.log(z))
            return float(np.sum(terms)) - rho, float(np.sum(terms * i / z))

        lo, hi = 0.0, 0.999 * crit.z_s
        z = 0.5 * crit.z_s
        for _ in range(200):
            val, deriv = f_and_deriv(z)
            if val > 0:
                hi = z
            else:
                lo = z
            step = val / deriv
            z_next = z - step
            if not lo < z_next < hi:
                z_next = 0.5 * (lo + hi)
            if abs(z_next - z) < 1e-15:
                z = z_next
                break
            z = z_next
        assert z_bis == pytest.approx(z, abs=1e-10)

    def test_monotone_series(self, family_a):
        rng = np.random.default_rng(3)
        crit = bd.critical_values(family_a)
        for _ in range(10):
            z1, z2 = sorted(rng.uniform(0.0, 0.95 * crit.z_s, size=2))
            if z1 == z2:
                continue
            f1, _ = density_at_activity(family_a, z1, 1e-14)
            f2, _ = density_at_activity(family_a, z2, 1e-14)
            assert f1 < f2

    @pytest.mark.parametrize("family", ["power_law", "exponential_tail"])
    def test_newton_on_the_templates(self, family, monkeypatch):
        # measured 7 and 10 evaluations of F, against 42 and 41 for the
        # bisection; z_bar moves by 1.7e-14 and 3.7e-13 relative
        from beckerdoring import equilibrium
        from beckerdoring.experiments import ExperimentConfig

        config = ExperimentConfig(family=family)
        model = config.build_model()
        prefix = _LogQPrefix(model)
        crit = bd.critical_values(model, log_q_prefix=prefix)
        calls = []
        series = equilibrium._series_at_activity

        def counted(*args):
            calls.append(args[1])
            return series(*args)

        monkeypatch.setattr(equilibrium, "_series_at_activity", counted)
        z = bd.solve_monomer_activity(model, config.rho, critical=crit, log_q_prefix=prefix)
        assert len(calls) <= 12
        monkeypatch.undo()
        self._assert_matches_bisection(model, config.rho, crit, prefix, z)

    def test_newton_on_the_census(self):
        # every activity solve of tools/census.py's grid (the initial shape
        # does not enter it) whose model builds; measured within 5.4e-13 of
        # the bisection.  A density at or above L, the partial sum at the
        # model's own z_s, is refused before any iterate: the 3 that stalled
        # when the solve refused against the root test's rho_s (an exp tail
        # at mu_c = 0.35, 0.995 of that estimate) are among them
        from beckerdoring.experiments import ExperimentConfig

        built, refused, stalled = 0, 0, 0
        for family, gamma, mu_c, share in itertools.product(
            ["power_law", "exponential_tail"], [0.2, 0.5, 0.8, 1.0], [0.2, 0.35, 0.5, 0.65, 0.8],
            [0.3, 0.6, 0.9, 0.97, 0.995],
        ):
            config = ExperimentConfig(family=family, gamma=gamma, mu_c=mu_c)
            try:
                model = config.build_model()
            except ParameterError:
                continue
            prefix = _LogQPrefix(model)
            crit = bd.critical_values(model, log_q_prefix=prefix)
            rho_s = oracles.root_test_rho_s(model)
            rho = share * (rho_s if math.isfinite(rho_s) else 10.0)
            try:
                z = bd.solve_monomer_activity(model, rho, critical=crit, log_q_prefix=prefix)
            except SupercriticalError:
                refused += 1
                continue
            except NumericalError as exc:
                assert str(exc).startswith("activity solve stalled")
                stalled += 1
                continue
            self._assert_matches_bisection(model, rho, crit, prefix, z)
            built += 1
        assert (built, refused, stalled) == (121, 54, 0)

    @staticmethod
    def _assert_matches_bisection(model, rho, crit, prefix, z):
        ref = oracles.bisect_monomer_activity(model, rho, critical=crit, log_q_prefix=prefix)
        assert z == pytest.approx(ref, rel=1e-11, abs=0)
        value, converged, _ = _series_at_activity(prefix, z, 1e-12 * rho / 10)
        assert converged and abs(value - rho) <= 1e-12 * rho


class TestEquilibriumProfile:
    @pytest.mark.parametrize("z_bar", [0.0, 1.001, 1.0], ids=["zero", "at-z_s", "z_s-itself"])
    def test_activity_outside_the_open_range_refused(self, family_a, z_bar):
        # the library solves only z_bar in (0, z_s), z_s the model's own 1:
        # no profile is built at either end, z_s itself included, nor below
        # the root test's estimate 1.00325
        assert bd.critical_values(family_a).z_s > 1.003
        with pytest.raises(ParameterError, match=r"outside \(0, z_s = 1\)$"):
            bd.equilibrium_profile(family_a, z_bar, 50)

    def test_geometric_profile(self, ones_model):
        # Q_i = 1, z = 1/2: profile is 2^-i
        eq = bd.equilibrium_profile(ones_model, 0.5, 30)
        expected = 0.5 ** np.arange(1, 31)
        assert eq.profile == pytest.approx(expected, rel=1e-13)

    def test_family_a_entry(self, family_a):
        # Q_2 z^2 at z = 0.3: (sqrt(2) - 1) * 0.09
        eq = bd.equilibrium_profile(family_a, 0.3, 10)
        assert eq.profile[1] == pytest.approx((math.sqrt(2) - 1.0) * 0.09, rel=1e-13)

    def test_underflow_cut_reported(self, family_a):
        crit = bd.critical_values(family_a)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 2000)
        assert eq.cut_index is not None
        assert np.all(eq.profile[eq.cut_index - 1 :] == 0.0)
        assert np.all(eq.profile[: eq.cut_index - 1] > 0.0)
        assert eq.rho == pytest.approx(1.0, rel=1e-10)

    def test_fixed_point_net_rates(self, family_a):
        # max_i |a_i z 𝒬_i - b_{i+1} 𝒬_{i+1}| <= 1e-12 max_i(a_i z 𝒬_i)
        crit = bd.critical_values(family_a)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 2000)
        w = oracles.net_rates(eq.profile.copy(), family_a)
        i = np.arange(1, 2000, dtype=float)
        flux = family_a.a(i) * z * eq.profile[:-1]
        assert np.max(np.abs(w[:-1])) <= 1e-12 * np.max(flux)


class TestRelativeFreeEnergy:
    def test_zero_at_equilibrium(self, ones_model):
        eq = bd.equilibrium_profile(ones_model, 0.5, 40)
        assert bd.relative_free_energy(eq.profile.copy(), eq) == pytest.approx(0.0, abs=1e-16)

    def test_empty_state(self, ones_model):
        eq = bd.equilibrium_profile(ones_model, 0.5, 40)
        assert bd.relative_free_energy(np.zeros(40), eq) == pytest.approx(
            math.fsum(eq.profile), rel=1e-14
        )

    def test_doubled_state(self, ones_model):
        # termwise: 2Q log 2 - 2Q + Q = Q (2 log 2 - 1)
        eq = bd.equilibrium_profile(ones_model, 0.5, 40)
        expected = (2.0 * math.log(2.0) - 1.0) * math.fsum(eq.profile)
        assert bd.relative_free_energy(2.0 * eq.profile, eq) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_positive_away_from_equilibrium(self, seed):
        rng = np.random.default_rng(seed)
        model = bd.make_custom_model(np.ones(30), np.ones(30), gamma=1.0, z_s=1.0)
        eq = bd.equilibrium_profile(model, 0.5, 30)
        factors = np.exp(rng.normal(0, 0.5, size=30))
        c = eq.profile * factors
        h = bd.relative_free_energy(c, eq)
        assert h >= -1e-12 * (1.0 + abs(h))
        if np.max(np.abs(factors - 1.0)) > 1e-3:
            assert h > 0.0

    def test_domain_error_on_bare_profile(self):
        eq = bare_equilibrium([0.5, 0.25, 0.0])
        with pytest.raises(FreeEnergyDomainError) as err:
            bd.relative_free_energy(np.array([0.1, 0.1, 0.1]), eq)
        assert err.value.index == 3

    def test_finite_past_cut_with_log_profile(self, family_a):
        crit = bd.critical_values(family_a)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 2000)
        c = eq.profile.copy()
        c[-1] = 1e-30  # mass past the underflow cut
        assert math.isfinite(bd.relative_free_energy(c, eq))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_entries(self, family_a, bad):
        # a NaN once counted as zero: (1, nan, 0, ...) got a finite H, one
        # ulp from that of (1, 0, ...)
        crit = bd.critical_values(family_a)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 300)
        c = np.zeros(300)
        c[0], c[1] = 1.0, bad
        for states in (c, np.array([eq.profile, c])):
            with pytest.raises(ParameterError, match="concentrations must be finite and non-negative"):
                bd.relative_free_energy(states, eq)

    def test_length_mismatch(self, ones_model):
        eq = bd.equilibrium_profile(ones_model, 0.5, 40)
        with pytest.raises(ParameterError):
            bd.relative_free_energy(np.zeros(10), eq)


def assert_same_as_fsum(x):
    """fsum_array(x) is math.fsum(x) bit for bit (sign of zero and NaN
    included), or raises the same exception."""
    x = np.asarray(x, dtype=float)
    try:
        expected = math.fsum(x)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fsum_array(x)
        return
    assert fsum_array(x).hex() == expected.hex()


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # integer mantissas over the whole exponent range, subnormals included
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1126, 900)),
)


@st.composite
def _near_ties(draw):
    """[s, half the gap above s, -delta] and many terms just below the head
    cut: the rest decides on which side of the tie the exact sum lies."""
    s = draw(st.floats(min_value=1e-290, max_value=1e290)) * draw(st.sampled_from([-1.0, 1.0]))
    half = (math.nextafter(s, math.copysign(math.inf, s)) - s) / 2.0
    delta = math.ldexp(abs(half), -draw(st.integers(40, 60)))
    tiny = math.ldexp(abs(s), -draw(st.integers(111, 114)))
    terms = [s, half, -math.copysign(delta, s)] + [math.copysign(tiny, s)] * draw(st.integers(0, 3000))
    random.Random(draw(st.integers(0, 2**32))).shuffle(terms)
    return terms


class TestFsumArray:
    """fsum_array returns math.fsum's value on every input."""

    @given(st.lists(_FINITE, max_size=80))
    @settings(max_examples=400, deadline=None)
    def test_finite_arrays(self, x):
        assert_same_as_fsum(x)

    @given(st.lists(_FINITE, max_size=40).flatmap(lambda xs: st.permutations(xs + [-v for v in xs])),
           st.lists(st.sampled_from([5e-324, -5e-324, 1e-310]), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_cancellation(self, pairs, tiny):
        assert_same_as_fsum(pairs)
        assert_same_as_fsum(pairs + tiny)

    @given(_near_ties())
    @settings(max_examples=200, deadline=None)
    def test_near_ties(self, x):
        assert_same_as_fsum(x)

    @pytest.mark.parametrize("x", [
        [], [0.0], [-0.0], [5e-324], [-3.5],
        # ties that only the exact sum breaks
        [1.0, 2.0**-53, 2.0**-1074],
        [-1.0, -(2.0**-53), -(2.0**-1074)],
        [1.0, 2.0**-53, -(2.0**-1074)],
        # head below the tie, and 2049 terms past the cut add more than it lacks
        [1.0, 2.0**-53, -(2.0**-100)] + [2.0**-111] * 2049,
        [1.0, 2.0**-53, -(2.0**-100)] + [2.0**-111] * 2047,
        [-1.0, -(2.0**-53), 2.0**-100] + [-(2.0**-111)] * 2049,
    ])
    def test_fixed_cases(self, x):
        assert_same_as_fsum(x)

    @pytest.mark.parametrize("x", [
        [math.inf, 1.0], [-math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf],
        [1e308, 1e308], [1e308, 1e308, -1e308], [1e300, 1.0, -1e300],
    ])
    def test_non_finite_and_huge(self, x):
        assert_same_as_fsum(x)
