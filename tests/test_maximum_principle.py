import math

import numpy as np
import pytest
import scipy.linalg

import beckerdoring as bd
from beckerdoring.errors import ParameterError
from conftest import monodisperse
import oracles


def random_metzler(rng, n):
    a = rng.uniform(0.0, 2.0, (n, n))
    np.fill_diagonal(a, 0.0)
    diag = -(a.sum(axis=1) + rng.uniform(0.2, 2.0, n))
    return a + np.diag(diag)


class TestMetzlerSystem:
    def test_tail_comparison_rows(self, half_model):
        # a_i = 1, b_i = 2, omega = 1, range 2..4
        system = oracles.build_tail_comparison_matrix(half_model, 1.0, 2, 4)
        dense = system.to_dense()
        expected = np.array([[-3.0, 2.0, 0.0], [1.0, -3.0, 2.0], [0.0, 1.0, -3.0]])
        assert dense == pytest.approx(expected, abs=0)

    def test_interior_row_sums_vanish(self, family_a):
        system = oracles.build_tail_comparison_matrix(family_a, 0.7, 2, 40)
        sums = system.to_dense().sum(axis=1)
        assert np.max(np.abs(sums[1:-1])) <= 1e-12

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            oracles.MetzlerSystem.from_dense(np.array([[-1.0, -0.1], [0.5, -1.0]]))
        with pytest.raises(ParameterError):
            oracles.MetzlerSystem.from_tridiagonal(np.array([-0.1]), np.array([-1.0, -1.0]), np.array([0.2]))

    def test_band_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            oracles.MetzlerSystem.from_tridiagonal(np.array([0.1, 0.2]), np.array([-1.0, -1.0]), np.array([0.2]))

    def test_domination_of_a_built_supersolution(self, family_a, trajectory):
        g0 = bd.tail_density(trajectory.at(2.0))
        params = bd.make_params(family_a, 0.7, trajectory.rho[0], z_s=family_a.z_s_param)
        sol = bd.build_supersolution(family_a, params, g0)
        report = bd.check_domination(trajectory, sol.r, 2.0)
        assert isinstance(report.max_gap, float)

    def test_row_abs_sum(self):
        system = oracles.MetzlerSystem.from_dense(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        assert system.c_row == 3.0

    def test_matvec_matches_dense(self, family_a):
        system = oracles.build_tail_comparison_matrix(family_a, 0.5, 2, 30)
        rng = np.random.default_rng(1)
        u = rng.normal(size=system.n)
        assert system.matvec(u) == pytest.approx(system.to_dense() @ u, rel=1e-13)


class TestSignPreservation:
    def test_symmetric_eigenvector_decay(self):
        # u0 = (-1,-1) is the eigenvalue -1 eigenvector: u(t) = -e^-t (1,1)
        system = oracles.MetzlerSystem.from_dense(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        res = oracles.verify_sign_preservation(system, np.array([-1.0, -1.0]), 2.0, rel_tol=1e-11)
        assert res.ok
        assert res.y_end == pytest.approx(-math.exp(-2.0) * np.ones(2), rel=1e-9)

    @pytest.mark.parametrize("u0", [[np.nan, -1.0], [-np.inf, -1.0]], ids=["nan", "-inf"])
    def test_rejects_non_finite_initial_data(self, u0):
        # NaN passes the u0 <= 0 check; the integrator refuses it before a step
        system = oracles.MetzlerSystem.from_dense(-np.eye(2))
        with pytest.raises(ParameterError, match="initial state must be finite"):
            oracles.verify_sign_preservation(system, np.array(u0), 1.0)

    def test_zero_stays_zero(self):
        system = oracles.MetzlerSystem.from_dense(-np.eye(3))
        res = oracles.verify_sign_preservation(system, np.zeros(3), 5.0)
        assert res.ok and np.max(np.abs(res.y_end)) <= 1e-12

    def test_random_systems_with_slack(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            system = oracles.MetzlerSystem.from_dense(random_metzler(rng, n))
            u0 = -rng.random(n)
            s0 = -rng.random(n)
            res = oracles.verify_sign_preservation(
                system, u0, 3.0, slack=lambda t, s0=s0: s0 * math.exp(-t)
            )
            assert res.ok

    def test_expm_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_metzler(rng, n)
            system = oracles.MetzlerSystem.from_dense(a)
            u0 = -rng.random(n)
            res = oracles.verify_sign_preservation(system, u0, 2.0, rel_tol=1e-11, abs_tol=1e-14)
            exact = scipy.linalg.expm(2.0 * a) @ u0
            assert np.max(np.abs(res.y_end - exact)) <= 1e-9

    def test_gronwall_envelope_for_positive_part(self):
        # one positive entry: the positive-part mass stays under y(0) e^{Ct}
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_metzler(rng, n)
            u0 = -rng.random(n)
            u0[rng.integers(0, n)] = rng.uniform(0.1, 1.0)
            c_row = float(np.max(np.sum(np.abs(a), axis=1)))
            t_grid = np.linspace(0.0, 1.5, 16)
            y0 = float(np.sum(np.clip(u0, 0.0, None)))
            for t in t_grid[1:]:
                u = scipy.linalg.expm(t * a) @ u0
                y = float(np.sum(np.clip(u, 0.0, None)))
                assert y <= y0 * math.exp(c_row * t) * (1 + 1e-9)

    def test_rejects_positive_initial_data(self):
        system = oracles.MetzlerSystem.from_dense(-np.eye(2))
        with pytest.raises(ParameterError):
            oracles.verify_sign_preservation(system, np.array([0.1, -1.0]), 1.0)


@pytest.fixture(scope="module")
def trajectory(family_a):
    return bd.integrate(monodisperse(150, 1.0), family_a, 10.0, bd.IntegrateOptions(n_snapshots=41))


class TestCheckDomination:

    def test_offset_tail_dominates(self, trajectory):
        g0 = bd.tail_density(trajectory.at(2.0))
        report = bd.check_domination(trajectory, g0 + 1.0, 2.0)
        assert report.holds and report.first_violation is None

    def test_broken_entry_located(self, trajectory):
        g0 = bd.tail_density(trajectory.at(2.0))
        r = g0 + 1.0
        r[4] = g0[4] / 2.0
        report = bd.check_domination(trajectory, r, 2.0)
        assert not report.holds
        t, j, gap = report.first_violation
        assert t == pytest.approx(2.0) and j == 5 and gap > 0

    def test_monotone_in_r(self, trajectory):
        g0 = bd.tail_density(trajectory.at(2.0))
        base = bd.check_domination(trajectory, g0 + 0.5, 2.0)
        bigger = bd.check_domination(trajectory, g0 + 1.5, 2.0)
        assert bigger.max_gap <= base.max_gap
        assert (not base.holds) or bigger.holds

    @pytest.mark.parametrize("case", ["holds", "head", "past_support"])
    def test_matches_per_snapshot_reference(self, trajectory, case):
        # the one-pass check against the per-snapshot loop it replaced
        n = trajectory.n
        r = bd.tail_density(trajectory.at(2.0)) + 1.0
        if case == "head":
            r[2] = 0.0
        elif case == "past_support":
            r[n - 5] = -1.0  # below G_j = 0, in every snapshot
        report = bd.check_domination(trajectory, r, 2.0)
        eps = 1e-10 * trajectory.rho[0]
        max_gap, first, checked = -math.inf, None, 0
        for t in trajectory.times.tolist():
            if t < 2.0 - 1e-12:
                continue
            checked += 1
            gaps = bd.tail_density(trajectory.at(t)) - r
            max_gap = max(max_gap, float(np.max(gaps)))
            if first is None and np.max(gaps) > eps:
                j = int(np.argmax(gaps > eps)) + 1
                first = (t, j, float(gaps[j - 1]))
        assert (report.max_gap, report.first_violation, report.n_snapshots) == (max_gap, first, checked)
        assert report.holds == (case == "holds")

    def test_needs_snapshots_in_window(self, trajectory):
        with pytest.raises(ParameterError):
            bd.check_domination(trajectory, np.ones(150), 99.0)

    def test_needs_a_sequence_as_long_as_the_truncation(self, trajectory):
        with pytest.raises(ParameterError, match="dominating sequence shorter than the truncation"):
            bd.check_domination(trajectory, np.ones(149), 2.0)
