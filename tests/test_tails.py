import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring.errors import ParameterError
from beckerdoring.tails import tail_density, tail_moment, tail_rhs
from conftest import monodisperse

EPS = np.finfo(float).eps


def random_state(rng, n=None):
    n = n or int(rng.integers(20, 400))
    return rng.random(n) * np.exp(-np.arange(n) / rng.uniform(3.0, 60.0))


class TestTailDensity:
    def test_suffix_sums(self):
        g = tail_density(np.array([1.0, 0.5, 0.25])).g
        assert g == pytest.approx([1.75, 0.75, 0.25], abs=0)

    def test_point_mass(self):
        g = tail_density(np.array([1.0, 0.0, 0.0])).g
        assert g == pytest.approx([1.0, 0.0, 0.0], abs=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_to_one_rounding(self, seed):
        rng = np.random.default_rng(seed)
        c = random_state(rng, 100)
        g = tail_density(c).g
        back = g[:-1] - g[1:]
        # each entry differs from c_j by at most the rounding of one addition
        assert np.all(np.abs(back - c[:-1]) <= 2 * EPS * g[0])
        assert g[-1] == c[-1]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        g = tail_density(random_state(rng)).g
        assert np.all(np.diff(g) <= 0.0)

    def test_head_is_zeroth_moment(self):
        rng = np.random.default_rng(5)
        c = random_state(rng, 250)
        g = tail_density(c).g
        assert g[0] == pytest.approx(math.fsum(c), rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            tail_density(np.array([1.0, -0.5]))

    def test_matrix_rows_match_single_states(self):
        rng = np.random.default_rng(11)
        states = np.array([random_state(rng, 60) for _ in range(4)])
        g = tail_density(states)
        assert g.n == 60
        for row, state in zip(g.g, states):
            assert np.array_equal(row, tail_density(state).g)


class TestTailMoments:
    def test_point_mass_sandwich(self):
        g = tail_density(np.array([1.0, 0.0, 0.0]))
        for k in (0, 1, 2, 5):
            assert tail_moment(g, k) == 1.0

    def test_zeroth_tail_moment_is_density(self):
        c = np.array([1.0, 0.5, 0.25])
        g = tail_density(c)
        assert tail_moment(g, 0) == pytest.approx(2.75, abs=0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_sandwich_brute_force(self, k):
        # M_{k+1}(c)/(k+1) <= M_k(G) <= M_{k+1}(c), both sides by direct sums
        rng = np.random.default_rng(k)
        for _ in range(40):
            c = random_state(rng)
            n = len(c)
            i = np.arange(1, n + 1, dtype=float)
            m_tail = tail_moment(tail_density(c), k)
            m_state = math.fsum(i ** (k + 1) * c)
            assert m_state / (k + 1) <= m_tail * (1 + 1e-12)
            assert m_tail <= m_state * (1 + 1e-12)


class TestStretchedWeights:
    def test_weight_values(self):
        w = bd.stretched_weights(1.0, 0.5)
        psi = w.psi(4)
        assert psi[0] == pytest.approx(math.e, rel=1e-15)
        assert psi[3] == pytest.approx(math.exp(2.0) / 2.0, rel=1e-15)

    def test_constants(self):
        # eta2 = max(1, 2^(1/2) * 0.5), eta1 = min(1, 0.5 exp(1 - sqrt 2))
        w = bd.stretched_weights(1.0, 0.5)
        assert w.eta2 == 1.0
        assert w.eta1 == pytest.approx(0.5 * math.exp(1.0 - math.sqrt(2.0)), rel=1e-15)
        assert w.eta1 == pytest.approx(0.33042990070341394, rel=1e-12)

    @pytest.mark.parametrize("alpha,mu", [(1.0, 0.5), (0.5, 0.3), (2.0, 0.25), (3.0, 0.9)])
    def test_lower_constant_minimizer_at_two(self, alpha, mu):
        # the infimum over j >= 2 of exp(alpha((j-1)^mu - j^mu)) sits at j = 2
        j = np.arange(2, 1_000_001, dtype=float)
        vals = np.exp(alpha * ((j - 1) ** mu - j**mu))
        assert int(np.argmin(vals)) == 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            bd.stretched_weights(0.0, 0.5)
        with pytest.raises(ParameterError):
            bd.stretched_weights(1.0, 1.0)


class TestStretchedSandwich:
    def test_point_mass_is_tight(self):
        w = bd.stretched_weights(1.0, 0.5)
        rep = bd.stretched_sandwich_check(np.array([1.0, 0.0, 0.0]), w)
        assert rep.value == pytest.approx(math.e, rel=1e-15)
        assert rep.upper_margin >= 0.0 and rep.lower_margin >= 0.0

    @pytest.mark.parametrize("alpha,mu", [(1.0, 0.5), (0.5, 0.3), (2.0, 0.25)])
    def test_random_states(self, alpha, mu):
        rng = np.random.default_rng(int(alpha * 10 + mu * 100))
        w = bd.stretched_weights(alpha, mu)
        for _ in range(50):
            rep = bd.stretched_sandwich_check(random_state(rng), w)
            assert rep.lower_margin >= 0.0
            assert rep.upper_margin >= 0.0

    def test_geometric_state(self):
        c = 0.5 ** np.arange(1, 200)
        rep = bd.stretched_sandwich_check(c, bd.stretched_weights(1.0, 0.5))
        assert rep.lower_margin >= 0.0 and rep.upper_margin >= 0.0


class TestTailRhs:
    def test_equilibrium_vanishes(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.4, 200)
        g = tail_density(eq.profile.copy())
        out = tail_rhs(g, 0.4, family_a)
        assert np.max(np.abs(out)) <= 1e-13

    def test_capped_monomer_dominates(self, family_a):
        # with c_1 <= omega the omega-frozen operator bounds the true rhs
        rng = np.random.default_rng(11)
        g = tail_density(random_state(rng, 100))
        low = tail_rhs(g, 0.3, family_a)
        high = tail_rhs(g, 0.5, family_a)
        assert np.all(low <= high + 1e-15)

    def test_matches_trajectory_differences(self, family_a):
        # centered differences of G_j(t) against the tail derivative
        state0 = monodisperse(200, 1.0)
        dt = 0.002
        t_eval = np.arange(0.0, 2.0 + dt / 2, dt)
        traj = bd.integrate(state0, family_a, 2.0, bd.IntegrateOptions(rel_tol=1e-10, t_eval=t_eval))
        idx = len(t_eval) // 2
        gm, g0, gp = (tail_density(c).g for c in traj.states[idx - 1 : idx + 2])
        fd = (gp - gm) / (2 * dt)
        rhs = tail_rhs(g0, traj.states[idx, 0], family_a)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(fd[1:-1] - rhs)) <= 1e-4 * scale

    def test_identity_with_net_rates(self, family_a):
        # the tail derivative at index j is exactly the net rate of size j-1
        rng = np.random.default_rng(23)
        c = rng.random(80)
        state = bd.ClusterState(c)
        g = tail_density(c)
        rhs = tail_rhs(g, c[0], family_a)
        w = bd.net_rates(state, family_a)
        assert rhs == pytest.approx(w[:78], rel=1e-11, abs=1e-13)
