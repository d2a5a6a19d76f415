import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring.errors import FreeEnergyDomainError, ParameterError, StepSizeUnderflowError
from conftest import monodisperse


class TestNetRates:
    def test_hand_example(self, half_model):
        # w_1 = a_1 c_1 c_1 - b_2 c_2 = 0.25 - 0.5, w_2 = a_2 c_1 c_2 - b_3 c_3
        state = bd.ClusterState(np.array([0.5, 0.25, 0.0]))
        w = bd.net_rates(state, half_model)
        assert w == pytest.approx([-0.25, 0.125, 0.0], abs=0)

    def test_single_species(self, ones_model):
        state = bd.ClusterState(np.array([1.0, 0.0, 0.0]))
        w = bd.net_rates(state, ones_model)
        assert w == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_truncation_closure(self, family_a):
        rng = np.random.default_rng(0)
        state = bd.ClusterState(rng.random(50))
        assert bd.net_rates(state, family_a)[-1] == 0.0

    def test_equilibrium_rates_vanish(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.4, 200)
        w = bd.net_rates(bd.ClusterState(eq.profile.copy()), family_a)
        scale = np.max(family_a.a(np.arange(1, 200, dtype=float)) * 0.4 * eq.profile[:-1])
        assert np.max(np.abs(w)) <= 1e-12 * scale


class TestRhs:
    def test_hand_example(self, half_model):
        state = bd.ClusterState(np.array([0.5, 0.25, 0.0]))
        dc = bd.rhs(state, half_model)
        assert dc == pytest.approx([0.375, -0.375, 0.125], abs=0)

    def test_equilibrium_is_fixed_point(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.4, 200)
        dc = bd.rhs(bd.ClusterState(eq.profile.copy()), family_a)
        assert np.max(np.abs(dc)) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_mass_telescoping(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        model = bd.make_power_law_model(rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), 1.0, 0.5)
        state = bd.ClusterState(rng.random(n))
        dc = bd.rhs(state, model)
        i = np.arange(1, n + 1, dtype=float)
        assert abs(math.fsum(i * dc)) <= 1e-13 * math.fsum(np.abs(i * dc)) + 1e-300


class TestMomentAccessors:
    def test_density(self):
        state = bd.ClusterState(np.array([1.0, 0.5, 0.25]))
        assert bd.density(state) == pytest.approx(2.75, abs=0)

    def test_zeroth_moment(self):
        state = bd.ClusterState(np.array([1.0, 0.5, 0.25]))
        assert bd.moment(state, 0) == pytest.approx(1.75, abs=0)

    def test_stretched_moment(self):
        # e + e^sqrt(2)/2 + e^sqrt(3)/4, evaluated directly
        state = bd.ClusterState(np.array([1.0, 0.5, 0.25]))
        expected = math.e + math.exp(math.sqrt(2)) * 0.5 + math.exp(math.sqrt(3)) * 0.25
        assert bd.stretched_moment(state, 1.0, 0.5) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(6.187965436359033, rel=1e-12)

    def test_parameter_validation(self):
        state = bd.ClusterState(np.array([1.0, 0.5]))
        with pytest.raises(ParameterError):
            bd.moment(state, -1)
        with pytest.raises(ParameterError):
            bd.stretched_moment(state, 1.0, 1.0)

    def test_state_accessor_methods(self):
        state = bd.ClusterState(np.array([1.0, 0.5, 0.25]))
        assert state.density() == bd.density(state)
        assert state.moment(2) == bd.moment(state, 2)
        assert state.stretched_moment(1.0, 0.5) == bd.stretched_moment(state, 1.0, 0.5)


class TestIntegrate:
    def test_equilibrium_stays_fixed(self, family_a):
        crit = bd.critical_values(family_a, 100_000)
        z = bd.solve_monomer_activity(family_a, 0.5, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 500, critical=crit)
        opts = bd.IntegrateOptions(rel_tol=1e-8, n_snapshots=21)
        traj = bd.integrate(bd.ClusterState(eq.profile.copy()), family_a, 10.0, opts)
        drift = max(float(np.max(np.abs(s.c - eq.profile))) for s in traj.snapshots)
        assert drift <= 10 * 1e-8 * float(np.max(eq.profile))

    def test_mass_conserved_and_positive(self, family_a):
        state0 = monodisperse(300, 1.0)
        traj = bd.integrate(state0, family_a, 20.0, bd.IntegrateOptions(n_snapshots=81))
        assert np.all(np.abs(traj.rho - traj.rho[0]) / traj.rho[0] <= 1e-10)
        assert np.all(traj.states >= 0.0)

    def test_monomer_decreases_to_activity(self, family_a):
        crit = bd.critical_values(family_a, 100_000)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        traj = bd.integrate(monodisperse(300, 1.0), family_a, 30.0, bd.IntegrateOptions(n_snapshots=61))
        c1 = traj.states[:, 0].tolist()
        assert all(b <= a * (1 + 1e-12) for a, b in zip(c1, c1[1:]))
        assert c1[-1] == pytest.approx(z, abs=1e-4)

    def test_self_convergence_against_tight_reference(self, family_a):
        # reference at rel_tol / 100, state error within 100 rel_tol of scale
        state0 = monodisperse(200, 1.0)
        ref = bd.integrate(state0, family_a, 5.0, bd.IntegrateOptions(rel_tol=1e-8, n_snapshots=2))
        run = bd.integrate(state0, family_a, 5.0, bd.IntegrateOptions(rel_tol=1e-6, n_snapshots=2))
        err = float(np.max(np.abs(run.snapshots[-1].c - ref.snapshots[-1].c)))
        scale = float(np.max(ref.snapshots[-1].c))
        assert err <= 100 * 1e-6 * scale

    def test_free_energy_monotone(self, family_a):
        crit = bd.critical_values(family_a, 100_000)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 300, critical=crit)
        opts = bd.IntegrateOptions(rel_tol=1e-8, n_snapshots=101, equilibrium=eq)
        traj = bd.integrate(monodisperse(300, 1.0), family_a, 50.0, opts)
        h = traj.free_energy
        slack = 10 * 1e-8 * max(1.0, h[0])
        assert np.all(np.diff(h) <= slack)

    def test_tail_overflow_warning(self, family_a):
        traj = bd.integrate(
            monodisperse(8, 3.0), family_a, 5.0,
            bd.IntegrateOptions(n_snapshots=11, tail_threshold=1e-12),
        )
        assert traj.warnings and "truncation" in traj.warnings[0]

    def test_negative_only_clamp_strategy(self, family_a):
        # the dead band off: still conserving and positive, but a noise
        # floor of order abs_tol survives across the truncation
        opts = bd.IntegrateOptions(n_snapshots=21, dead_band=False)
        traj = bd.integrate(monodisperse(200, 1.0), family_a, 20.0, opts)
        assert np.all(np.abs(traj.rho - traj.rho[0]) / traj.rho[0] <= 1e-10)
        assert np.all(traj.states >= 0.0)

    def test_step_budget_exhaustion_names_remedies(self, family_a):
        with pytest.raises(StepSizeUnderflowError) as err:
            bd.integrate(monodisperse(100, 1.0), family_a, 100.0, bd.IntegrateOptions(max_steps=3))
        message = str(err.value)
        assert "implicit" in message and "truncation" in message

    def test_snapshot_grid_and_lookup(self, family_a):
        t_eval = np.array([0.0, 0.5, 1.5, 4.0])
        traj = bd.integrate(monodisperse(50, 0.5), family_a, 4.0, bd.IntegrateOptions(t_eval=t_eval))
        assert traj.times == pytest.approx(t_eval, abs=0)
        assert traj.at(1.5).t == 1.5
        with pytest.raises(ParameterError):
            traj.at(2.37)

    def test_grid_may_start_after_t0(self, family_a):
        t_eval = np.array([1.0, 2.0, 3.0])
        traj = bd.integrate(monodisperse(50, 0.5), family_a, 3.0, bd.IntegrateOptions(t_eval=t_eval))
        assert traj.times == pytest.approx(t_eval, abs=0)
        assert all(np.all(s.c >= 0) for s in traj.snapshots)

    def test_rejects_negative_initial_data(self):
        with pytest.raises(ParameterError):
            bd.ClusterState(np.array([1.0, -0.1]))

    def test_snapshot_times_strictly_increasing_enforced(self, family_a):
        with pytest.raises(ParameterError):
            bd.Trajectory(
                model=family_a, times=np.array([0.0, 0.0]), states=np.zeros((2, 3)),
                rho=np.zeros(2), free_energy=np.zeros(2),
            )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_conservation_across_random_families(self, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.2, 0.9)
        z_s = rng.uniform(0.6, 1.5)
        mu = rng.uniform(0.2, 0.8)
        if rng.integers(0, 2):
            model = bd.make_power_law_model(gamma, z_s, rng.uniform(0.3, 2.0), mu)
        else:
            model = bd.make_exponential_tail_model(gamma, z_s, rng.uniform(0.3, 1.5), mu)
        c0 = rng.random(30) * np.exp(-np.arange(30) / 5.0)
        traj = bd.integrate(bd.ClusterState(c0), model, 2.0, bd.IntegrateOptions(n_snapshots=9))
        assert np.all(np.abs(traj.rho - traj.rho[0]) <= 1e-10 * traj.rho[0])
        assert np.all(traj.states >= 0.0)


class TestCrossValidation:
    def test_trajectory_matches_external_integrator(self, family_a):
        # independent oracle: scipy's implicit Radau on the same vector field
        import scipy.integrate

        n = 60
        c0 = np.zeros(n)
        c0[0] = 0.8
        traj = bd.integrate(
            bd.ClusterState(c0.copy()), family_a, 5.0,
            bd.IntegrateOptions(rel_tol=1e-10, abs_tol=1e-16, n_snapshots=6),
        )
        sol = scipy.integrate.solve_ivp(
            lambda t, y: bd.rhs(bd.ClusterState(np.clip(y, 0.0, None), t), family_a),
            (0.0, 5.0),
            c0,
            method="Radau",
            rtol=1e-10,
            atol=1e-14,
            t_eval=traj.times,
        )
        assert sol.success
        err = float(np.max(np.abs(traj.snapshots[-1].c - sol.y[:, -1])))
        assert err <= 1e-8

    def test_free_energy_dissipation_identity(self, ones_model):
        # dH/dt = -sum_i W_i log(a_i c_1 c_i / (b_{i+1} c_{i+1})), checked by
        # centered differences of H along a strictly positive trajectory
        n = 30
        eq = bd.equilibrium_profile(ones_model, 0.5, n)
        c0 = eq.profile * (1.0 + 0.3 * np.sin(np.arange(1, n + 1)))
        dt = 1e-3
        t_eval = np.arange(0.0, 0.2 + dt / 2, dt)
        traj = bd.integrate(
            bd.ClusterState(c0), ones_model, 0.2,
            bd.IntegrateOptions(rel_tol=1e-11, abs_tol=1e-18, t_eval=t_eval, equilibrium=eq),
        )
        for idx in (40, 100, 160):
            fd = (traj.free_energy[idx + 1] - traj.free_energy[idx - 1]) / (2 * dt)
            c = traj.states[idx]
            w = bd.net_rates(bd.ClusterState(c), ones_model)[: n - 1]
            gain = c[0] * c[:-1]  # a_i c_1 c_i with a_i = 1
            loss = c[1:]          # b_{i+1} c_{i+1} with b_{i+1} = 1
            dissipation = math.fsum(w * np.log(gain / loss))
            assert fd == pytest.approx(-dissipation, rel=1e-4, abs=1e-10)
            assert dissipation >= 0.0


class TestWeakFormResidual:
    def test_mass_weight_vanishes(self, family_a):
        traj = bd.integrate(monodisperse(200, 1.0), family_a, 4.0, bd.IntegrateOptions(n_snapshots=201))
        phi = np.arange(1, 201, dtype=float)
        res = bd.weak_form_residual(traj, phi, 2.0)
        assert res <= 1e-8 * 1.0

    def test_counting_weight_second_order(self, family_a):
        # residual for phi = 1 shrinks like the snapshot spacing squared
        state0 = monodisperse(200, 1.0)
        residuals = []
        for n_snap in (101, 201):
            traj = bd.integrate(state0, family_a, 4.0, bd.IntegrateOptions(n_snapshots=n_snap, rel_tol=1e-10))
            residuals.append(bd.weak_form_residual(traj, np.ones(200), 2.0))
        assert residuals[1] <= residuals[0] / 2.5

    def test_equilibrium_quadratic_weight(self, family_a):
        crit = bd.critical_values(family_a, 100_000)
        z = bd.solve_monomer_activity(family_a, 1.0, critical=crit)
        eq = bd.equilibrium_profile(family_a, z, 300, critical=crit)
        traj = bd.integrate(bd.ClusterState(eq.profile.copy()), family_a, 2.0, bd.IntegrateOptions(n_snapshots=101))
        phi = np.arange(1, 301, dtype=float) ** 2
        assert bd.weak_form_residual(traj, phi, 1.0) <= 1e-10


def _assert_matches_scalar_references(traj, eq, k_moments, stretched):
    # batched, support-trimmed observables against the compensated scalar
    # helpers and the one-state free energy, snapshot by snapshot
    for j, c in enumerate(traj.states):
        assert traj.rho[j] == pytest.approx(bd.density(c), rel=1e-14, abs=0)
        for k in k_moments:
            assert traj.tracked[k][j] == pytest.approx(bd.moment(c, k), rel=1e-14, abs=0)
        for alpha, mu in stretched:
            want = bd.stretched_moment(c, alpha, mu)
            assert traj.tracked[(alpha, mu)][j] == pytest.approx(want, rel=1e-14, abs=0)
        assert traj.free_energy[j] == pytest.approx(bd.relative_free_energy(c, eq), rel=1e-14, abs=0)


class TestBatchedObservables:
    def test_template_run_matches_scalar_references(self):
        from beckerdoring.experiments import ExperimentConfig, prepare

        config = ExperimentConfig()
        prep = prepare(config)
        traj = bd.integrate(prep.state0, prep.model, config.t_end, prep.opts)
        # the dead band leaves a short support: the trimming is exercised
        assert not np.any(traj.states[:, 100:])
        _assert_matches_scalar_references(traj, prep.equilibrium, config.k_moments, config.stretched)

    def test_full_support_run_matches_scalar_references(self, family_a):
        crit = bd.critical_values(family_a, 100_000)
        eq = bd.equilibrium_profile(family_a, bd.solve_monomer_activity(family_a, 1.0, critical=crit), 200, critical=crit)
        k_moments, stretched = (2.0, 3.5), ((1.0, 0.5), (0.5, 0.25))
        opts = bd.IntegrateOptions(
            n_snapshots=21, dead_band=False, track=k_moments + stretched, equilibrium=eq,
        )
        traj = bd.integrate(monodisperse(200, 1.0), family_a, 20.0, opts)
        assert np.any(traj.states[:, -1] > 0)  # support = N
        _assert_matches_scalar_references(traj, eq, k_moments, stretched)

    def test_tail_warning_run_matches_scalar_references(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.5, 8)
        opts = bd.IntegrateOptions(
            n_snapshots=11, tail_threshold=1e-12, track=(2.0, (1.0, 0.5)), equilibrium=eq,
        )
        traj = bd.integrate(monodisperse(8, 3.0), family_a, 5.0, opts)
        assert traj.warnings and "truncation" in traj.warnings[0]
        occupied = [s for s in traj.snapshots if s.c[-1] > 1e-12 * 3.0 / 8]
        assert f"t={occupied[0].t:.6g}:" in traj.warnings[0]
        _assert_matches_scalar_references(traj, eq, (2.0,), ((1.0, 0.5),))

    def test_free_energy_matrix_names_the_bad_row_index(self):
        profile = np.array([0.5, 0.25, 0.125, 0.0, 0.0])
        states = np.array([
            [0.1, 0.1, 0.0, 0.0, 0.0],
            [0.1, 0.0, 0.0, 0.2, 0.3],  # the only row with mass where Q_i = 0
            [0.2, 0.1, 0.1, 0.0, 0.0],
        ])
        with pytest.raises(FreeEnergyDomainError) as scalar:
            bd.relative_free_energy(states[1], profile)
        with pytest.raises(FreeEnergyDomainError) as batched:
            bd.relative_free_energy(states, profile)
        assert batched.value.index == scalar.value.index == 4

    def test_free_energy_matrix_rows_match_one_state_calls(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.5, 40)
        rng = np.random.default_rng(3)
        states = rng.random((5, 40)) * eq.profile
        states[1, 10:] = 0.0  # rows of different support
        states[3] = 0.0
        h = bd.relative_free_energy(states, eq)
        assert h.shape == (5,)
        for row, value in zip(states, h):
            assert value == pytest.approx(bd.relative_free_energy(row, eq), rel=1e-14, abs=0)

    def test_snapshot_states_are_read_only_views(self, family_a):
        opts = bd.IntegrateOptions(n_snapshots=11, track=(2.0,))
        traj = bd.integrate(monodisperse(50, 1.0), family_a, 5.0, opts)
        assert not traj.states.flags.writeable and not traj.times.flags.writeable
        assert all(np.shares_memory(s.c, traj.states) for s in traj.snapshots)
        def observables():
            return traj.rho.tolist(), traj.tracked[2.0].tolist(), [bd.density(c) for c in traj.states]

        before = observables()
        with pytest.raises(ValueError):
            traj.snapshots[3].c[0] = 1.0
        assert observables() == before
