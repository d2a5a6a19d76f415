import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckerdoring as bd
from beckerdoring import _rk
from beckerdoring.equilibrium import support_length
from beckerdoring.errors import FreeEnergyDomainError, ParameterError, StepSizeUnderflowError
from conftest import bare_equilibrium, monodisperse


class TestNetRates:
    def test_hand_example(self, half_model):
        # w_1 = a_1 c_1 c_1 - b_2 c_2 = 0.25 - 0.5, w_2 = a_2 c_1 c_2 - b_3 c_3
        state = np.array([0.5, 0.25, 0.0])
        w = bd.net_rates(state, half_model)
        assert w == pytest.approx([-0.25, 0.125, 0.0], abs=0)

    def test_single_species(self, ones_model):
        state = np.array([1.0, 0.0, 0.0])
        w = bd.net_rates(state, ones_model)
        assert w == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_truncation_closure(self, family_a):
        rng = np.random.default_rng(0)
        state = rng.random(50)
        assert bd.net_rates(state, family_a)[-1] == 0.0

    def test_equilibrium_rates_vanish(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.4, 200)
        w = bd.net_rates(eq.profile.copy(), family_a)
        scale = np.max(family_a.a(np.arange(1, 200, dtype=float)) * 0.4 * eq.profile[:-1])
        assert np.max(np.abs(w)) <= 1e-12 * scale


class TestRhs:
    def test_hand_example(self, half_model):
        state = np.array([0.5, 0.25, 0.0])
        dc = bd.rhs(state, half_model)
        assert dc == pytest.approx([0.375, -0.375, 0.125], abs=0)

    def test_equilibrium_is_fixed_point(self, family_a):
        eq = bd.equilibrium_profile(family_a, 0.4, 200)
        dc = bd.rhs(eq.profile.copy(), family_a)
        assert np.max(np.abs(dc)) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_mass_telescoping(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        model = bd.make_power_law_model(rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), 1.0, 0.5)
        state = rng.random(n)
        dc = bd.rhs(state, model)
        i = np.arange(1, n + 1, dtype=float)
        assert abs(math.fsum(i * dc)) <= 1e-13 * math.fsum(np.abs(i * dc)) + 1e-300


class TestMomentAccessors:
    def test_density(self):
        state = np.array([1.0, 0.5, 0.25])
        assert bd.density(state) == pytest.approx(2.75, abs=0)

    def test_zeroth_moment(self):
        state = np.array([1.0, 0.5, 0.25])
        assert bd.moment(state, 0) == pytest.approx(1.75, abs=0)

    def test_stretched_moment(self):
        # e + e^sqrt(2)/2 + e^sqrt(3)/4, evaluated directly
        state = np.array([1.0, 0.5, 0.25])
        expected = math.e + math.exp(math.sqrt(2)) * 0.5 + math.exp(math.sqrt(3)) * 0.25
        assert bd.stretched_moment(state, 1.0, 0.5) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(6.187965436359033, rel=1e-12)

    def test_parameter_validation(self):
        state = np.array([1.0, 0.5])
        with pytest.raises(ParameterError):
            bd.moment(state, -1)
        with pytest.raises(ParameterError):
            bd.stretched_moment(state, 1.0, 1.0)


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

    @pytest.mark.parametrize("family, counts", [
        ("power_law", (1361, 199, 1, 25.05435045561707)),
        ("exponential_tail", (1378, 200, 2, 29.48482891568493)),
    ])
    def test_template_step_counts(self, family, counts):
        # step control is deterministic: a change to it shows here as a
        # count (n_fev, n_steps, n_rejected) or a moved switch to Rosenbrock
        # steps (t_stiff), before any benchmark runs
        from beckerdoring.experiments import ExperimentConfig, prepare

        config = ExperimentConfig(family=family)
        prep = prepare(config)
        traj = bd.integrate(prep.state0, prep.model, config.t_end, prep.opts)
        *n, t_stiff = counts
        assert (traj.n_fev, traj.n_steps, traj.n_rejected) == tuple(n)
        assert traj.t_stiff == pytest.approx(t_stiff, rel=1e-12)

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
            lambda t, y: bd.rhs(np.clip(y, 0.0, None), family_a),
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
            w = bd.net_rates(c, ones_model)[: n - 1]
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
        eq = bare_equilibrium([0.5, 0.25, 0.125, 0.0, 0.0])
        states = np.array([
            [0.1, 0.1, 0.0, 0.0, 0.0],
            [0.1, 0.0, 0.0, 0.2, 0.3],  # the only row with mass where Q_i = 0
            [0.2, 0.1, 0.1, 0.0, 0.0],
        ])
        with pytest.raises(FreeEnergyDomainError) as scalar:
            bd.relative_free_energy(states[1], eq)
        with pytest.raises(FreeEnergyDomainError) as batched:
            bd.relative_free_energy(states, eq)
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


def _integrate_call(monkeypatch, state0, model, t_end, opts):
    """The arguments (f, args, kwargs) of ``integrate``'s call of ``solve_rk54``."""
    from beckerdoring import _rk, solver

    calls = []

    def spy(f, *args, **kwargs):
        calls.append((f, args, kwargs))
        return _rk.solve_rk54(f, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_rk54", spy)
    bd.integrate(state0, model, t_end, opts)
    (call,) = calls
    return call


def _window_and_full_runs(monkeypatch, state0, model, t_end, opts):
    """``integrate``'s own call of ``solve_rk54``, repeated with and without
    the window; the windowed run also records the width of every RHS call."""
    from beckerdoring import _rk

    f, args, kwargs = _integrate_call(monkeypatch, state0, model, t_end, opts)
    assert kwargs["reach"] == 1
    widths = []

    def recording_f(t, y):
        widths.append(len(y))
        return f(t, y)

    windowed = _rk.solve_rk54(recording_f, *args, **kwargs)
    full = _rk.solve_rk54(f, *args, **{**kwargs, "reach": None})
    return windowed, full, widths


def _assert_same_run(windowed, full):
    # rows agree within 1e-12 of their largest entry: the summation order
    # differs, and entries at the support's front are tiny and grow out of
    # cancelling stage sums, so a last-bit change is relatively large there
    assert windowed.stats == full.stats
    assert windowed.y_eval.shape == full.y_eval.shape
    for row, ref in zip([*windowed.y_eval, windowed.y], [*full.y_eval, full.y]):
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not np.any(row[support_length(ref):])


class TestActiveWindow:
    """A step on the occupied prefix is the full-width step, not an approximation."""

    def test_dead_band_run(self, monkeypatch, family_a):
        windowed, full, widths = _window_and_full_runs(
            monkeypatch, monodisperse(2000, 1.0), family_a, 20.0, bd.IntegrateOptions(n_snapshots=41)
        )
        _assert_same_run(windowed, full)
        assert max(widths) < 100

    def test_support_grows_to_n(self, monkeypatch, family_a):
        opts = bd.IntegrateOptions(n_snapshots=21, dead_band=False)
        windowed, full, widths = _window_and_full_runs(
            monkeypatch, monodisperse(40, 1.0), family_a, 20.0, opts
        )
        _assert_same_run(windowed, full)
        assert widths[0] == 9 and max(widths) == widths[-1] == 40
        assert support_length(full.y) == 40

    def test_support_shrinks_then_grows(self, monkeypatch, family_a):
        # mass below the dead band out to size 1500: the first accepted step
        # zeroes it, and the support then grows back from the monomers
        c0 = np.zeros(2000)
        c0[0], c0[1:1500] = 1.0, 1e-16
        windowed, full, widths = _window_and_full_runs(
            monkeypatch, bd.ClusterState(c0), family_a, 20.0, bd.IntegrateOptions(n_snapshots=41)
        )
        _assert_same_run(windowed, full)
        low = int(np.argmin(widths))
        assert widths[0] == 1508 and widths[low] < 20 and widths[-1] > widths[low] + 10

    def test_wider_window_reads_no_stale_stage_values(self):
        # a forward shift y_i' = y_{i-1} - y_i has reach 1; a filter that cuts
        # the state to 3 sizes once, then passes steps through unchanged,
        # makes later steps carry k[0] (FSAL) into a window that grows over
        # entries written before the cut
        from beckerdoring._rk import solve_rk54

        def f(t, y):
            dy = -y
            dy[1:] += y[:-1]
            return dy

        def cut_once(t, y):
            if cut_once.done:
                return y
            cut_once.done = True
            out = y.copy()
            out[3:] = 0.0
            return out

        runs = []
        for reach in (1, None):
            cut_once.done = False
            runs.append(solve_rk54(
                f, 0.0, np.ones(60), 10.0, t_eval=np.linspace(0.0, 10.0, 11),
                accept_filter=cut_once, reach=reach,
            ))
        windowed, full = runs
        _assert_same_run(windowed, full)
        assert support_length(full.y) == 60


class TestVetoMemory:
    """A positivity veto caps later steps below the vetoed size, and the cap
    relaxes step by step until it lapses."""

    def test_vetoes_rare_at_the_positivity_limit(self, monkeypatch):
        # gamma = 1 without the dead band: the steps sit at the positivity
        # limit, and growing each one back to the vetoed size drew a veto
        # about every second step (379 in 830 steps)
        from beckerdoring import _rk, solver

        runs = []

        def spy(*args, **kwargs):
            runs.append(_rk.solve_rk54(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver, "solve_rk54", spy)
        model = bd.make_power_law_model(1.0, 1.0, 1.0, 0.5)
        bd.integrate(monodisperse(200, 1.0), model, 5.0, bd.IntegrateOptions(n_snapshots=11, dead_band=False))
        (run,) = runs
        assert run.stats.n_rejected_filter <= 0.1 * run.stats.n_steps

    def test_single_veto_cap_lapses(self):
        # a harmonic oscillator keeps one natural step size over [0, 100];
        # a cap that never relaxed would cost about 100 more steps
        from beckerdoring._rk import solve_rk54

        def f(t, y):
            return np.array([-y[1], y[0]])

        def run(veto_after):
            vetoed = []

            def veto_once(t, y):
                if t > veto_after and not vetoed:
                    vetoed.append(t)
                    return None
                return y

            return solve_rk54(f, 0.0, np.array([1.0, 0.0]), 100.0, accept_filter=veto_once).stats

        free, once = run(math.inf), run(10.0)
        assert (free.n_rejected_filter, once.n_rejected_filter) == (0, 1)
        assert abs(once.n_steps - free.n_steps) <= 5


def _arrowhead_dense(c, a, b_next):
    from beckerdoring.solver import _jacobian

    corner, row, col, sub, diag, sup = _jacobian(c, a, b_next)
    jac = np.diag(np.concatenate([[corner], diag]))
    jac[0, 1:], jac[1:, 0] = row, col
    jac[1:, 1:] += np.diag(sub, -1) + np.diag(sup, 1)
    return jac


class TestStiffSwitch:
    """Once DOPRI5's stiffness test fires, ``integrate`` takes Rosenbrock
    steps with an O(window) arrowhead solve; before it, DP5(4) bit for bit."""

    @pytest.mark.parametrize("w", [2, 3, 45, 2000])
    def test_jacobian_is_the_rhs_derivative(self, family_a, w):
        # _rhs_core is quadratic in c, so a central difference is exact up
        # to round-off, about 1e-16 / eps relative to the entries of J
        from beckerdoring.solver import _rhs_core

        a, b_next = family_a.rate_pairs(w)
        c = np.random.default_rng(w).random(w) * 0.8 ** np.arange(w)
        jac = _arrowhead_dense(c, a, b_next)
        if w <= 45:
            eps = 1e-4
            fd = np.column_stack([
                (_rhs_core(c + eps * e, a, b_next) - _rhs_core(c - eps * e, a, b_next)) / (2 * eps)
                for e in np.eye(w)
            ])
            assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(jac))
        # mass conservation: i J = 0 column by column, up to round-off
        i = np.arange(1, w + 1, dtype=float)
        assert np.all(np.abs(i @ jac) <= 1e-13 * (i @ np.abs(jac)))

    @pytest.mark.parametrize("w", [2, 3, 45, 400])
    def test_arrowhead_solve_matches_dense_solve(self, family_a, w):
        # windows of a truncation at N = 400, the last the full width; the
        # shifted matrix has condition number below 1e5 here, so both solves
        # agree to about 1e5 double epsilons
        from beckerdoring.solver import _shifted_solver

        rng = np.random.default_rng(w)
        a, b_next = family_a.rate_pairs(w)
        c = 2.0 * rng.random(w) * 0.8 ** np.arange(w)
        jac = _arrowhead_dense(c, a, b_next)
        for sigma in (200.0, 0.02):
            b = rng.standard_normal(w)
            x = _shifted_solver(c, a, b_next, sigma)(b)
            ref = np.linalg.solve(sigma * np.eye(w) - jac, b)
            assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_rosenbrock_step_is_fourth_order(self, family_a):
        # local error O(h^5): halving h divides it by about 32; a tight
        # DP5(4) run is the exact step
        from beckerdoring._rk import _rosenbrock_step, solve_rk54
        from beckerdoring.solver import _rhs_core, _shifted_solver

        n = 30
        a, b_next = family_a.rate_pairs(n)
        i = np.arange(1, n + 1)
        c = 0.5 * 0.6**i * (1 + 0.3 * np.sin(i))

        def f(t, y):
            return _rhs_core(y, a, b_next)

        def jacobian(y, sigma):
            return _shifted_solver(y, a, b_next, sigma)

        errors = []
        for h in (0.0125, 0.00625):
            y_new, _ = _rosenbrock_step(f, jacobian, 0.0, c, f(0.0, c), h, np.empty((4, n)))
            exact = solve_rk54(f, 0.0, c, h, rel_tol=1e-13, abs_tol=1e-22).y
            errors.append(np.max(np.abs(y_new - exact)))
        assert errors[0] >= 2**4.5 * errors[1]

    def test_dense_output_in_the_stiff_phase(self):
        # y' = A y with eigenvalues -1 and -1000: DP5(4) sits at its stability
        # limit, h = 3.3e-3, until the switch; then Rosenbrock steps span many
        # output times, so most snapshots come from the Hermite interpolant.
        # Within rel_tol of the exact solution (measured 3.6e-8 after the
        # switch, 2.3e-7 before it)
        from beckerdoring._rk import solve_rk54

        lam = np.array([-1.0, -1000.0])
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        a = q @ np.diag(lam) @ q.T

        def f(t, y):
            return a @ y

        def jacobian(y, sigma):
            shifted = sigma * np.eye(2) - a
            return lambda b: np.linalg.solve(shifted, b)

        y0 = np.array([1.0, 0.0])
        t_eval = np.linspace(0.0, 5.0, 501)
        runs = [
            solve_rk54(f, 0.0, y0, 5.0, rel_tol=1e-6, abs_tol=1e-9, t_eval=t_eval, jacobian=jac)
            for jac in (jacobian, None)
        ]
        exact = (q @ (np.exp(np.outer(lam, t_eval)) * (q.T @ y0)[:, None])).T
        run, dp5 = runs
        assert run.stats.t_stiff < 0.1
        assert 10 * run.stats.n_steps < dp5.stats.n_steps
        assert np.max(np.abs(run.y_eval - exact)) <= 1e-6

    @pytest.fixture(scope="class")
    def template(self):
        from beckerdoring.experiments import ExperimentConfig, prepare

        return prepare(ExperimentConfig())

    def _runs(self, monkeypatch, template, t_end, **dp5_changes):
        """The windowed run of ``integrate`` with its Jacobian, and the same
        call without it (DP5(4) only), with ``dp5_changes`` applied."""
        from beckerdoring import _rk

        f, args, kwargs = _integrate_call(monkeypatch, template.state0, template.model, t_end, template.opts)
        assert kwargs["jacobian"] is not None
        run = _rk.solve_rk54(f, *args, **kwargs)
        dp5 = _rk.solve_rk54(f, *args, **{**kwargs, "jacobian": None, **dp5_changes})
        assert dp5.stats.t_stiff is None
        return run, dp5

    def test_dp5_bits_up_to_the_switch(self, monkeypatch, template):
        run, dp5 = self._runs(monkeypatch, template, 200.0)
        before = run.t_eval <= run.stats.t_stiff
        assert 0 < before.sum() < len(before)
        assert np.array_equal(run.y_eval[before], dp5.y_eval[before])

    def test_rosenbrock_phase_matches_tight_dp5(self, monkeypatch, template):
        # measured 4.2e-11; the DP5(4) run at rel_tol 1e-8 is off by 3.2e-9
        # before the switch
        run, ref = self._runs(monkeypatch, template, 200.0, rel_tol=1e-11)
        after = run.t_eval > run.stats.t_stiff
        rho = template.rho
        assert np.max(np.abs(run.y_eval[after] - ref.y_eval[after])) <= 1e-9 * rho

    def test_run_ending_before_the_switch_is_dp5(self, monkeypatch, template):
        run, dp5 = self._runs(monkeypatch, template, 20.0)
        assert run.stats == dp5.stats
        assert np.array_equal(run.y_eval, dp5.y_eval)

    def test_windowed_rosenbrock_matches_full_width(self, monkeypatch, template):
        # implicit steps fill the window, so the windowed run is the system
        # truncated to the window; measured 8e-14 from the full-width run
        windowed, full, _ = _window_and_full_runs(
            monkeypatch, template.state0, template.model, 200.0, template.opts
        )
        def counts(stats):
            return stats.n_steps, stats.n_rejected_error, stats.n_rejected_filter, stats.n_fev

        assert counts(windowed.stats) == counts(full.stats)
        assert windowed.stats.t_stiff == pytest.approx(full.stats.t_stiff, rel=1e-12)
        rho = template.rho
        for row, ref in zip([*windowed.y_eval, windowed.y], [*full.y_eval, full.y]):
            assert np.max(np.abs(row - ref)) <= 1e-11 * rho


class TestBatchedOutputGrid:
    """The output times inside an accepted step come from one evaluation of
    the interpolant, and ``integrate`` clamps the snapshot matrix in one
    pass afterwards."""

    @pytest.fixture(scope="class")
    def template(self):
        from beckerdoring.experiments import ExperimentConfig, prepare

        return prepare(ExperimentConfig())

    @staticmethod
    def _run(template, t_eval):
        opts = dataclasses.replace(template.opts, t_eval=t_eval)
        return bd.integrate(template.state0, template.model, 200.0, opts)

    @pytest.fixture(scope="class")
    def dense(self, template):
        return self._run(template, np.linspace(0.0, 200.0, 1001))

    def test_rows_do_not_depend_on_the_rest_of_the_grid(self, template, dense):
        # every 7th time: its rows share their steps with other output times
        # in the dense run and with none or fewer in the sparse one
        sparse = self._run(template, dense.times[::7])
        assert (sparse.n_fev, sparse.t_stiff) == (dense.n_fev, dense.t_stiff)
        shared = dense.states[::7]
        for phase in (sparse.times <= dense.t_stiff, sparse.times > dense.t_stiff):
            assert phase.sum() >= 10
            assert np.array_equal(shared[phase], sparse.states[phase])

    def test_dead_band_rows_are_clamped(self, monkeypatch, template, dense):
        f, args, kwargs = _integrate_call(monkeypatch, template.state0, template.model, 200.0,
                                          dataclasses.replace(template.opts, t_eval=dense.times))
        raw = _rk.solve_rk54(f, *args, **kwargs).y_eval[:, 1:]
        states = dense.states[:, 1:]
        in_band = (states != 0) & (np.abs(states) < dense.abs_tol)
        # the interpolant leaves entries in the band, which the clamp removes
        assert np.any((raw != 0) & (np.abs(raw) < dense.abs_tol))
        assert not np.any(dense.states < 0) and not np.any(in_band)

    def test_states_vanish_past_the_widest_window(self, monkeypatch, template):
        f, args, kwargs = _integrate_call(monkeypatch, template.state0, template.model, 200.0, template.opts)
        widths = []

        def recording_f(t, y):
            widths.append(len(y))
            return f(t, y)

        sol = _rk.solve_rk54(recording_f, *args, **kwargs)
        assert sol.stats.w_max in widths and sol.stats.w_max < sol.y_eval.shape[1]
        assert not np.any(sol.y_eval[:, sol.stats.w_max :])

    def test_carried_support(self, dense):
        assert dense.support == support_length(dense.states) < dense.states.shape[1]


class TestDenseOutputRows:
    """The batched interpolants against the one-time-at-a-time formulas,
    bit for bit: the arithmetic is the same, only batched.  The quartic's
    reference is numpy's matrix-vector product, which sums its four terms
    in two lanes with OpenBLAS's x86-64 kernels (numpy's wheels); a BLAS
    that sums them in another order fails it, as it would change the bits
    of the per-time emission too."""

    @pytest.mark.parametrize("seed", range(20))
    def test_quartic_rows_match_one_time_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(2, 80))
        y = rng.standard_normal(w)
        k = rng.standard_normal((7, w)) * 10.0 ** rng.integers(-20, 5, size=(7, w))
        h, theta = float(rng.uniform(1e-3, 10.0)), np.sort(rng.random(int(rng.integers(1, 30))))
        rows = _rk._quartic_rows(y, k, h, theta)
        for row, th in zip(rows, theta):
            powers = np.array([th, th**2, th**3, th**4])
            assert np.array_equal(row, y + h * ((k.T @ _rk._P) @ powers))

    @pytest.mark.parametrize("seed", range(5))
    def test_hermite_rows_match_one_time_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        y, y_new, f0, f_new = rng.standard_normal((4, 50))
        h, theta = float(rng.uniform(1e-3, 10.0)), np.sort(rng.random(20))
        rows = _rk._hermite_rows(y, y_new, f0, f_new, h, theta)
        for row, th in zip(rows, theta):
            ref = (1 - th) * y + th * y_new + th * (th - 1) * (
                (1 - 2 * th) * (y_new - y) + (th - 1) * h * f0 + th * h * f_new
            )
            assert np.array_equal(row, ref)
