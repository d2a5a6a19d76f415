"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  The flagship configuration (power-law family, gamma 1/2,
z_s = q = 1, mu 1/2, monodisperse density 1, N = 2000, horizon 200,
rel_tol 1e-8) is integrated once and shared by the criteria that replay it.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg

import beckerdoring as bd
from beckerdoring.experiments import ExperimentConfig, run_uniform_moment_experiment
from beckerdoring.supersolution import make_params, build_supersolution, verify_supersolution, weighted_sum_bound
from beckerdoring.tails import stretched_weights, stretched_sandwich_check, tail_density, tail_moment, tail_rhs
from conftest import monodisperse


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def flagship():
    config = ExperimentConfig()  # the defaults are the flagship run
    start = time.perf_counter()
    report = run_uniform_moment_experiment(config)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def flagship_model():
    return bd.make_power_law_model(0.5, 1.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def flagship_equilibrium(flagship_model):
    crit = bd.critical_values(flagship_model, 100_000)
    z_bar = bd.solve_monomer_activity(flagship_model, 1.0, critical=crit)
    return bd.equilibrium_profile(flagship_model, z_bar, 2000, critical=crit)


def test_criterion_1_mass_conservation(flagship):
    report, elapsed = flagship
    rho = report.trajectory.rho
    drift = float(np.max(np.abs(rho - rho[0]))) / rho[0]
    ok = drift <= 1e-10 and elapsed <= 60.0
    _criterion(1, "mass conservation", ok, f"drift={drift:.3g}, runtime={elapsed:.1f}s")


def test_criterion_2_detailed_balance_fixed_point(flagship_model, flagship_equilibrium):
    eq = flagship_equilibrium
    w = bd.net_rates(bd.ClusterState(eq.profile.copy()), flagship_model)
    i = np.arange(1, 2000, dtype=float)
    flux = flagship_model.a(i) * eq.z_bar * eq.profile[:-1]
    rates_ok = np.max(np.abs(w[:-1])) <= 1e-12 * np.max(flux)

    traj = bd.integrate(
        bd.ClusterState(eq.profile.copy()), flagship_model, 100.0,
        bd.IntegrateOptions(rel_tol=1e-8, n_snapshots=51),
    )
    drift = max(float(np.max(np.abs(s.c - eq.profile))) for s in traj.snapshots)
    drift_ok = drift <= 1e-6 * float(np.max(eq.profile))
    _criterion(
        2, "detailed balance fixed point", rates_ok and drift_ok,
        f"max|W|/max_flux={np.max(np.abs(w[:-1])) / np.max(flux):.3g}, drift={drift:.3g}",
    )


def test_criterion_3_equilibrium_solve_exact(ones_model):
    z = bd.solve_monomer_activity(ones_model, 2.0, tol=1e-12)
    err = abs(z - 0.5)
    _criterion(3, "equilibrium solve exactness", err <= 1e-12, f"|z-1/2|={err:.3g}")


def test_criterion_4_tail_transform_identities():
    rng = np.random.default_rng(2024)
    eps = np.finfo(float).eps
    reconstruction_ok = True
    sandwich_ok = True
    for _ in range(100):
        n = int(rng.integers(30, 400))
        c = rng.random(n) * np.exp(-np.arange(n) / rng.uniform(3.0, 60.0))
        g = tail_density(c).g
        back = g[:-1] - g[1:]
        if np.any(np.abs(back - c[:-1]) > 2 * eps * g[0]) or g[-1] != c[-1]:
            reconstruction_ok = False
        i = np.arange(1, n + 1, dtype=float)
        for k in (0, 1, 2, 3, 5):
            m_tail = tail_moment(g, k)
            m_state = math.fsum(i ** (k + 1) * c)
            if not (m_state / (k + 1) <= m_tail * (1 + 1e-12) and m_tail <= m_state * (1 + 1e-12)):
                sandwich_ok = False
    stretched_ok = True
    for alpha, mu in ((1.0, 0.5), (0.5, 0.3), (2.0, 0.25)):
        weights = stretched_weights(alpha, mu)
        for _ in range(100):
            n = int(rng.integers(30, 400))
            c = rng.random(n) * np.exp(-np.arange(n) / rng.uniform(3.0, 60.0))
            rep = stretched_sandwich_check(c, weights)
            if rep.lower_margin < 0 or rep.upper_margin < 0:
                stretched_ok = False
    ok = reconstruction_ok and sandwich_ok and stretched_ok
    _criterion(
        4, "tail transform identities", ok,
        f"reconstruction={reconstruction_ok}, moment={sandwich_ok}, stretched={stretched_ok}",
    )


def test_criterion_5_tail_dynamics_consistency(flagship_model):
    dt = 1e-3
    t_eval = np.arange(0.0, 3.0 + dt / 2, dt)
    traj = bd.integrate(
        monodisperse(2000, 1.0), flagship_model, 3.0,
        bd.IntegrateOptions(rel_tol=1e-8, t_eval=t_eval),
    )
    times = traj.times
    worst = 0.0
    for t in np.linspace(0.3, 2.7, 20):
        idx = int(np.argmin(np.abs(times - t)))
        g_prev, g_mid, g_next = (tail_density(c).g for c in traj.states[idx - 1 : idx + 2])
        fd = (g_next - g_prev) / (2 * dt)
        rhs = tail_rhs(g_mid, traj.states[idx, 0], flagship_model)
        window_fd = fd[1:50]        # tail entries j = 2..50
        window_rhs = rhs[:49]
        scale = float(np.max(np.abs(window_rhs)))
        worst = max(worst, float(np.max(np.abs(window_fd - window_rhs))) / scale)
    _criterion(5, "tail dynamics consistency", worst <= 1e-4, f"worst scaled error={worst:.3g}")


def test_criterion_6_maximum_principle():
    rng = np.random.default_rng(6)
    sign_ok = True
    oracle_worst = 0.0
    gronwall_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(a, 0.0)
        a += np.diag(-(a.sum(axis=1) + rng.uniform(0.2, 2.0, n)))
        system = bd.MetzlerSystem.from_dense(a)
        u0 = -rng.random(n)
        s0 = -rng.random(n)
        res = bd.verify_sign_preservation(
            system, u0, 2.0, slack=lambda t, s0=s0: s0 * math.exp(-t),
            rel_tol=1e-11, abs_tol=1e-14,
        )
        if not res.ok or np.max(res.max_component) > 1e-9 * np.max(np.abs(u0)):
            sign_ok = False
        free = bd.verify_sign_preservation(system, u0, 2.0, rel_tol=1e-11, abs_tol=1e-14)
        exact = scipy.linalg.expm(2.0 * a) @ u0
        oracle_worst = max(oracle_worst, float(np.max(np.abs(free.y_end - exact))))
        # positive-part growth envelope with C = max row abs sum
        u0_pos = u0.copy()
        u0_pos[rng.integers(0, n)] = rng.uniform(0.1, 1.0)
        y0 = float(np.sum(np.clip(u0_pos, 0.0, None)))
        for t in (0.5, 1.0, 2.0):
            u = scipy.linalg.expm(t * a) @ u0_pos
            y = float(np.sum(np.clip(u, 0.0, None)))
            if y > y0 * math.exp(system.c_row * t) * (1 + 1e-9):
                gronwall_ok = False
    ok = sign_ok and oracle_worst <= 1e-9 and gronwall_ok
    _criterion(
        6, "maximum principle", ok,
        f"sign={sign_ok}, expm gap={oracle_worst:.3g}, gronwall={gronwall_ok}",
    )


def test_criterion_7_supersolution_round_trip():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(200):
        gamma = rng.uniform(0.2, 0.9)
        z_s = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.2, 0.8)
        if rng.integers(0, 2):
            model = bd.make_power_law_model(gamma, z_s, rng.uniform(0.3, 2.0), mu)
        else:
            model = bd.make_exponential_tail_model(gamma, z_s, rng.uniform(0.3, 1.5), mu)
        rho = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.2, 0.9) * z_s
        # truncation long enough that exp(sqrt j) drops below the growth
        # bound delta* even at the slowest admissible decay (omega = 0.9 z_s)
        n = 400
        c = rng.random(n) * np.exp(-np.arange(n) / 20.0)
        c[-40:] = 0.0
        c *= rng.uniform(0.3, 1.0) * rho / math.fsum(c)
        g = tail_density(c).g
        params = make_params(model, omega, rho, delta=1.0, n_max=2000)
        sol = build_supersolution(model, params, g)
        check = verify_supersolution(sol.r, model, omega, rho, tol=1e-12 * rho)
        if not check.ok:
            failures.append((trial, "verify", check.worst_margin))
            continue
        if not np.all(sol.r >= g):
            failures.append((trial, "domination", None))
            continue
        if np.max(sol.r) > sol.uniform_bound * (1 + 1e-12):
            failures.append((trial, "uniform bound", float(np.max(sol.r))))
            continue
        j = np.arange(1, n + 1, dtype=float)
        for label, phi in (("j", j), ("j^2", j**2), ("exp(sqrt j)", np.exp(np.sqrt(j)))):
            wb = weighted_sum_bound(sol.r, g, phi, params)
            if wb.lhs > wb.rhs:
                failures.append((trial, f"weighted sum {label}", wb.lhs / wb.rhs))
    _criterion(7, "supersolution round trip", not failures, f"200 builds, failures={failures[:3]}")


def test_criterion_8_uniform_moment_propagation(flagship):
    report, elapsed = flagship
    dom = report.stage("domination")
    cert = report.stage("certified_moment[k=2]")
    checks = {
        "verdict": report.verdict,
        "finite T0": report.t0 is not None,
        "pre-T0 bound": report.stage("short_time_bound[k=2]").ok,
        "domination": dom.ok and dom.info["max_gap"] <= dom.info["epsilon"],
        "certified >= observed": cert.info["observed_sup"] <= cert.info["certified"],
        "runtime": elapsed <= 120.0,
    }
    _criterion(
        8, "uniform moment propagation", all(checks.values()),
        f"T0={report.t0}, sup M_2={cert.info['observed_sup']:.4f} <= {cert.info['certified']:.1f}, "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_9_stretched_propagation(flagship):
    report, _ = flagship
    stage = report.stage("certified_stretched[alpha=1,mu=0.5]")
    ok = report.verdict and stage.ok and stage.info["observed_sup"] <= stage.info["certified"]
    _criterion(
        9, "stretched-exponential propagation", ok,
        f"sup E={stage.info['observed_sup']:.4f} <= eta2*sum={stage.info['certified']:.1f}",
    )


def test_criterion_10_qualitative_convergence(flagship):
    report, _ = flagship
    stage = report.stage("convergence_shadow")
    rho = report.trajectory.rho[0]
    final = stage.info["final_l1_weighted"]
    ok = final < 1e-3 * rho and stage.ok
    _criterion(10, "qualitative convergence", ok, f"sum i|c-Q| at horizon = {final:.3g}")


def test_criterion_11_integrator_self_convergence(flagship_model):
    # order check by step halving on the flagship configuration over the
    # transient window, against a tight adaptive reference
    t_end = 10.0
    ref = bd.integrate(
        monodisperse(2000, 1.0), flagship_model, t_end,
        bd.IntegrateOptions(rel_tol=1e-12, abs_tol=1e-16, n_snapshots=2),
    )
    y_ref = ref.snapshots[-1].c
    errs = {}
    for h in (0.1, 0.05):
        traj = bd.integrate(
            monodisperse(2000, 1.0), flagship_model, t_end,
            bd.IntegrateOptions(fixed_step=h, abs_tol=1e-16, n_snapshots=2),
        )
        errs[h] = float(np.max(np.abs(traj.snapshots[-1].c - y_ref)))
    ratio = errs[0.1] / errs[0.05]
    _criterion(
        11, "integrator self-convergence", ratio >= 8.0,
        f"err(h)={errs[0.1]:.3g}, err(h/2)={errs[0.05]:.3g}, ratio={ratio:.1f} (order >= 3 needs 8)",
    )
