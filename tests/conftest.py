import math

import numpy as np
import pytest

import beckerdoring as bd


@pytest.fixture(scope="session")
def family_a():
    return bd.make_power_law_model(0.5, 1.0, 1.0, 0.5)


@pytest.fixture(scope="session")
def family_b():
    return bd.make_exponential_tail_model(0.5, 1.0, 1.0, 0.5)


@pytest.fixture(scope="session")
def ones_model():
    # a_i = b_i = 1: Q_i = 1, z_s = 1; F(z_s) = +inf for these rates, and
    # the table's rho_s is its partial sum
    n = 4000
    return bd.make_custom_model(np.ones(n), np.ones(n), gamma=1.0, z_s=1.0)


@pytest.fixture(scope="session")
def half_model():
    # a_i = 1, b_i = 2: Q_i = 2^(1-i), z_s = 2; F(z_s) = +inf for these rates,
    # and the table's rho_s is its partial sum
    n = 4000
    return bd.make_custom_model(np.ones(n), 2 * np.ones(n), gamma=1.0, z_s=2.0)


def monodisperse(n: int, rho: float) -> np.ndarray:
    c = np.zeros(n)
    c[0] = rho
    return c


def full_states(traj: bd.Trajectory) -> np.ndarray:
    """A run's (snapshots, N) state matrix: each stored head row of
    ``traj.states`` padded with zeros to length N, as ``Trajectory.at``
    returns it."""
    return np.array([traj.at(t) for t in traj.times.tolist()])


def padded(rows: np.ndarray, n: int) -> np.ndarray:
    """The rows of a matrix padded with zeros to width n."""
    out = np.zeros((len(rows), n))
    out[:, : rows.shape[1]] = rows
    return out


def bare_equilibrium(profile) -> bd.EquilibriumData:
    """Equilibrium data around a given profile, log Q_i = -inf where Q_i = 0;
    the other fields are NaN (``relative_free_energy`` reads only these two)."""
    profile = np.asarray(profile, dtype=float)
    with np.errstate(divide="ignore"):
        log_profile = np.log(profile)
    return bd.EquilibriumData(
        z_bar=math.nan, profile=profile, log_profile=log_profile,
        rho=math.nan, cut_index=None, tail_bound=math.nan,
    )
