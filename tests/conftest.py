import numpy as np
import pytest

from ighit.hitting import sample_hitting_times
from ighit.subordinators import IGParams

# fixed seeds: every Monte Carlo assertion in the suite is deterministic
SEED_H11 = 101
SEED_H10 = 103


@pytest.fixture(scope="session")
def params_11():
    return IGParams(1.0, 1.0)


@pytest.fixture(scope="session")
def params_10():
    return IGParams(1.0, 0.0)


@pytest.fixture(scope="session")
def params_205():
    return IGParams(2.0, 0.5)


@pytest.fixture(scope="session")
def h1_samples_11(params_11):
    """10^5 grid samples of H(1) at delta=gamma=1, dt = 1/1024."""
    return sample_hitting_times(1.0, 100_000, params_11, 1.0 / 1024, SEED_H11)


@pytest.fixture(scope="session")
def h1_samples_10(params_10):
    """2*10^5 grid samples of H(1) in the driftless case, dt = 1/2048."""
    return sample_hitting_times(1.0, 200_000, params_10, 1.0 / 2048, SEED_H10)


@pytest.fixture(scope="session")
def x1_samples_11(h1_samples_11):
    """X(1) = B(H(1)) draws built from the cached hitting times."""
    z = np.random.default_rng([SEED_H11, 2 ** 31]).standard_normal(h1_samples_11.size)
    return np.sqrt(h1_samples_11) * z
