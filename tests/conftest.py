import numpy as np
import pytest
from hypothesis import settings

from skpk.sources import JointDistribution

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is deterministic
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


def random_pmf(rng, shape, zero_frac=0.0) -> np.ndarray:
    """Random pmf array on the given shape; zero_frac knocks atoms out to
    exercise structural zeros.
    """
    w = rng.random(shape)
    if zero_frac:
        w = w * (rng.random(shape) >= zero_frac)
    if w.sum() <= 0:
        w = np.zeros(shape)
        w.flat[0] = 1.0
    return w / w.sum()


def random_distribution(rng, shape, zero_frac=0.0) -> JointDistribution:
    """random_pmf wrapped as a three-variable source."""
    return JointDistribution(shape, random_pmf(rng, shape, zero_frac))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
