import numpy as np
import pytest
from hypothesis import settings

from skpk import protocol
from skpk.sources import JointDistribution, code_digits, noisy_copy_triple
from skpk.typicality import CandidateEngine

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


def listed_candidates(observed, joint_pmf, params) -> list:
    """Sequences of the last pmf axis jointly typical with the observed
    sequences (earlier axes, in order, without a row axis), in candidate
    order, as int64 arrays: candidate_indices' codes spelled out by
    code_digits. Raises SearchOverflowError past DEFAULT_SEARCH_CAP
    candidates.
    """
    eng = CandidateEngine(joint_pmf, params)
    codes, _ = eng.candidate_indices(observed)
    return list(np.stack(list(code_digits(codes, eng.q, params.n)), axis=-1))


def identical_bits() -> JointDistribution:
    """X = Y = Z, a single shared uniform bit."""
    pmf = np.zeros((2, 2, 2))
    pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
    return JointDistribution.create((2, 2, 2), pmf)


def independent_bits() -> JointDistribution:
    """Three mutually independent uniform bits."""
    return JointDistribution.create((2, 2, 2), np.full((2, 2, 2), 1 / 8))


def mirrored_noisy_copy(flip_y, flip_z) -> JointDistribution:
    """noisy_copy_triple with X and Y swapped: Y is the better-correlated
    terminal, so PointP runs in orientation Y.
    """
    base = noisy_copy_triple(flip_y, flip_z)
    return JointDistribution((2, 2, 2), np.transpose(base.pmf, (1, 0, 2)))


@pytest.fixture
def fresh_state():
    """Empties the seed-independent state held per process
    (RunContext.held) before the test and after it, and gives the test the
    function that empties it: a test that counts what is built, or patches
    how it is built, sees no state an earlier build left.
    """
    protocol._HELD.clear()
    yield protocol._HELD.clear
    protocol._HELD.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
