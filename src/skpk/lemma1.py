"""Conditional-entropy verifier for the sub-bin construction.

lemma1_check gives the exact conditional entropy of Z^n given its bin and
sub-bin index, against the achievability bound that the binning argument
needs, with the proof's occupancy diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binning import MODE_TABLE, child_seed, make_codebook, num_bins_for_rate, stream_tag
from .errors import UsageError
from .exact import EXACT_PRODUCT_CAP, _Enumeration
from .sources import (JointDistribution, _entropy_masses, _entropy_of, _integer, _real,
                      code_digits)
from .typicality import count_windows

_LEMMA_TAG = stream_tag("lemma1-codebook")


@dataclass
class Lemma1Stats:
    """Exact (1/n) H(Z^n | f, phi, C) per codebook against its target bound.

    f is the bin index at rate r_z, phi the sub-bin index at rate r_s. The
    diagnostics mirror the two bad events of the underlying argument:
    e1_atypical_mass is the probability that Z^n falls outside the typical
    set, and e2_fractions holds, per codebook, the fraction of (f, phi) cells
    whose typical-sequence occupancy reaches twice its expectation.
    """

    n: int
    r_s: float
    r_z: float
    delta: float
    epsilon: float
    h_z: float
    bound: float
    num_bins: int
    num_sub_bins: int
    per_codebook: tuple
    mean: float
    satisfied: bool
    e1_atypical_mass: float
    typical_count: int
    expected_occupancy: float
    e2_fractions: tuple
    e2_mean: float


def lemma1_check(z_pmf, n: int, r_s: float, r_z: float, codebook_count: int,
                 delta: float, seed: int, epsilon: float = 0.1) -> Lemma1Stats:
    """Exact H(Z^n | f, phi, C) for sampled explicit codebooks.

    Since (f, phi) is a deterministic function of z^n, the conditional
    entropy equals n H(Z) - H(f, phi), and H(f, phi) comes from exact cell
    masses over the full |Z|^n enumeration. epsilon only feeds the typicality
    diagnostics, not the entropy itself.
    """
    n, seed = _integer("n", n, 1), _integer("seed", seed)
    codebook_count = _integer("codebook_count", codebook_count, 1)
    z_pmf = np.asarray(z_pmf, dtype=np.float64).ravel()
    az = len(z_pmf)
    dist = JointDistribution.create((1, 1, az), z_pmf)
    h_z = _entropy_of(z_pmf)
    delta, r_s, r_z = _real("delta", delta), _real("r_s", r_s), _real("r_z", r_z)
    if not (r_s + r_z < h_z - 2 * delta):
        raise UsageError(
            f"precondition violated: R_S + R_Z = {r_s + r_z} is not below "
            f"H(Z) - 2*delta = {h_z - 2 * delta}")
    epsilon = _real("epsilon", epsilon, "(0, 1)")

    enum = _Enumeration(dist, n, EXACT_PRODUCT_CAP)
    codes, prob = enum.idx["z"], enum.prob
    sym_counts = np.zeros((az, len(codes)), dtype=np.int16)
    for d in code_digits(codes, az, n):
        for sym, row in enumerate(sym_counts):
            row += d == sym
    lo, hi = count_windows(z_pmf, n, epsilon)
    typical = np.all((sym_counts >= lo[:, None]) & (sym_counts <= hi[:, None]), axis=0)
    typical_count = int(np.count_nonzero(typical))
    e1 = 1.0 - math.fsum(prob[typical])
    expected_occupancy = typical_count * 2.0 ** (-n * (r_s + r_z))

    per = []
    e2 = []
    num_bins, num_sub = num_bins_for_rate(n, r_z), num_bins_for_rate(n, r_s)
    n_cells = num_bins * num_sub
    for k in range(codebook_count):
        cb_seed = child_seed(seed, _LEMMA_TAG, k)
        cb = make_codebook(MODE_TABLE, n, az, r_z, r_s, cb_seed, purpose="Z")
        cells = (cb.bins_of_indices(codes).astype(np.int64) * num_sub
                 + cb.sub_bins_of_indices(codes).astype(np.int64))
        masses = np.bincount(cells, weights=prob, minlength=n_cells)
        h_cells = _entropy_masses(masses)
        per.append((n * h_z - h_cells) / n)
        occupancy = np.bincount(cells[typical], minlength=n_cells)
        e2.append(float(np.count_nonzero(occupancy >= 2.0 * expected_occupancy))
                  / n_cells)
    mean = math.fsum(per) / len(per)
    bound = h_z - r_s - r_z + delta
    return Lemma1Stats(n=n, r_s=r_s, r_z=r_z, delta=delta, epsilon=epsilon,
                       h_z=h_z, bound=bound, num_bins=num_bins,
                       num_sub_bins=num_sub, per_codebook=tuple(per), mean=mean,
                       satisfied=bool(mean <= bound + 1e-12),
                       e1_atypical_mass=e1, typical_count=typical_count,
                       expected_occupancy=expected_occupancy,
                       e2_fractions=tuple(e2), e2_mean=math.fsum(e2) / len(e2))
