import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import identical_bits, random_distribution
from skpk.errors import UsageError
from skpk.sources import (InfoProfile, JointDistribution, _entropy_counted,
                          _entropy_masses, code_digits, dump_pmf, info_profile, load_pmf,
                          noisy_copy_triple, place_values, sample, sequence_code, xor_triple)


def test_xor_entropies():
    prof = InfoProfile(xor_triple())
    assert prof.h("XYZ") == pytest.approx(2.0, abs=1e-12)
    assert prof.h("Z", "X") == pytest.approx(1.0, abs=1e-12)
    assert prof.i("X", "Y", "Z") == pytest.approx(1.0, abs=1e-12)
    assert prof.i("X", "Z") == pytest.approx(0.0, abs=1e-12)
    assert prof.i("XY", "Z") == pytest.approx(1.0, abs=1e-12)


def test_noisy_copy_profile_value():
    # oracle: direct summation over the eight atoms of the 0.1/0.3 source
    d = noisy_copy_triple(0.1, 0.3)
    prof = info_profile(d)
    assert prof.i("Z", "XY") == pytest.approx(0.11870910076930735, abs=1e-12)


def test_profile_is_built_once_per_distribution(monkeypatch):
    """info_profile builds and chain-rule checks a distribution's profile
    once: its pmf is a read-only copy, so the profile cannot go stale.
    """
    built = []
    init = InfoProfile.__init__
    monkeypatch.setattr(InfoProfile, "__init__", lambda prof, d: built.append(d) or init(prof, d))
    d, twin = noisy_copy_triple(0.1, 0.3), noisy_copy_triple(0.1, 0.3)
    assert info_profile(d) is info_profile(d) and built == [d]
    assert info_profile(twin) is not info_profile(d) and len(built) == 2
    assert not d.pmf.flags.writeable


def test_total_correlation_decompositions(rng):
    for _ in range(80):
        shape = tuple(rng.integers(1, 5, size=3))
        prof = InfoProfile(random_distribution(rng, shape, zero_frac=0.2))
        total = prof.h("X") + prof.h("Y") + prof.h("Z") - prof.h("XYZ")
        assert total == pytest.approx(prof.i("X", "Z") + prof.i("Y", "XZ"), abs=1e-10)
        assert total == pytest.approx(prof.i("Y", "Z") + prof.i("X", "YZ"), abs=1e-10)
        assert total == pytest.approx(prof.i("XY", "Z") + prof.i("X", "Y"), abs=1e-10)


def test_marginal_axis_order(rng):
    d = random_distribution(rng, (2, 3, 4))
    np.testing.assert_allclose(d.marginal("YZX"), np.transpose(d.pmf, (1, 2, 0)))
    np.testing.assert_allclose(d.marginal("Z"), d.pmf.sum(axis=(0, 1)))
    np.testing.assert_allclose(d.marginal("XZ"), d.pmf.sum(axis=1))


def test_variable_set_validation():
    prof = info_profile(xor_triple())
    with pytest.raises(UsageError):
        prof.h("")
    with pytest.raises(UsageError):
        prof.i("X", "XY")
    with pytest.raises(UsageError):
        prof.i("X", "Z", "Z")
    for call in (lambda: prof.h("W"), lambda: prof.h("XX"), lambda: prof.h("X", "XZ"),
                 lambda: prof.i("X", ""), lambda: prof.i("X", "Y", "Y")):
        with pytest.raises(UsageError):
            call()


def _reference_measures(pmf):
    """h(A, C) and i(A, B, C) by their definitions, as expectations summed
    over the atoms of pmf: H(A|C) = E[-log2 p(a,c)/p(c)] and
    I(A;B|C) = E[log2 p(a,b,c) p(c) / (p(a,c) p(b,c))].
    """
    atoms = [(idx, float(p)) for idx, p in np.ndenumerate(pmf) if p > 0]

    def cell(idx, vs):
        return tuple(idx["XYZ".index(v)] for v in sorted(vs))

    def law(vs):
        out = defaultdict(float)
        for idx, p in atoms:
            out[cell(idx, vs)] += p
        return lambda idx: out[cell(idx, vs)]

    def h(a, c):
        p_ac, p_c = law(a + c), law(c)
        return -math.fsum(p * math.log2(p_ac(idx) / p_c(idx)) for idx, p in atoms)

    def i(a, b, c):
        p_abc, p_ac, p_bc, p_c = law(a + b + c), law(a + c), law(b + c), law(c)
        return math.fsum(p * math.log2(p_abc(idx) * p_c(idx) / (p_ac(idx) * p_bc(idx)))
                         for idx, p in atoms)

    return h, i


def _subsets(vs):
    return ["".join(c) for r in range(len(vs) + 1) for c in itertools.combinations(vs, r)]


_pmf_cells = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(
        st.integers(0, 4), min_size=math.prod(shape), max_size=math.prod(shape))
        .filter(any)))


@given(cells=_pmf_cells)
def test_profile_matches_reference_sums(cells):
    shape, weights = cells
    pmf = np.array(weights, dtype=np.float64).reshape(shape)
    pmf /= pmf.sum()
    prof = info_profile(JointDistribution(shape, pmf))
    h_ref, i_ref = _reference_measures(pmf)
    for a in _subsets("XYZ")[1:]:
        rest = "".join(v for v in "XYZ" if v not in a)
        for c in _subsets(rest):
            # selector order is immaterial
            assert prof.h(a[::-1], c) == pytest.approx(h_ref(a, c), abs=1e-10)
            for b in _subsets("".join(v for v in rest if v not in c))[1:]:
                assert prof.i(a, b[::-1], c) == pytest.approx(i_ref(a, b, c), abs=1e-10)
                assert prof.i(a, b, c) >= 0.0
                # I(A;B|C) = H(A|C) - H(A|BC)
                assert prof.i(a, b, c) == pytest.approx(
                    max(0.0, prof.h(a, c) - prof.h(a, b + c)), abs=1e-10)
    chain = prof.h("X") + prof.h("Y", "X") + prof.h("Z", "XY")
    assert chain == pytest.approx(prof.h("XYZ"), abs=1e-10)


@pytest.mark.parametrize("masses", [
    [0.125] * 8,                                  # one mass, repeated
    [0.5, 0.0, 0.25, 0.0, 0.125, 0.125],          # zeros add nothing
    [1.0],
    [0.1, 0.2, 0.3, 0.4],                         # all distinct
    [0.3, 0.1, 0.3, 0.05, 0.1, 0.05, 0.1],        # repeats in any order
    [],
], ids=["repeats", "zeros", "one-mass", "distinct", "mixed", "empty"])
def test_entropy_masses_matches_per_term_formula(masses):
    """_entropy_masses takes one log per distinct mass, yet sums the same
    terms -m * log2(m) as the per-term formula, so the bits agree: on lists,
    arrays and generators."""
    want = math.fsum(-m * math.log2(m) for m in masses if m > 0)
    assert _entropy_masses(masses) == want
    assert _entropy_masses(np.array(masses, dtype=np.float64)) == want
    assert _entropy_masses(m for m in masses) == want


@given(st.lists(st.sampled_from([0.0, 1e-300, 1 / 3, 0.1, 0.5, 0.7]), max_size=40))
def test_entropy_masses_matches_per_term_formula_on_repeats(masses):
    want = math.fsum(-m * math.log2(m) for m in masses if m > 0)
    assert _entropy_masses(iter(masses)) == want


def _expanded_fsum(values, counts) -> float:
    """math.fsum over counts[i] copies of the term -m * log2(m) of values[i],
    without the copies: fsum rounds the exact sum once, to nearest even, and
    so does converting the exact rational sum to a float.
    """
    return float(sum(Fraction(-v * math.log2(v)) * c for v, c in zip(values, counts)))


_masses = st.floats(min_value=2.0 ** -200, max_value=1.0)


@given(st.lists(st.tuples(_masses, st.integers(1, 40)), max_size=12))
def test_rounded_rational_sum_is_the_expanded_fsum(pairs):
    """The reference below, on counts small enough to expand."""
    values, counts = [v for v, _ in pairs], [c for _, c in pairs]
    expanded = [-v * math.log2(v) for v, c in pairs for _ in range(c)]
    assert _expanded_fsum(values, counts) == math.fsum(expanded)
    assert _entropy_counted(values, np.array(counts, dtype=np.int64)) == math.fsum(expanded)
    assert _entropy_masses([v for v, c in pairs for _ in range(c)]) == math.fsum(expanded)


@given(st.lists(st.tuples(_masses, st.integers(1, 2 ** 27)), max_size=20))
def test_counted_entropy_is_the_expanded_fsum(pairs):
    """Masses from 2**-200 to 1, each repeated up to 2**27 times: one fsum
    over each distinct term's two 26-bit parts times its count gives the
    bits of fsum over every copy.
    """
    values, counts = [v for v, _ in pairs], np.array([c for _, c in pairs], dtype=np.int64)
    assert _entropy_counted(values, counts) == _expanded_fsum(values, counts.tolist())


@given(st.lists(st.tuples(_masses, st.integers(2 ** 27, 2 ** 50)), min_size=1, max_size=8))
def test_counts_past_2_27_stay_exact(pairs):
    """A count of 2**27 or more, as a plug-in estimate over that many trials
    can hold, is taken in base-2**27 digits and stays exact.
    """
    values, counts = [v for v, _ in pairs], np.array([c for _, c in pairs], dtype=np.int64)
    assert _entropy_counted(values, counts) == _expanded_fsum(values, counts.tolist())


def test_sample_matches_distribution():
    d = noisy_copy_triple(0.2, 0.4)
    n = 20000
    triple = sample(d, n, seed=5)
    counts = np.zeros((2, 2, 2))
    for x, y, z in zip(triple.x_seq, triple.y_seq, triple.z_seq):
        counts[x, y, z] += 1
    np.testing.assert_allclose(counts / n, d.pmf, atol=0.015)


def test_sample_deterministic():
    d = xor_triple()
    a = sample(d, 64, seed=9)
    b = sample(d, 64, seed=9)
    assert np.array_equal(a.x_seq, b.x_seq)
    assert np.array_equal(a.z_seq, b.z_seq)
    c = sample(d, 64, seed=10)
    assert not (np.array_equal(a.x_seq, c.x_seq) and np.array_equal(a.y_seq, c.y_seq))
    with pytest.raises(UsageError, match="n must be >= 1, got 0"):
        sample(d, 0, seed=9)


@pytest.mark.parametrize("n,seed,message", [
    (8, 5.7, "seed must be integers"),
    (8, True, "seed must be integers"),
    (8, "5", "seed must be integers"),
    (8, -1, "seed must be >= 0"),
    (8.0, 5, "n must be integers"),
    (True, 5, "n must be integers")],
    ids=["float-seed", "bool-seed", "string-seed", "negative-seed", "float-n", "bool-n"])
def test_sample_refuses_non_integer_arguments(n, seed, message):
    """A float seed is refused, not truncated (5.7 drew as seed 5), and so
    are a bool or string seed, a negative seed and a float or bool n."""
    with pytest.raises(UsageError, match=message):
        sample(xor_triple(), n, seed)


def test_sample_draws_as_generator_choice():
    """sample() draws the atoms Generator.choice(len(p), size=n, p=p) draws
    from the same Philox stream, unravelled, over 1,000 seeds and several
    lengths; a numpy release that changes choice fails here rather than
    moving reports silently. Integer seeds and SeedSequences both hold.
    """
    dists = [xor_triple(), noisy_copy_triple(0.1, 0.3),
             random_distribution(np.random.default_rng(36), (3, 2, 4), zero_frac=0.3)]
    assert min(d.pmf.min() for d in dists) == 0
    for d, seed, n in itertools.product(dists, range(1000), (1, 8, 20, 64)):
        flat = d.pmf.ravel()
        # even seeds go in as integers, odd ones as SeedSequences
        entropy = seed if seed % 2 == 0 else [seed, n]
        got = sample(d, n, seed if seed % 2 == 0 else np.random.SeedSequence(entropy))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        want = np.unravel_index(rng.choice(len(flat), size=n, p=flat), d.alphabet_sizes)
        for a, b in zip((got.x_seq, got.y_seq, got.z_seq), want):
            assert a.dtype == np.int64 and np.array_equal(a, b)


def test_pmf_file_round_trip(tmp_path):
    d = noisy_copy_triple(0.1, 0.3)
    path = tmp_path / "pmf.json"
    dump_pmf(d, path)
    back = load_pmf(path)
    assert back.alphabet_sizes == d.alphabet_sizes
    np.testing.assert_allclose(back.pmf, d.pmf, atol=1e-15)


def test_pmf_file_normalization(tmp_path):
    path = tmp_path / "near.json"
    path.write_text('{"alphabet": [1, 1, 2], "pmf": [0.5000003, 0.5]}')
    d = load_pmf(path)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [1, 1, 2], "pmf": [0.7, 0.5]}')
    with pytest.raises(UsageError):
        load_pmf(bad)


def test_invalid_distributions():
    with pytest.raises(UsageError):
        JointDistribution((2, 2, 2), np.full((2, 2, 2), 0.25))
    with pytest.raises(UsageError):
        JointDistribution((2, 2), np.full((2, 2), 0.25))
    with pytest.raises(UsageError, match="does not match alphabet sizes"):
        JointDistribution((2, 1, 2), np.full((2, 2, 2), 0.125))
    with pytest.raises(UsageError):
        neg = np.full((1, 1, 2), 0.5)
        neg[0, 0, 0] = -0.5
        neg[0, 0, 1] = 1.5
        JointDistribution((1, 1, 2), neg)
    with pytest.raises(UsageError):
        JointDistribution.create((9, 1, 1), np.full((9, 1, 1), 1 / 9))
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError):
            JointDistribution((1, 1, 2), np.array([bad, 0.5]).reshape(1, 1, 2))


@pytest.mark.parametrize("sizes", [(2.5, 1, 2), ("2", 1, 2), (2.0, 1, 2), (True, 1, 2)],
                         ids=["fractional", "string", "float", "bool"])
@pytest.mark.parametrize("build", [JointDistribution, JointDistribution.create],
                         ids=["init", "create"])
def test_alphabet_sizes_must_be_integers(build, sizes):
    with pytest.raises(UsageError, match="alphabet sizes must be integers"):
        build(sizes, np.full((2, 1, 2), 0.25))


def test_numpy_integer_alphabet_sizes_are_accepted():
    pmf = np.full((2, 1, 2), 0.25)
    assert JointDistribution(tuple(np.array([2, 1, 2])), pmf).alphabet_sizes == (2, 1, 2)


def test_identical_bits_profile():
    prof = info_profile(identical_bits())
    assert prof.h("XYZ") == pytest.approx(1.0, abs=1e-12)
    assert prof.i("X", "Y", "Z") == pytest.approx(0.0, abs=1e-12)
    assert math.isclose(prof.i("X", "YZ"), 1.0, abs_tol=1e-12)


# -- sequence codes -----------------------------------------------------------


@pytest.mark.parametrize("q,long_n", [(2, 70), (3, 41)])
def test_sequence_code_round_trip(q, long_n):
    # long_n puts q**n past 2**64, where a uint64 code would wrap
    assert q ** long_n > 2 ** 64
    rng = np.random.default_rng(q)
    for n in (1, 5, 12, long_n):
        for _ in range(20):
            seq = rng.integers(0, q, size=n)
            code = sequence_code(seq, q)
            assert 0 <= code < q ** n
            assert np.array_equal(list(code_digits(code, q, n)), seq)
        top = np.array(list(code_digits(q ** n - 1, q, n)))
        assert top.tolist() == [q - 1] * n
        assert sequence_code(top, q) == q ** n - 1
    # most significant position first
    assert sequence_code([1, 0, 0], q) == q ** 2
    assert sequence_code([0, 0, 1], q) == 1


@pytest.mark.parametrize("q,n", [(1, 4), (2, 1), (2, 10), (3, 7), (3, 30)])
def test_place_values_fold_to_sequence_code(q, n):
    table = place_values(q, n)
    assert table.shape == (n, q)
    assert table.dtype == np.uint64
    assert not table.flags.writeable
    rng = np.random.default_rng(n)
    for _ in range(20):
        seq = rng.integers(0, q, size=n)
        fold = table[np.arange(n), seq].sum(dtype=np.uint64)
        assert int(fold) == sequence_code(seq, q)


@pytest.mark.parametrize("q,n", [(1, 4), (2, 1), (3, 7), (3, 30)])
def test_code_digits_invert_sequence_code(q, n):
    rng = np.random.default_rng(n)
    seqs = rng.integers(0, q, size=(20, n))
    codes = np.array([sequence_code(seq, q) for seq in seqs], dtype=np.int64)
    digits = list(code_digits(codes, q, n))
    assert len(digits) == n
    assert np.array_equal(np.stack(digits, axis=1), seqs)
