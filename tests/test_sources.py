import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_distribution
from skpk.errors import UsageError
from skpk.sources import (JointDistribution, code_digits, conditional_entropy,
                          conditional_mutual_information, dump_pmf, entropy,
                          identical_bits, info_profile, load_pmf,
                          mutual_information, noisy_copy_triple, place_values,
                          sample, sequence_code, sequence_of_code, xor_triple)


def test_xor_entropies():
    d = xor_triple()
    assert entropy(d, "XYZ") == pytest.approx(2.0, abs=1e-12)
    assert conditional_entropy(d, "Z", "X") == pytest.approx(1.0, abs=1e-12)
    assert conditional_mutual_information(d, "X", "Y", "Z") == pytest.approx(1.0, abs=1e-12)
    assert mutual_information(d, "X", "Z") == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(d, "XY", "Z") == pytest.approx(1.0, abs=1e-12)


def test_noisy_copy_profile_value():
    # oracle: direct summation over the eight atoms of the 0.1/0.3 source
    d = noisy_copy_triple(0.1, 0.3)
    prof = info_profile(d)
    assert prof.i("Z", "XY") == pytest.approx(0.11870910076930735, abs=1e-12)


def test_total_correlation_decompositions(rng):
    for _ in range(80):
        shape = tuple(rng.integers(1, 5, size=3))
        d = random_distribution(rng, shape, zero_frac=0.2)
        total = (entropy(d, "X") + entropy(d, "Y") + entropy(d, "Z")
                 - entropy(d, "XYZ"))
        assert total == pytest.approx(
            mutual_information(d, "X", "Z") + mutual_information(d, "Y", "XZ"),
            abs=1e-10)
        assert total == pytest.approx(
            mutual_information(d, "Y", "Z") + mutual_information(d, "X", "YZ"),
            abs=1e-10)
        assert total == pytest.approx(
            mutual_information(d, "XY", "Z") + mutual_information(d, "X", "Y"),
            abs=1e-10)


def test_marginal_axis_order(rng):
    d = random_distribution(rng, (2, 3, 4))
    np.testing.assert_allclose(d.marginal("YZX"), np.transpose(d.pmf, (1, 2, 0)))
    np.testing.assert_allclose(d.marginal("Z"), d.pmf.sum(axis=(0, 1)))
    np.testing.assert_allclose(d.marginal("XZ"), d.pmf.sum(axis=1))


def test_variable_set_validation():
    d = xor_triple()
    with pytest.raises(UsageError):
        entropy(d, "")
    with pytest.raises(UsageError):
        mutual_information(d, "X", "XY")
    with pytest.raises(UsageError):
        conditional_mutual_information(d, "X", "Z", "Z")
    prof = info_profile(d)
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
            assert np.array_equal(sequence_of_code(code, q, n), seq)
        top = sequence_of_code(q ** n - 1, q, n)
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
