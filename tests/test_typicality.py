import itertools

import numpy as np
import pytest

from conftest import random_distribution, random_pmf
from skpk import typicality
from skpk.binning import MODE_HASH, MODE_TABLE, make_codebook
from skpk.errors import CapacityError, SearchOverflowError, UsageError
from skpk.typicality import (CandidateEngine, TypicalityParams,
                             conditional_candidates, count_window,
                             enumerate_typical, is_strongly_typical,
                             joint_counts)


def brute_force_candidates(joint_pmf, params, observed):
    """Reference: try every sequence of the last variable."""
    size = joint_pmf.shape[-1]
    n = params.n
    out = []
    for tail in itertools.product(range(size), repeat=n):
        seqs = tuple(observed) + (np.array(tail, dtype=np.int64),)
        if is_strongly_typical(seqs, joint_pmf, params):
            out.append(np.array(tail, dtype=np.int64))
    return out


def test_count_window_values():
    assert count_window(12, 0.5, 0.2) == (5, 7)
    assert count_window(10, 0.5, 0.2) == (4, 6)
    assert count_window(10, 0.0, 0.5) == (0, 0)
    assert count_window(10, 1e-16, 0.5) == (0, 0)


def test_params_validation():
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=0.0, n=4)
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=1.0, n=4)
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=0.5, n=0)


def test_joint_counts():
    counts = joint_counts((np.array([0, 1, 0]), np.array([1, 1, 0])), (2, 2))
    assert counts[0, 1] == 1
    assert counts[1, 1] == 1
    assert counts[0, 0] == 1
    assert counts.sum() == 3


def test_typicality_matches_definition(rng):
    pmf = random_pmf(rng, (2, 2))
    params = TypicalityParams(epsilon=0.4, n=8)
    for _ in range(30):
        x = rng.integers(0, 2, size=8)
        y = rng.integers(0, 2, size=8)
        counts = joint_counts((x, y), (2, 2))
        expected = True
        for a in range(2):
            for b in range(2):
                p = pmf[a, b]
                k = counts[a, b]
                if p <= 1e-15:
                    ok = k == 0
                else:
                    ok = abs(k / 8 - p) <= 0.4 * p + 1e-9
                expected = expected and ok
        assert is_strongly_typical((x, y), pmf, params) == expected


def test_candidates_match_brute_force(rng):
    """Class-factorized generation against exhaustive filtering."""
    for trial in range(25):
        n = int(rng.integers(4, 9))
        pmf = random_pmf(rng, (2, 2), zero_frac=0.3)
        params = TypicalityParams(epsilon=float(rng.uniform(0.2, 0.9)), n=n)
        observed = rng.integers(0, 2, size=n)
        got = conditional_candidates((observed,), pmf, params)
        want = brute_force_candidates(pmf, params, (observed,))
        got_set = {tuple(s) for s in got}
        want_set = {tuple(s) for s in want}
        assert got_set == want_set


def test_three_variable_candidates(rng):
    d = random_distribution(rng, (2, 2, 2), zero_frac=0.2)
    params = TypicalityParams(epsilon=0.6, n=6)
    x = rng.integers(0, 2, size=6)
    y = rng.integers(0, 2, size=6)
    got = {tuple(s) for s in conditional_candidates((x, y), d.pmf, params)}
    want = {tuple(s) for s in brute_force_candidates(d.pmf, params, (x, y))}
    assert got == want


def test_candidates_are_typical(rng):
    pmf = random_pmf(rng, (2, 3), zero_frac=0.1)
    params = TypicalityParams(epsilon=0.5, n=7)
    x = rng.integers(0, 2, size=7)
    for cand in conditional_candidates((x,), pmf, params):
        assert is_strongly_typical((x, cand), pmf, params)


def test_enumerate_typical_matches_brute_force(rng):
    pmf = random_pmf(rng, (2, 2))
    params = TypicalityParams(epsilon=0.5, n=6)
    got = {tuple(map(tuple, seqs)) for seqs in enumerate_typical(pmf, params)}
    want = set()
    for xs in itertools.product(range(2), repeat=6):
        for ys in itertools.product(range(2), repeat=6):
            seqs = (np.array(xs), np.array(ys))
            if is_strongly_typical(seqs, pmf, params):
                want.add((xs, ys))
    assert got == want


# (pmf shape, n, epsilon, bin rate): one or two observed axes, alphabets of
# 2 and 3; 1 bin, 16 bins and non-powers of two, where the 2**64 wrap
# residue matters
BIN_FILTER_CASES = [
    ((2, 2), 8, 0.6, 0.5),
    ((3, 2), 8, 0.7, 0.0),
    ((3, 3), 8, 0.8, 0.55),
    ((2, 2, 2), 8, 0.8, 0.7),
    ((3, 2, 3), 9, 0.9, 0.9),
    ((2, 3, 2), 8, 0.9, 0.3),
]


def concentrated_pmf(rng, shape, active=2):
    """Random pmf whose observed marginal sits on a few cells, so that short
    sampled sequences still have typical candidates."""
    obs_cells = int(np.prod(shape[:-1]))
    w = np.zeros((obs_cells, shape[-1]))
    for cell in rng.choice(obs_cells, size=active, replace=False):
        w[cell] = 1 + rng.random(shape[-1])
    return (w / w.sum()).reshape(shape)


def _check_bin_filter(eng, observed, cb, cands):
    """scan_bin_filter against conditional_candidates plus bin_index, on up
    to ten occupied bins and two bins that may be empty."""
    by_bin = {}
    for c in cands:
        by_bin.setdefault(cb.bin_index(c), []).append(c)
    for target in sorted(set(sorted(by_bin)[:10]) | {0, cb.num_bins - 1}):
        want = by_bin.get(target, [])
        count, first = eng.scan_bin_filter(observed, cb, target, want="unique")
        assert count == min(len(want), 2)
        if want:
            assert np.array_equal(first, want[0])
        else:
            assert first is None
        got = eng.scan_bin_filter(observed, cb, target, want="all")
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _run_bin_filter_cases(rng):
    bins_seen, sizes = set(), []
    for shape, n, eps, rate in BIN_FILTER_CASES:
        pmf = concentrated_pmf(rng, shape)
        params = TypicalityParams(epsilon=eps, n=n)
        eng = CandidateEngine(pmf, params)
        cb = make_codebook(MODE_HASH, n, shape[-1], rate, 0.0,
                           seed=int(rng.integers(1 << 30)), purpose="Z")
        bins_seen.add(cb.num_bins)
        for _ in range(3):
            cells = rng.choice(pmf.size, size=n, p=pmf.ravel())
            observed = np.unravel_index(cells, shape)[:-1]
            cands = conditional_candidates(observed, pmf, params)
            sizes.append(len(cands))
            _check_bin_filter(eng, observed, cb, cands)
    assert sum(size > 0 for size in sizes) >= len(sizes) // 2
    assert 1 in bins_seen
    assert any(b > 2 and b & (b - 1) for b in bins_seen)


def test_bin_filter_matches_brute_force(rng):
    _run_bin_filter_cases(rng)


def test_bin_filter_join_path(rng, monkeypatch):
    """Every KeyedHash scan through the residue join, whatever its size and
    bin count."""
    monkeypatch.setattr(typicality, "JOIN_MIN_CANDIDATES", 1)
    monkeypatch.setattr(typicality, "JOIN_MIN_BINS", 1)
    joins = []
    join = typicality._residue_join
    monkeypatch.setattr(typicality, "_residue_join",
                        lambda *args: joins.append(1) or join(*args))
    _run_bin_filter_cases(rng)
    assert joins


def test_bin_filter_full_product_path(rng, monkeypatch):
    monkeypatch.setattr(typicality, "JOIN_MIN_CANDIDATES", 2 ** 62)
    monkeypatch.setattr(typicality, "_residue_join", None)
    _run_bin_filter_cases(rng)


def test_bin_filter_table_codebook(rng):
    pmf = concentrated_pmf(rng, (3, 3))
    params = TypicalityParams(epsilon=0.8, n=8)
    eng = CandidateEngine(pmf, params)
    cb = make_codebook(MODE_TABLE, 8, 3, 0.6, 0.0, seed=5, purpose="Z")
    x = np.unravel_index(rng.choice(9, size=8, p=pmf.ravel()), (3, 3))[0]
    cands = conditional_candidates((x,), pmf, params)
    assert cands
    _check_bin_filter(eng, (x,), cb, cands)


def reference_arrangements(m, vectors, q):
    """Every distinct sequence with each count vector, sorted by the
    positions of the first symbol present, then of the next, and so on."""
    rows = []
    for counts in vectors:
        symbols = [s for s in range(q) if counts[s]]
        multiset = [s for s in range(q) for _ in range(counts[s])]

        def key(row):
            return tuple(tuple(i for i in range(m) if row[i] == s) for s in symbols)

        rows.extend(sorted(set(itertools.permutations(multiset)), key=key))
    return np.array(rows, dtype=np.int8).reshape(len(rows), m)


def test_arrangement_matrix_order(rng):
    for _ in range(40):
        q = int(rng.integers(2, 5))
        m = int(rng.integers(0, 8))
        lo = rng.integers(0, 3, size=q).tolist()
        hi = [a + int(rng.integers(0, m + 1)) for a in lo]
        vectors = typicality._count_vectors(m, lo, hi)
        got = typicality._arrangement_matrix(m, vectors, q)
        assert got.dtype == np.int8
        assert np.array_equal(got, reference_arrangements(m, vectors, q))


def test_arrangement_cell_cap(monkeypatch):
    pmf = np.full((2, 2), 0.25)
    params = TypicalityParams(epsilon=0.9, n=12)
    eng = CandidateEngine(pmf, params)
    cb = make_codebook(MODE_HASH, 12, 2, 0.5, 0.0, seed=3, purpose="Z")
    x = np.arange(12) % 2
    monkeypatch.setattr(typicality, "ARRANGE_CELL_CAP", 100)
    with pytest.raises(SearchOverflowError, match="materialization guard"):
        eng.scan_bin_filter((x,), cb, 0)


def test_search_cap_fires_before_any_scan_work(monkeypatch):
    pmf = np.full((2, 2), 0.25)
    params = TypicalityParams(epsilon=0.9, n=12)
    eng = CandidateEngine(pmf, params, cap=10)
    cb = make_codebook(MODE_HASH, 12, 2, 0.5, 0.0, seed=3, purpose="Z")

    def forbidden(*args, **kwargs):
        raise AssertionError("scan work started past the search cap")

    for name in ("_arrangement_matrix", "_group_sums", "_residue_join", "_full_product"):
        monkeypatch.setattr(typicality, name, forbidden)
    monkeypatch.setattr(typicality, "JOIN_MIN_CANDIDATES", 1)
    with pytest.raises(SearchOverflowError, match="search cap"):
        eng.scan_bin_filter((np.arange(12) % 2,), cb, 0)


def test_search_cap_overflow():
    pmf = np.full((2, 2), 0.25)
    params = TypicalityParams(epsilon=0.9, n=24)
    eng = CandidateEngine(pmf, params, cap=2 ** 10)
    with pytest.raises(Exception) as err:
        eng.candidate_indices((np.zeros(24, dtype=np.int64) + (np.arange(24) % 2),))
    assert "cap" in str(err.value).lower() or "overflow" in type(err.value).__name__.lower()


def test_enum_capacity_error():
    pmf = np.full((2, 2), 0.25)
    params = TypicalityParams(epsilon=0.9, n=14)
    with pytest.raises(CapacityError):
        list(enumerate_typical(pmf, params, cap=2 ** 8))
