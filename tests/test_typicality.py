import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import listed_candidates, random_distribution, random_pmf
from skpk import typicality
from skpk.binning import MODE_HASH, MODE_TABLE, make_codebook
from skpk.errors import CapacityError, SearchOverflowError, UsageError
from skpk.sources import STRUCTURAL_ZERO, place_values, sequence_code, xor_triple
from skpk.typicality import (CandidateEngine, TypicalityParams, count_window,
                             is_strongly_typical, joint_counts)


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


@given(n=st.integers(1, 64), p=st.floats(0.0, 1.0),
       epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_count_window_matches_brute_force(n, p, epsilon):
    """The window is the least and greatest count k in 0..n with
    |k/n - p| <= epsilon * p, judged exactly up to the rule's boundary
    tolerance (in counts); an empty set gives lo > hi, a structural zero
    (0, 0).
    """
    lo, hi = count_window(n, p, epsilon)
    if p <= STRUCTURAL_ZERO:
        assert (lo, hi) == (0, 0)
        return
    mean, eps = n * Fraction(p), Fraction(epsilon)
    fuzz = Fraction(typicality.BOUNDARY_FUZZ)
    admitted = [k for k in range(n + 1) if abs(k - mean) <= eps * mean + fuzz]
    if admitted:
        assert (lo, hi) == (admitted[0], admitted[-1])
    else:
        assert lo > hi


def test_params_validation():
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=0.0, n=4)
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=1.0, n=4)
    with pytest.raises(UsageError):
        TypicalityParams(epsilon=0.5, n=0)


@pytest.mark.parametrize("epsilon,n,message", [
    (0.1, 2.5, "n must be integers"), (0.1, True, "n must be integers"),
    ("0.1", 4, "epsilon must lie in"), (True, 4, "epsilon must lie in")], ids=repr)
def test_params_refuse_a_setting_of_the_wrong_type(epsilon, n, message):
    """A fractional or bool n is refused, not taken as a blocklength, and an
    epsilon that is not a number is refused by name, not by a comparison's
    TypeError."""
    with pytest.raises(UsageError, match=message):
        TypicalityParams(epsilon, n)


@pytest.mark.parametrize("cap,message", [
    (2.9, "cap must be integers"), ("7", "cap must be integers"), (True, "cap must be integers"),
    (-1, "cap must be >= 0, got -1")], ids=repr)
def test_engine_refuses_a_cap_it_would_truncate(cap, message):
    """cap=2.9 once ran with cap 2 and cap="7" with cap 7; cap 0 stays legal."""
    params = TypicalityParams(0.5, 3)
    with pytest.raises(UsageError, match=message):
        CandidateEngine(np.full((2, 2), 0.25), params, cap=cap)
    assert CandidateEngine(np.full((2, 2), 0.25), params, cap=0).cap == 0


def test_joint_counts():
    counts = joint_counts((np.array([0, 1, 0]), np.array([1, 1, 0])), (2, 2))
    assert counts[0, 1] == 1
    assert counts[1, 1] == 1
    assert counts[0, 0] == 1
    assert counts.sum() == 3


@pytest.mark.parametrize("bad", [
    (np.array([0, -1, 0]), np.array([1, 1, 0])),    # negative symbol
    (np.array([0, 1, 0]), np.array([1, 2, 0])),     # symbol past the alphabet
    (np.array([0, 1, 0]), np.array([1, 1])),        # length mismatch
    (np.array([0, 1, 0]),),                         # one sequence, two axes
    (np.array([0.7, 1.2, 0.1]), np.array([1, 1, 0])),   # float symbols
    [0, 1],                                         # scalars, not sequences
])
def test_cell_code_checks(bad):
    """joint_counts, the membership test and the candidate engine share one
    checked cell code."""
    with pytest.raises(UsageError):
        joint_counts(bad, (2, 2))
    with pytest.raises(UsageError):
        is_strongly_typical(bad, np.full((2, 2), 0.25), TypicalityParams(0.5, 3))
    engine = CandidateEngine(np.full((2, 2, 2), 0.125), TypicalityParams(0.5, 3))
    with pytest.raises(UsageError):
        engine.candidate_indices(bad)


def test_float_symbols_are_refused_not_truncated():
    """Cast to int64, these floats would count [2, 2] and be typical."""
    floats = np.array([0.7, 1.2, 0.1, 1.9])
    with pytest.raises(UsageError, match="integers"):
        is_strongly_typical(floats, [0.5, 0.5], TypicalityParams(0.5, 4))
    with pytest.raises(UsageError, match="integers"):
        joint_counts(floats, (2,))
    assert joint_counts(floats.astype(np.int64), (2,)).tolist() == [2, 2]


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
    """Class-factorized generation against exhaustive filtering: one observed
    sequence on random pmfs, and nothing observed on a flattened joint pmf,
    whose candidates are the typical set itself (one code per joint symbol).
    """
    cases = []
    for trial in range(25):
        n = int(rng.integers(4, 9))
        pmf = random_pmf(rng, (2, 2), zero_frac=0.3)
        params = TypicalityParams(epsilon=float(rng.uniform(0.2, 0.9)), n=n)
        cases.append((pmf, params, (rng.integers(0, 2, size=n),)))
    cases.append((np.array([[0.1, 0.2], [0.3, 0.4]]).ravel(),
                  TypicalityParams(epsilon=0.9, n=6), ()))
    for pmf, params, observed in cases:
        got = {tuple(s) for s in listed_candidates(observed, pmf, params)}
        want = {tuple(s) for s in brute_force_candidates(pmf, params, observed)}
        assert got == want
    assert want     # the last case's typical set is not empty


def test_three_variable_candidates(rng):
    d = random_distribution(rng, (2, 2, 2), zero_frac=0.2)
    params = TypicalityParams(epsilon=0.6, n=6)
    x = rng.integers(0, 2, size=6)
    y = rng.integers(0, 2, size=6)
    got = {tuple(s) for s in listed_candidates((x, y), d.pmf, params)}
    want = {tuple(s) for s in brute_force_candidates(d.pmf, params, (x, y))}
    assert got == want


def test_candidates_are_typical(rng):
    pmf = random_pmf(rng, (2, 3), zero_frac=0.1)
    params = TypicalityParams(epsilon=0.5, n=7)
    x = rng.integers(0, 2, size=7)
    for cand in listed_candidates((x,), pmf, params):
        assert is_strongly_typical((x, cand), pmf, params)


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
    """scan_bin_filter against listed_candidates plus bin_index, on up
    to ten occupied bins and two bins that may be empty."""
    by_bin = {}
    for c in cands:
        by_bin.setdefault(cb.bin_index(c), []).append(c)
    for target in sorted(set(sorted(by_bin)[:10]) | {0, cb.num_bins - 1}):
        want = by_bin.get(target, [])
        for limit in (1, 2, None):
            got = eng.scan_bin_filter(observed, cb, target, limit=limit)
            assert got.shape == (len(want[:limit]), eng.params.n)
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
            cands = listed_candidates(observed, pmf, params)
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
    cands = listed_candidates((x,), pmf, params)
    assert cands
    _check_bin_filter(eng, (x,), cb, cands)


@pytest.mark.parametrize("min_cells", [0, 2 ** 62], ids=["products", "gathers"])
@pytest.mark.parametrize("rows", [None, 3], ids=["one-row", "row-axis"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_class_sums_match_per_arrangement_sums(rng, monkeypatch, min_cells, rows, q):
    """Each class sum is the sum of its arrangement's contributions mod
    2**64, whichever way it is formed: for KeyedHash keys near 2**64, whose
    sums wrap, and for place values."""
    monkeypatch.setattr(typicality, "MATMUL_MIN_CELLS", min_cells)
    n = 9
    near_top = np.uint64(2 ** 64 - 1) - rng.integers(0, 2 ** 20, size=(n, q), dtype=np.uint64)
    for contrib in (near_top, place_values(q, n)):
        tables = []
        for m in (1, 4, 7):
            mat = rng.integers(0, q, size=(int(rng.integers(1, 40)), m)).astype(np.int8)
            pos = np.stack([rng.permutation(n)[:m] for _ in range(rows or 1)])
            tables.append((pos if rows else pos[0], mat))
        for (pos, mat), sums in zip(tables, typicality._class_sums(tables, contrib)):
            assert sums.dtype == np.uint64
            assert sums.shape == (*pos.shape[:-1], len(mat))
            for r, row in enumerate(np.atleast_2d(pos)):
                want = [sum(int(contrib[t, s]) for t, s in zip(row, arr)) % 2 ** 64
                        for arr in mat.tolist()]
                assert np.atleast_2d(sums)[r].tolist() == want


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("bins", [3, 5, 6, 7])
def test_residue_join_matches_every_pair(rng, bins, limit):
    """The join finds exactly the pairs, checked one by one, whose
    KeyedHash bin is the target, where the smaller side's residues repeat
    and sums near 2**64 wrap (2**64 mod bins is not 0)."""
    cb = make_codebook(MODE_HASH, 8, 2, math.log2(bins) / 8, 0.0, seed=1, purpose="Z")
    assert cb.num_bins == bins and 2 ** 64 % bins
    wrapped = repeats = 0
    for trial in range(20):
        large = rng.integers(2 ** 63, 2 ** 64, size=24, dtype=np.uint64)
        # the smaller side, a few values drawn six times, repeats residues
        small = rng.choice(rng.integers(0, 2 ** 64, size=3, dtype=np.uint64), size=6)
        vals = [large, small] if trial % 2 else [small, large]
        sums = [int(a) + int(b) for a in vals[0] for b in vals[1]]
        for target in range(bins):
            want = [j for j, s in enumerate(sums) if s % 2 ** 64 % bins == target]
            assert typicality._residue_join(vals, cb, target, limit) == want[:limit]
            wrapped += sum(sums[j] >= 2 ** 64 for j in want)
        repeats += len(np.unique(small % np.uint64(bins))) < len(small)
    assert wrapped and repeats


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("bins", [2 ** 30, 3 * 2 ** 29 + 1])
def test_residue_join_bitmap_keeps_every_match(rng, bins, limit):
    """With 2**30 bins or more, the join's bitmap over the smaller side's
    low residue bits is narrower than the bin count. Smaller-side residues
    here share their low 20 bits and differ above them, and the larger side
    holds elements that need one of them, elements that need a residue
    with the same low bits that no element has, and random elements. The
    join still finds exactly the pairs, checked one by one, whose bin is
    the target, among them sums that wrap past 2**64 (for a bin count that
    does not divide 2**64, a wrapped sum needs the second target residue).
    """
    cb = make_codebook(MODE_HASH, 8, 2, math.log2(bins) / 8, 0.0, seed=1, purpose="Z")
    assert cb.num_bins == bins
    low = 2 ** 20
    wrap = 2 ** 64 % bins
    found = wrapped = 0

    def above(r):
        """A uniform 64-bit value of residue r."""
        return r + bins * int(rng.integers(0, (2 ** 64 - r) // bins))

    for trial in range(10):
        target = int(rng.integers(0, bins))
        residues = (int(rng.integers(0, low))
                    + low * rng.choice(bins // low - 1, size=12, replace=False)).tolist()
        small = [above(r) for r in residues[:6]]
        # per residue, a needed or a decoy one, an element for each sum branch
        large = [above((target + w - r) % bins) for r in residues for w in (0, wrap)]
        large += rng.integers(0, 2 ** 64, size=6, dtype=np.uint64).tolist()
        vals = [np.array(v, dtype=np.uint64) for v in
                ((large, small) if trial % 2 else (small, large))]
        sums = [a + b for a in vals[0].tolist() for b in vals[1].tolist()]
        want = [j for j, s in enumerate(sums) if s % 2 ** 64 % bins == target]
        assert typicality._residue_join(vals, cb, target, limit) == want[:limit]
        found += len(want)
        wrapped += sum(sums[j] >= 2 ** 64 for j in want)
    assert found > wrapped > 0


def test_cells_with_equal_windows_share_arrangement_tables(rng, monkeypatch):
    """On xor's XZ marginal both cells of X have the same windows, so the
    engine builds one arrangement table per class size, not one per cell
    and class size, and candidate_indices and scan_bin_filter still give
    listed_candidates' candidates."""
    pmf = xor_triple().marginal("XZ")
    params = TypicalityParams(epsilon=0.5, n=12)
    rows = rng.integers(0, 2, size=(20, 12))
    listed = [listed_candidates((row,), pmf, params) for row in rows]
    eng = CandidateEngine(pmf, params)
    assert np.array_equal(eng.lo[0], eng.lo[1]) and np.array_equal(eng.hi[0], eng.hi[1])
    built = []
    arrange = typicality._arrangement_matrix
    monkeypatch.setattr(typicality, "_arrangement_matrix",
                        lambda m, *args: built.append(m) or arrange(m, *args))
    cb = make_codebook(MODE_HASH, 12, 2, 0.5, 0.0, seed=3, purpose="Z")
    codes, counts = eng.candidate_indices((rows,))
    starts = (np.cumsum(counts) - counts).tolist()
    sizes = set()
    for row, want, start, count in zip(rows, listed, starts, counts.tolist()):
        assert codes[start:start + count].tolist() == [sequence_code(c, 2) for c in want]
        _check_bin_filter(eng, (row,), cb, want)
        if want:
            sizes.update(np.bincount(row, minlength=2).tolist())
    assert len(sizes) > 1 and sorted(built) == sorted(sizes)


def brute_force_in_candidate_order(pmf, params, observed):
    """Every typical candidate, by exhaustive filtering, sorted into
    candidate order: class by class in ascending observed cell code, by the
    class's count vector, then by the positions each symbol present takes.
    """
    q = pmf.shape[-1]
    cells = np.ravel_multi_index(observed, pmf.shape[:-1])

    def key(z):
        out = []
        for cell in np.unique(cells).tolist():
            sub = z[cells == cell]
            counts = np.bincount(sub, minlength=q)
            out.append((counts.tolist(), [np.flatnonzero(sub == s).tolist()
                                          for s in range(q) if counts[s]]))
        return out

    return sorted(brute_force_candidates(pmf, params, observed), key=key)


def _check_against_brute_force(eng, pmf, rows, codebooks):
    """candidate_indices, scan_bin_filter (limit None and 2) and the rows
    of scan_pair's stage 2 on the given observed rows against the
    brute-force candidates in candidate order.
    """
    want = [brute_force_in_candidate_order(pmf, eng.params, row) for row in rows]
    codes, counts = eng.candidate_indices(tuple(np.stack(axis) for axis in zip(*rows)))
    assert counts.tolist() == [len(w) for w in want]
    assert codes.tolist() == [sequence_code(c, pmf.shape[-1]) for w in want for c in w]
    _check_scans(eng, rows, codebooks, want)
    return want


def _check_scans(eng, rows, codebooks, want):
    """scan_bin_filter (limit None and 2) on the given observed rows, and
    each row's first two matches as scan_pair's free-cell stage 2 reads
    them (one _row_sizes call for all rows, then _scan_row per row), against
    each row's candidates want, in candidate order, in every bin of each
    codebook.
    """
    codes, fits, sizes = eng._row_sizes(tuple(np.stack(axis) for axis in zip(*rows)))
    for cb in codebooks:
        in_bin = [[cb.bin_index(c) for c in w] for w in want]
        for target in range(cb.num_bins):
            matches = [[c for c, b in zip(w, bins) if b == target]
                       for w, bins in zip(want, in_bin)]
            for row, match in zip(rows, matches):
                for limit in (None, 2):
                    got = eng.scan_bin_filter(row, cb, target, limit=limit)
                    assert got.tolist() == [c.tolist() for c in match[:limit]]
            for code, fit, shape, match in zip(codes, fits.tolist(), sizes.tolist(), matches):
                got = eng._scan_row(code, shape if fit else None, cb, target, 2)
                assert got.tolist() == [c.tolist() for c in match[:2]]


def _admitted_symbols(eng):
    """Per observed cell, how many symbols have a window other than [0, 0]."""
    return ((eng.lo != 0) | (eng.hi != 0)).sum(axis=1).tolist()


def _rows_of(rng, cell_counts, shape):
    """One observed row per cell-count vector: each cell's symbols as often
    as its count says, in a random order.
    """
    rows = []
    for counts in cell_counts:
        cells = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        rows.append(np.unravel_index(cells, shape))
    return rows


def test_forced_classes_match_brute_force(rng):
    """z is forced in the (x, y) cells (0, 0) and (1, 0), whose structural
    zeros leave one symbol each, and free in (0, 1) and (1, 1). The scans and
    candidate_indices agree with brute force on rows with candidates, rows
    whose forced class is larger than its symbol's window, rows without a
    forced cell that must occur, rows of forced cells only (every free cell
    must occur) and random rows.
    """
    pmf = np.array([[[0.2, 0.0], [0.25, 0.15]], [[0.0, 0.2], [0.1, 0.1]]])
    params = TypicalityParams(epsilon=0.6, n=8)
    eng = CandidateEngine(pmf, params)
    assert _admitted_symbols(eng) == [1, 2, 1, 2]
    kinds = {
        "some": [[2, 2, 2, 2], [1, 3, 2, 2], [2, 3, 1, 2], [1, 4, 1, 2]],
        "too_large": [[3, 2, 1, 2], [1, 2, 3, 2]],
        "absent": [[0, 4, 2, 2], [2, 4, 0, 2]],
        "forced_only": [[4, 0, 4, 0], [5, 0, 3, 0]],
    }
    rows = _rows_of(rng, [c for counts in kinds.values() for c in counts], (2, 2))
    rows += [tuple(rng.integers(0, 2, size=(2, 8))) for _ in range(6)]
    codebooks = [make_codebook(MODE_HASH, 8, 2, 0.25, 0.0, seed=7, purpose="Z"),
                 make_codebook(MODE_TABLE, 8, 2, 0.25, 0.0, seed=7, purpose="Z")]
    want = _check_against_brute_force(eng, pmf, rows, codebooks)
    got = iter(len(w) for w in want)
    for kind, counts in kinds.items():
        lengths = [next(got) for _ in counts]
        assert all(lengths) if kind == "some" else not any(lengths), kind
    assert max(len(w) for w in want) > 2


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_one_bin_codebook_takes_candidates_in_order(rng, monkeypatch, mode):
    """A codebook of one bin holds every candidate: on the forced and free
    cells of test_forced_classes_match_brute_force both scans give brute
    force's candidates in candidate order, and scan_bin_filter forms no
    class sums, full product or residue join for them. Target 1 matches
    nothing, and a search cap below a row's candidate count still raises
    before any table is built.
    """
    pmf = np.array([[[0.2, 0.0], [0.25, 0.15]], [[0.0, 0.2], [0.1, 0.1]]])
    params = TypicalityParams(epsilon=0.6, n=8)
    eng = CandidateEngine(pmf, params)
    cell_counts = [[2, 2, 2, 2], [1, 3, 2, 2], [1, 4, 1, 2], [3, 2, 1, 2], [0, 4, 2, 2]]
    rows = _rows_of(rng, cell_counts, (2, 2))
    rows += [tuple(rng.integers(0, 2, size=(2, 8))) for _ in range(4)]
    want = [brute_force_in_candidate_order(pmf, params, row) for row in rows]
    assert max(len(w) for w in want) > 2 and min(len(w) for w in want) == 0
    cb = make_codebook(mode, 8, 2, 0.0, 0.0, seed=7, purpose="Z")
    assert cb.num_bins == 1
    _check_scans(eng, rows, [cb], want)

    def forbidden(*args):
        raise AssertionError("bins formed for a one-bin codebook")

    for name in ("_class_sums", "_full_product", "_residue_join"):
        monkeypatch.setattr(typicality, name, forbidden)
    for row, w in zip(rows, want):
        for limit in (None, 2):
            got = eng.scan_bin_filter(row, cb, 0, limit=limit)
            assert got.tolist() == [c.tolist() for c in w[:limit]]
        assert eng.scan_bin_filter(row, cb, 1).shape == (0, 8)
    capped = CandidateEngine(pmf, params, cap=2)
    monkeypatch.setattr(typicality, "_arrangement_matrix", forbidden)
    over = [row for row, w in zip(rows, want) if len(w) > 2]
    none = [row for row, w in zip(rows, want) if not w]
    for row in over:
        with pytest.raises(SearchOverflowError, match="exceed the search cap 2"):
            capped.scan_bin_filter(row, cb, 0)
    assert none and all(capped.scan_bin_filter(row, cb, 0).shape == (0, 8) for row in none)


def test_observed_cell_without_mass_is_forced_empty(rng):
    """An observed cell without mass admits no symbol: a row that holds it
    has no candidate, and rows that do not agree with brute force."""
    pmf = np.array([[0.5, 0.0], [0.25, 0.25], [0.0, 0.0]])
    params = TypicalityParams(epsilon=0.6, n=6)
    eng = CandidateEngine(pmf, params)
    assert _admitted_symbols(eng) == [1, 2, 0]
    rows = _rows_of(rng, [[3, 3, 0], [2, 3, 1], [4, 2, 0], [3, 2, 1]], (3,))
    cb = make_codebook(MODE_HASH, 6, 2, 0.3, 0.0, seed=2, purpose="Z")
    want = _check_against_brute_force(eng, pmf, rows, [cb])
    assert [bool(w) for w in want] == [True, False, True, False]


def test_forced_engine_builds_no_arrangement_table(rng, monkeypatch):
    """On xor's XYZ marginal z is forced in every (x, y) cell: survivors of
    different class sizes build no arrangement table, a typical row is its
    own single candidate, x xor y, and with a search cap of 0 it still
    counts one candidate and overflows. Each of 40 rows, scanned alone,
    holds x xor y in its bin when typical and nothing otherwise, and
    overflows the zero cap exactly when typical; scan_pair reads a forced
    stage 2 without these scans (the no-class-machinery spy is
    test_forced_stage2_pair_decode_lists_no_helper)."""
    pmf = xor_triple().marginal("XYZ")
    params = TypicalityParams(epsilon=0.5, n=8)
    eng = CandidateEngine(pmf, params)
    capped = CandidateEngine(pmf, params, cap=0)

    def forbidden(*args):
        raise AssertionError("arrangement table built for forced classes")

    monkeypatch.setattr(typicality, "_arrangement_matrix", forbidden)
    x, y = rng.integers(0, 2, size=(2, 40, 8))
    sizes = {tuple(joint_counts((a, b), (2, 2)).ravel()) for a, b in zip(x, y)}
    typical = [bool(is_strongly_typical((a, b, a ^ b), pmf, params)) for a, b in zip(x, y)]
    assert len(sizes) > 10 and 0 < sum(typical) < len(typical)
    codes, counts = eng.candidate_indices((x, y))
    assert counts.tolist() == [int(t) for t in typical]
    assert codes.tolist() == [sequence_code(a ^ b, 2) for a, b, t in zip(x, y, typical) if t]
    order = sorted(range(40), key=lambda r: not typical[r])
    picked = order[:3] + order[-3:]
    rows = [(x[r], y[r]) for r in picked]
    want = [brute_force_in_candidate_order(pmf, params, row) for row in rows]
    assert [len(w) for w in want] == [1, 1, 1, 0, 0, 0]
    codebooks = [make_codebook(mode, 8, 2, 0.25, 0.0, seed=5, purpose="Z")
                 for mode in (MODE_HASH, MODE_TABLE)]
    _check_scans(eng, rows, codebooks, want)
    for cb in codebooks:
        r = typical.index(True)
        with pytest.raises(SearchOverflowError, match="1 candidates exceed the search cap 0"):
            capped.scan_bin_filter((x[r], y[r]), cb, 0)
        r = typical.index(False)
        assert capped.scan_bin_filter((x[r], y[r]), cb, 0).shape == (0, 8)
    for cb in codebooks:
        hits = []
        for target in range(cb.num_bins):
            for a, b, t in zip(x, y, typical):
                hit = bool(t and cb.bin_index(a ^ b) == target)
                hits.append(hit)
                assert eng.scan_bin_filter((a, b), cb, target).tolist() == [(a ^ b).tolist()] * hit
                if t:
                    with pytest.raises(SearchOverflowError):
                        capped.scan_bin_filter((a, b), cb, target)
                else:
                    assert capped.scan_bin_filter((a, b), cb, target).shape == (0, 8)
        assert hits.count(True) == sum(typical)


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


def test_sequence_codes_past_int64_are_refused():
    """8**21 = 2**63 sequence codes would overflow the int64 codes."""
    eng = CandidateEngine(np.full(8, 1 / 8), TypicalityParams(epsilon=0.5, n=21))
    with pytest.raises(CapacityError, match="8\\*\\*21 sequence codes overflow"):
        eng.candidate_indices(())


def test_row_batched_candidate_indices_match_one_row_calls(rng):
    """Observed sequences with a leading row axis give every row's
    candidates, in that row's candidate order, as the call on that row
    alone (no row axis, one row) does, and as the sequence codes of
    listed_candidates' list of that row's candidates: rows sampled from the
    pmf, uniform rows and constant rows, on random pmfs with zero atoms and
    one or two observed axes. Rows with candidates, rows whose absent cell
    must occur and rows whose windows admit nothing all appear.
    """
    kinds = {"some": 0, "none": 0, "must_occur": 0}
    for trial in range(30):
        shape = tuple(int(s) for s in rng.integers(2, 4, size=1 + trial % 2)) + (
            int(rng.integers(2, 4)),)
        # a concentrated pmf gives sampled rows candidates more often
        pmf = (concentrated_pmf(rng, shape) if trial % 3 == 0
               else random_pmf(rng, shape, zero_frac=0.3))
        n = int(rng.integers(3, 8))
        params = TypicalityParams(float(rng.uniform(0.3, 0.9)), n)
        eng = CandidateEngine(pmf, params)
        sampled = np.unravel_index(rng.choice(pmf.size, size=(6, n), p=pmf.ravel()),
                                   shape)[:-1]
        observed = tuple(np.concatenate([s, rng.integers(0, size, size=(3, n)),
                                         np.zeros((1, n), dtype=np.int64)])
                         for s, size in zip(sampled, shape))
        codes, counts = eng.candidate_indices(observed)
        assert len(counts) == 10 and counts.sum() == len(codes)
        must_occur = np.flatnonzero(eng.lo.max(axis=1) > 0)
        for r, start in enumerate((np.cumsum(counts) - counts).tolist()):
            row = tuple(o[r] for o in observed)
            want, count = eng.candidate_indices(row)
            assert count.tolist() == [len(want)]
            assert np.array_equal(codes[start:start + counts[r]], want)
            listed = listed_candidates(row, pmf, params)
            assert want.tolist() == [sequence_code(c, shape[-1]) for c in listed]
            if len(want):
                kinds["some"] += 1
            elif np.any(joint_counts(row, shape[:-1]).ravel()[must_occur] == 0):
                kinds["must_occur"] += 1
            else:
                kinds["none"] += 1
    assert min(kinds.values()) > 0, kinds


def test_row_batched_candidate_indices_over_the_search_cap():
    """A row over the search cap raises what the one-row call raises, even
    among rows without candidates."""
    eng = CandidateEngine(np.full((2, 2), 0.25), TypicalityParams(epsilon=0.9, n=12),
                          cap=10)
    balanced = np.arange(12) % 2
    rows = np.stack([np.zeros(12, dtype=np.int64), balanced, np.ones(12, dtype=np.int64)])
    with pytest.raises(SearchOverflowError) as one:
        eng.candidate_indices((balanced,))
    with pytest.raises(SearchOverflowError) as batch:
        eng.candidate_indices((rows,))
    assert str(batch.value) == str(one.value)
    codes, counts = eng.candidate_indices((rows[[0, 2]],))
    assert len(codes) == 0 and counts.tolist() == [0, 0]


def test_candidate_indices_refuse_a_summed_count_over_the_search_cap(monkeypatch):
    """Rows each within the search cap whose counts add up past it are
    refused before any code is formed."""
    eng = CandidateEngine(np.full((2, 2), 0.25), TypicalityParams(epsilon=0.9, n=8),
                          cap=200)
    rows = np.tile(np.arange(8) % 2, (5, 1))
    assert eng.candidate_indices((rows[:1],))[1].tolist() == [196]

    def forbidden(*args, **kwargs):
        raise AssertionError("codes formed past the search cap")

    monkeypatch.setattr(typicality, "_group_sums", forbidden)
    with pytest.raises(CapacityError, match="980 candidate codes .* search cap 200"):
        eng.candidate_indices((rows,))
