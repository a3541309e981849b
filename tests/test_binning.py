import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skpk.binning import (MODE_HASH, MODE_TABLE, BinningCodebook, make_codebook,
                          num_bins_for_rate, stream_tag)
from skpk.errors import CapacityError, UsageError
from skpk.sources import sequence_code


def test_num_bins_for_rate():
    assert num_bins_for_rate(10, 0.0) == 1
    assert num_bins_for_rate(4, 2.0) == 256
    assert num_bins_for_rate(10, 0.35) == round(2 ** 3.5)
    for bad in (-0.1, float("nan")):
        with pytest.raises(UsageError):
            num_bins_for_rate(4, bad)
    with pytest.raises(CapacityError):
        num_bins_for_rate(64, 1.0)


def test_stream_tag_is_stable():
    assert stream_tag("bin-Z") == stream_tag("bin-Z")
    assert stream_tag("bin-Z") != stream_tag("sub-Z")
    assert 0 <= stream_tag("anything") < 2 ** 64


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_codebook_determinism(mode):
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 3, size=8) for _ in range(20)]
    a = make_codebook(mode, 8, 3, 0.8, 0.4, seed=77, purpose="Z")
    b = make_codebook(mode, 8, 3, 0.8, 0.4, seed=77, purpose="Z")
    c = make_codebook(mode, 8, 3, 0.8, 0.4, seed=78, purpose="Z")
    for s in seqs:
        assert a.bin_index(s) == b.bin_index(s)
        assert a.sub_bin_index(s) == b.sub_bin_index(s)
    assert any(a.bin_index(s) != c.bin_index(s) for s in seqs)


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_bins_in_range(mode):
    cb = make_codebook(mode, 6, 2, 1.0, 0.5, seed=3, purpose="X")
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.integers(0, 2, size=6)
        assert 0 <= cb.bin_index(s) < cb.num_bins
        assert 0 <= cb.sub_bin_index(s) < cb.num_sub_bins


def test_purpose_separates_streams():
    a = make_codebook(MODE_HASH, 8, 2, 1.0, 0.0, seed=5, purpose="Z")
    b = make_codebook(MODE_HASH, 8, 2, 1.0, 0.0, seed=5, purpose="X")
    rng = np.random.default_rng(2)
    seqs = [rng.integers(0, 2, size=8) for _ in range(30)]
    assert any(a.bin_index(s) != b.bin_index(s) for s in seqs)


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_contribution_fold_matches_direct(mode):
    """The vectorized accumulate-and-finalize route must agree with the plain
    per-sequence index everywhere, for bins and sub-bins.
    """
    cb = make_codebook(mode, 5, 3, 0.9, 0.45, seed=11, purpose="Y")
    rng = np.random.default_rng(3)
    contrib = cb.contribution_table()
    contrib_sub = cb.sub_contribution_table()
    for _ in range(40):
        s = rng.integers(0, 3, size=5)
        acc = contrib[np.arange(5), s].sum(dtype=np.uint64)
        assert int(cb.finalize_bins(np.array([acc]))[0]) == cb.bin_index(s)
        acc2 = contrib_sub[np.arange(5), s].sum(dtype=np.uint64)
        assert int(cb.finalize_sub_bins(np.array([acc2]))[0]) == cb.sub_bin_index(s)


def test_table_index_lookup():
    cb = make_codebook(MODE_TABLE, 4, 2, 1.0, 0.5, seed=9, purpose="Z")
    rng = np.random.default_rng(4)
    seqs = rng.integers(0, 2, size=(10, 4))
    idx = np.array([sequence_code(s, 2) for s in seqs])
    bins = cb.bins_of_indices(idx)
    subs = cb.sub_bins_of_indices(idx)
    for k, s in enumerate(seqs):
        assert int(bins[k]) == cb.bin_index(s)
        assert int(subs[k]) == cb.sub_bin_index(s)


def test_hash_mode_rejects_table_lookup():
    cb = make_codebook(MODE_HASH, 4, 2, 1.0, 0.0, seed=9, purpose="Z")
    with pytest.raises(UsageError):
        cb.bins_of_indices(np.arange(4))
    with pytest.raises(UsageError, match="sub_bins_of_indices requires"):
        cb.sub_bins_of_indices(np.arange(4))


@pytest.mark.parametrize("mode,n,message", [
    ("bogus", 4, "unknown codebook mode 'bogus'"),
    (MODE_HASH, 0, "n must be >= 1, got 0"),
    (MODE_TABLE, 0, "n must be >= 1, got 0")])
def test_codebook_refuses_bad_shapes(mode, n, message):
    with pytest.raises(UsageError, match=message):
        BinningCodebook(mode, n, 2, 1.0, 0.0, seed=1)


@pytest.mark.parametrize("kw,message", [
    ({"n": 4.9}, "n must be integers"), ({"n": True}, "n must be integers"),
    ({"alphabet_size": 2.0}, "alphabet_size must be integers"),
    ({"bin_rate": "0.5"}, "bin_rate must be a finite number >= 0"),
    ({"sub_rate": -0.25}, "sub_rate must be a finite number >= 0"),
    ({"seed": 1.7}, "seed must be integers"), ({"seed": -3}, "seed must be >= 0, got -3")],
    ids=["n=4.9", "n=True", "alphabet_size=2.0", "bin_rate='0.5'", "sub_rate=-0.25", "seed=1.7",
         "seed=-3"])
@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_codebook_refuses_settings_it_would_truncate(mode, kw, message):
    """n=4.9 with seed 1.7 once built the n = 4 codebook of seed 1, n=True
    the n = 1 codebook, and seed -3 raised numpy's bare ValueError; a
    string rate was read as a number.
    """
    args = {"n": 4, "alphabet_size": 2, "bin_rate": 0.5, "sub_rate": 0.25, "seed": 1, **kw}
    with pytest.raises(UsageError, match=message):
        BinningCodebook(mode, purpose="Z", **args)


def test_table_capacity_guard():
    with pytest.raises(CapacityError):
        make_codebook(MODE_TABLE, 30, 3, 0.5, 0.0, seed=0, purpose="Z")


def _checked_by_arrays(seq, n, q) -> bool:
    """Whether seq passes the lookups' checks done on a numpy array: integer
    dtype, shape (n,), every symbol in range(q).
    """
    seq = np.asarray(seq)
    return (seq.dtype.kind in "biu" and seq.shape == (n,)
            and not (seq.min() < 0 or seq.max() >= q))


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_sequence_validation(mode):
    """Both lookups refuse a negative symbol, a uint64 symbol of 2**63 or
    more, a symbol equal to the alphabet size and a wrong length; a tuple,
    a list and uint8 symbols read the same bin as an int64 array. Over
    these and other inputs they refuse exactly what array checks refuse.
    """
    cb = make_codebook(mode, 4, 3, 1.0, 0.5, seed=0, purpose="Z")
    refused = {
        "outside the alphabet": [
            np.array([0, -1, 2, 0]), [0, 1, 2, -1], np.array([1, 0, 0, -1], dtype=np.int8),
            np.array([0, 2 ** 63, 1, 0], dtype=np.uint64),
            np.array([2, 1, 0, 2 ** 64 - 1], dtype=np.uint64), np.array([0, 1, 3, 0]),
            (3, 0, 0, 0)],
        "does not match n=4": [np.array([0, 1]), [0, 1, 2, 0, 1], np.zeros((1, 4), dtype=int),
                               np.int64(2)],
        # numpy reads these as floats or objects
        "symbols must be integers": [[0, 1, 2 ** 64, 0], [0, 1, 2 ** 63, 0], []]}
    seq = np.array([2, 1, 0, 2])
    for lookup in (cb.bin_index, cb.sub_bin_index):
        for message, seqs in refused.items():
            for bad in seqs:
                assert not _checked_by_arrays(bad, 4, 3)
                with pytest.raises(UsageError, match=message):
                    lookup(bad)
        want = lookup(seq)
        for same in (tuple(seq.tolist()), seq.tolist(), seq.astype(np.uint8),
                     seq.astype(np.uint64), [np.int16(s) for s in seq]):
            assert _checked_by_arrays(same, 4, 3)
            assert lookup(same) == want
        assert lookup([True, False, True, True]) == lookup([1, 0, 1, 1])


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
@pytest.mark.parametrize("seq", [
    [0.5, 1.2, 0, 1], np.array([0.0, 1.0, 0.0, 1.0]), np.array([0, 1, 0, 1], dtype=complex),
    np.array([0, 1, 0, 1], dtype=object)], ids=["floats", "whole-floats", "complex", "object"])
def test_sequences_of_non_integers_are_refused(mode, seq):
    """A float symbol is refused, not truncated: [0.5, 1.2, 0, 1] once read
    as [0, 1, 0, 1], whose bin it returned. Whole floats are refused too,
    by their type alone.
    """
    cb = make_codebook(mode, 4, 2, 1.0, 0.5, seed=0, purpose="Z")
    for lookup in (cb.bin_index, cb.sub_bin_index):
        with pytest.raises(UsageError, match="symbols must be integers"):
            lookup(seq)
    assert cb.bin_index(np.array([0, 1, 0, 1], dtype=np.uint8)) == cb.bin_index([0, 1, 0, 1])


@pytest.mark.parametrize("codes", [
    np.array([1.7, 3.2]), np.array([1.0, 3.0]), np.array([1, 3], dtype=complex),
    np.array([1, 3], dtype=object), np.array([False, True, False, True])],
    ids=["floats", "whole-floats", "complex", "object", "bool-mask"])
def test_codes_of_non_integers_are_refused(codes):
    """bins_of_indices(np.array([1.7, 3.2])) once read codes 1 and 3; an
    array that is not of integers is refused by its type, and a bool array
    is not taken for a mask.
    """
    cb = make_codebook(MODE_TABLE, 4, 2, 1.0, 0.5, seed=0, purpose="Z")
    for lookup in (cb.bins_of_indices, cb.sub_bins_of_indices):
        with pytest.raises(UsageError, match="codes must be integers"):
            lookup(codes)


@pytest.mark.parametrize("codes", [[3, -1], [16, 0], np.array([2, 16], dtype=np.uint8),
                                   np.array([2 ** 64 - 1], dtype=np.uint64)],
                         ids=["minus-one", "alphabet**n", "uint8-past-the-end", "uint64-max"])
def test_codes_out_of_range_are_refused(codes):
    """Code -1 once read the last sequence's bin, and a code of
    alphabet**n or more raised a bare IndexError; both methods refuse them.
    """
    cb = make_codebook(MODE_TABLE, 4, 2, 1.0, 0.5, seed=0, purpose="Z")
    for lookup in (cb.bins_of_indices, cb.sub_bins_of_indices):
        with pytest.raises(UsageError, match=r"codes must lie in range\(16\)"):
            lookup(codes)
        assert lookup(np.array([], dtype=np.int64)).shape == (0,)


def test_codes_of_every_integer_type_read_the_same_bins():
    cb = make_codebook(MODE_TABLE, 4, 2, 1.0, 0.5, seed=0, purpose="Z")
    codes = np.arange(16)
    for lookup in (cb.bins_of_indices, cb.sub_bins_of_indices):
        want = lookup(codes)
        for dtype in (np.uint8, np.int16, np.uint32, np.uint64):
            assert np.array_equal(lookup(codes.astype(dtype)), want)
        assert np.array_equal(lookup(list(range(16))), want)


@st.composite
def _codebooks_and_sequences(draw, mode):
    """A codebook with random shape, rates and seed, and one of its sequences.
    Table codebooks stay at most 4**8 entries; rates keep n*rate below the
    63-bit bin-count cap.
    """
    n = draw(st.integers(1, 8 if mode == MODE_TABLE else 24))
    alphabet = draw(st.integers(1, 4))
    bin_rate, sub_rate = (draw(st.floats(0.0, 62.0 / n)) for _ in range(2))
    seed = draw(st.integers(0, 2 ** 63 - 1))
    cb = make_codebook(mode, n, alphabet, bin_rate, sub_rate, seed, purpose="P")
    seq = np.array(draw(st.lists(st.integers(0, alphabet - 1), min_size=n,
                                 max_size=n)), dtype=np.int64)
    return cb, seq


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
@given(data=st.data())
def test_lookup_matches_fold_property(mode, data):
    """Any codebook, any sequence: the public lookups are in range and equal
    the contribution-table fold, and in table mode the fold is the sequence's
    integer code.
    """
    cb, seq = data.draw(_codebooks_and_sequences(mode))
    b, s = cb.bin_index(seq), cb.sub_bin_index(seq)
    assert 0 <= b < cb.num_bins
    assert 0 <= s < cb.num_sub_bins
    pos = np.arange(cb.n)
    acc = cb.contribution_table()[pos, seq].sum(dtype=np.uint64)
    acc_sub = cb.sub_contribution_table()[pos, seq].sum(dtype=np.uint64)
    assert b == int(cb.finalize_bins(np.array([acc]))[0])
    assert s == int(cb.finalize_sub_bins(np.array([acc_sub]))[0])
    if mode == MODE_TABLE:
        assert sequence_code(seq, cb.alphabet_size) == int(acc)
