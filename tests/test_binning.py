import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skpk.binning import (MODE_HASH, MODE_TABLE, make_codebook,
                          num_bins_for_rate, stream_tag)
from skpk.errors import CapacityError, UsageError


def test_num_bins_for_rate():
    assert num_bins_for_rate(10, 0.0) == 1
    assert num_bins_for_rate(4, 2.0) == 256
    assert num_bins_for_rate(10, 0.35) == round(2 ** 3.5)
    with pytest.raises(UsageError):
        num_bins_for_rate(4, -0.1)
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
    idx = np.array([cb.sequence_index(s) for s in seqs])
    bins = cb.bins_of_indices(idx)
    subs = cb.sub_bins_of_indices(idx)
    for k, s in enumerate(seqs):
        assert int(bins[k]) == cb.bin_index(s)
        assert int(subs[k]) == cb.sub_bin_index(s)


def test_hash_mode_rejects_table_lookup():
    cb = make_codebook(MODE_HASH, 4, 2, 1.0, 0.0, seed=9, purpose="Z")
    with pytest.raises(UsageError):
        cb.bins_of_indices(np.arange(4))


def test_table_capacity_guard():
    with pytest.raises(CapacityError):
        make_codebook(MODE_TABLE, 30, 3, 0.5, 0.0, seed=0, purpose="Z")


def test_sequence_validation():
    cb = make_codebook(MODE_HASH, 4, 2, 1.0, 0.0, seed=0, purpose="Z")
    with pytest.raises(UsageError):
        cb.bin_index(np.array([0, 1, 2, 0]))
    with pytest.raises(UsageError):
        cb.bin_index(np.array([0, 1]))


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
        assert cb.sequence_index(seq) == int(acc)
