import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import mirrored_noisy_copy
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import CapacityError, UsageError
from skpk.exact import (ExactEvaluator, exact_secrecy_stats, lemma1_check,
                        oracle_codebooks, oracle_secrecy)
from skpk.protocol import STATUS_OK, RunContext, SchemeConfig
from skpk.sources import JointDistribution, identical_bits, xor_triple


def _config(scheme, dist, n, seed=7, eps=0.9, delta=0.01, **kw):
    return SchemeConfig(scheme=scheme, dist=dist, n=n, epsilon=eps, delta=delta,
                        master_seed=seed, codebook_mode=MODE_TABLE, **kw)


def test_requires_table_codebooks():
    cfg = SchemeConfig(scheme="PointP", dist=xor_triple(), n=4, epsilon=0.9,
                       delta=0.01, master_seed=1, codebook_mode=MODE_HASH)
    with pytest.raises(UsageError):
        ExactEvaluator(cfg)


def test_enumeration_cap():
    cfg = _config("PointP", xor_triple(), n=12)
    with pytest.raises(CapacityError):
        ExactEvaluator(cfg, exact_cap=2 ** 10)


@pytest.mark.parametrize("scheme,n", [("PointE", 4), ("PointP", 4),
                                      ("PointT", 4), ("PointQ", 3)])
def test_oracle_agrees_with_evaluator(scheme, n):
    """Two independent computations of the same joint laws."""
    cfg = _config(scheme, xor_triple(), n=n)
    result = ExactEvaluator(cfg).evaluate(2)
    for k, stats in enumerate(result.per_codebook):
        ref = oracle_secrecy(cfg, oracle_codebooks(cfg, k))
        assert stats.leak_kp == pytest.approx(ref["leak_kp"], abs=1e-12)
        assert stats.h_kp == pytest.approx(ref["h_kp"], abs=1e-12)
        if stats.leak_ks is None:
            assert ref["leak_ks"] is None
        else:
            assert stats.leak_ks == pytest.approx(ref["leak_ks"], abs=1e-12)
            assert stats.h_ks == pytest.approx(ref["h_ks"], abs=1e-12)


def test_constant_key_leaks_nothing():
    # the xor source admits no secret key at this corner, so the sub-bin
    # count is 1 and the leakage must be exactly zero
    cfg = _config("PointP", xor_triple(), n=4)
    result = ExactEvaluator(cfg).evaluate(3)
    assert result.ks_size == 1
    for stats in result.per_codebook:
        assert stats.leak_ks == 0.0
        assert stats.h_ks == 0.0


def test_oracle_full_alphabet_option():
    cfg = _config("PointE", xor_triple(), n=3)
    cbs = oracle_codebooks(cfg, 0)
    support_only = oracle_secrecy(cfg, cbs)
    full = oracle_secrecy(cfg, cbs, full_alphabet=True)
    assert support_only["leak_kp"] == pytest.approx(full["leak_kp"], abs=1e-12)
    assert support_only["h_kp"] == pytest.approx(full["h_kp"], abs=1e-12)


def _record_lookups(codebooks) -> dict:
    """Wrap each codebook's public bin_index / sub_bin_index so every call
    logs its sequence under (terminal, method name).
    """
    calls = {}
    for terminal, cb in codebooks.items():
        for name in ("bin_index", "sub_bin_index"):
            log = calls.setdefault((terminal, name), [])
            original = getattr(cb, name)

            def wrapped(seq, _original=original, _log=log):
                _log.append(tuple(int(v) for v in seq))
                return _original(seq)

            setattr(cb, name, wrapped)
    return calls


def _expected_lookups(scheme, dist, n) -> dict:
    """Every distinct support sequence of each codebook's terminal, once."""
    atoms = dist.support_atoms()
    seqs = {t: set(itertools.product(sorted({a[axis] for a in atoms}), repeat=n))
            for t, axis in (("X", 0), ("Y", 1), ("Z", 2))}
    expected = {("X", "bin_index"): seqs["X"], ("X", "sub_bin_index"): seqs["X"]}
    if scheme != "PointE":
        expected[("Z", "bin_index")] = seqs["Z"]
        expected[("Z", "sub_bin_index")] = seqs["Z"]
    if scheme == "PointQ":
        expected[("Y", "bin_index")] = seqs["Y"]
        expected[("Y", "sub_bin_index")] = set()
    return expected


def _assert_looked_up_once(calls, expected):
    assert set(calls) == set(expected)
    for key, seqs in expected.items():
        assert len(calls[key]) == len(set(calls[key])), key
        assert set(calls[key]) == seqs, key


@pytest.mark.parametrize("scheme", ["PointP", "PointQ", "PointE"])
def test_oracle_looks_each_sequence_up_once(scheme):
    cfg = _config(scheme, xor_triple(), n=4)
    plain = oracle_secrecy(cfg, oracle_codebooks(cfg, 1))
    cbs = oracle_codebooks(cfg, 1)
    calls = _record_lookups(cbs)
    assert oracle_secrecy(cfg, cbs) == plain
    _assert_looked_up_once(calls, _expected_lookups(scheme, xor_triple(), 4))


def test_oracle_full_alphabet_skips_zero_atoms_before_lookup():
    # xor on x, y in {0, 1}; the third x symbol has probability zero
    pmf = np.zeros((3, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        pmf[x, y, x ^ y] = 0.25
    dist = JointDistribution(pmf.shape, pmf)
    cfg = _config("PointP", dist, n=3)
    support_only = oracle_secrecy(cfg, oracle_codebooks(cfg, 0))
    cbs = oracle_codebooks(cfg, 0)
    calls = _record_lookups(cbs)
    assert oracle_secrecy(cfg, cbs, full_alphabet=True) == support_only
    _assert_looked_up_once(calls, _expected_lookups("PointP", dist, 3))


def test_oracle_lookups_still_validate():
    cfg = _config("PointP", xor_triple(), n=3)
    mismatched = oracle_codebooks(_config("PointP", xor_triple(), n=4), 0)
    with pytest.raises(UsageError, match="does not match n=4"):
        oracle_secrecy(cfg, mismatched)


@pytest.mark.parametrize("scheme", ["PointP", "PointQ", "PointT", "PointE"])
def test_oracle_codebooks_match_evaluator_members(scheme):
    cfg = _config(scheme, xor_triple(), n=4)
    evaluator = ExactEvaluator(cfg)
    for k in (0, 1, 7):
        ours = oracle_codebooks(cfg, k)
        theirs = evaluator._member_codebooks(k)
        assert list(ours) == list(theirs)
        for terminal, cb in ours.items():
            ref = theirs[terminal]
            codes = np.arange(cb.alphabet_size ** cb.n)
            assert (cb.num_bins, cb.num_sub_bins) == (ref.num_bins, ref.num_sub_bins)
            assert np.array_equal(cb.bins_of_indices(codes), ref.bins_of_indices(codes))
            assert np.array_equal(cb.sub_bins_of_indices(codes),
                                  ref.sub_bins_of_indices(codes))


@pytest.mark.parametrize("scheme,dist,n,eps,trials,orientation", [
    ("PointP", xor_triple(), 4, 0.9, 10000, "X"),
    ("PointT", xor_triple(), 6, 0.5, 5000, "X"),
    ("PointQ", xor_triple(), 5, 0.9, 5000, "X"),
    ("PointE", xor_triple(), 6, 0.5, 5000, "X"),
    ("PointP", mirrored_noisy_copy(0.25, 0.0), 6, 0.5, 5000, "Y"),
], ids=["PointP-xor", "PointT-xor", "PointQ-xor", "PointE-xor", "PointP-mirrored"])
def test_exact_matches_monte_carlo(scheme, dist, n, eps, trials, orientation):
    """Exact masses against sampled frequencies on the same codebooks: key
    agreement, and each decoding terminal's OK rate.
    """
    cfg = _config(scheme, dist, n=n, seed=3, eps=eps)
    exact = ExactEvaluator(cfg).evaluate_native()
    ctx = RunContext(cfg)
    assert (ctx.scheme, ctx.redirected, ctx.rates.orientation) == (scheme, False, orientation)
    hits = {"ks": 0, "kp": 0, "X": 0, "Y": 0}
    for i in range(trials):
        out = ctx.run(i).outcome
        for name, claims in (("ks", out.ks_claims), ("kp", out.kp_claims)):
            values = list(claims.values())
            if all(v is not None for v in values) and len(set(values)) == 1:
                hits[name] += 1
        for t in ("X", "Y"):
            hits[t] += out.statuses[t] == STATUS_OK
    expected = {"ks": exact.agree_ks, "kp": exact.agree_kp,
                "X": exact.status_mass["X"]["OK"], "Y": exact.status_mass["Y"]["OK"]}
    if exact.agree_ks is None:
        assert out.ks_claims == {}
        del expected["ks"]
    for name, p in expected.items():
        sigma = math.sqrt(max(p * (1 - p), 1e-9) / trials)
        assert abs(hits[name] / trials - p) <= 3 * sigma, name


def test_status_masses_are_probabilities():
    cfg = _config("PointT", xor_triple(), n=4)
    result = ExactEvaluator(cfg).evaluate(2)
    for stats in result.per_codebook:
        for terminal, masses in stats.status_mass.items():
            total = sum(masses.values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(-1e-12 <= v <= 1 + 1e-12 for v in masses.values())
        for v in stats.recovery_error.values():
            assert -1e-12 <= v <= 1 + 1e-12


def test_evaluation_is_repeatable():
    cfg = _config("PointP", xor_triple(), n=6)
    a = ExactEvaluator(cfg).evaluate(2)
    b = ExactEvaluator(cfg).evaluate(2)
    for sa, sb in zip(a.per_codebook, b.per_codebook):
        assert sa.leak_kp == sb.leak_kp
        assert sa.agree_kp == sb.agree_kp
        assert sa.recovery_error == sb.recovery_error


def test_time_share_exact_combines_parts():
    cfg = _config("TimeShare", xor_triple(), n=8, eps=0.5, delta=0.05,
                  ts_schemes=("PointT", "PointT"), ts_lambda=0.5)
    evaluator = ExactEvaluator(cfg)
    stats = evaluator.evaluate(1).per_codebook[0]
    pa = evaluator.parts[0].evaluate(1).per_codebook[0]
    pb = evaluator.parts[1].evaluate(1).per_codebook[0]
    assert stats.leak_kp == pytest.approx((4 * pa.leak_kp + 4 * pb.leak_kp) / 8,
                                          abs=1e-12)
    assert stats.agree_kp == pytest.approx(pa.agree_kp * pb.agree_kp, abs=1e-12)
    ok = (stats.status_mass["X"]["OK"]
          == pytest.approx(pa.status_mass["X"]["OK"] * pb.status_mass["X"]["OK"],
                           abs=1e-12))
    assert ok
    err = stats.recovery_error["z_at_X"]
    combined = 1 - (1 - pa.recovery_error["z_at_X"]) * (1 - pb.recovery_error["z_at_X"])
    assert err == pytest.approx(combined, abs=1e-12)


def test_time_share_exact_identical_bits_closed_form():
    # per half-block of 4 identical bits: decoding succeeds unless the half is
    # all-same (the empty joint cell then violates its count window), so each
    # half agrees with mass 1 - 2/16 and the two halves multiply
    cfg = _config("TimeShare", identical_bits(), n=8, eps=0.5, delta=0.05,
                  ts_schemes=("PointT", "PointT"), ts_lambda=0.5)
    result = ExactEvaluator(cfg).evaluate(1)
    stats = result.per_codebook[0]
    assert stats.agree_ks == pytest.approx((7 / 8) ** 2, abs=1e-12)
    assert stats.recovery_error["z_at_X"] == pytest.approx(1 - (7 / 8) ** 2, abs=1e-12)
    assert result.ks_size == 1


def test_exact_secrecy_stats_wrapper(capsys):
    cfg = _config("PointE", xor_triple(), n=3)
    res = exact_secrecy_stats(cfg, 2, exact_cap=2 ** 25)
    assert res.num_codebooks == 2
    assert "warning" in capsys.readouterr().err


# -- sub-bin conditional entropy bound ---------------------------------------


def test_lemma_no_binning_keeps_full_entropy():
    stats = lemma1_check(np.array([0.5, 0.5]), n=6, r_s=0.0, r_z=0.0,
                         codebook_count=3, delta=0.2, seed=1)
    assert stats.num_bins == 1
    assert stats.num_sub_bins == 1
    for h in stats.per_codebook:
        assert h == pytest.approx(stats.h_z, abs=1e-12)


def test_lemma_bound_uniform_bit():
    stats = lemma1_check(np.array([0.5, 0.5]), n=10, r_s=0.35, r_z=0.35,
                         codebook_count=5, delta=0.05, seed=0)
    assert stats.bound == pytest.approx(0.35, abs=1e-12)
    assert stats.mean <= stats.bound
    assert stats.satisfied
    for h in stats.per_codebook:
        assert 0.0 <= h <= stats.h_z + 1e-12
    assert 0.0 <= stats.e1_atypical_mass <= 1.0
    assert all(0.0 <= v <= 1.0 for v in stats.e2_fractions)


def test_lemma_single_rate_specialization():
    split = lemma1_check(np.array([0.5, 0.5]), n=10, r_s=0.35, r_z=0.35,
                         codebook_count=4, delta=0.05, seed=2)
    merged = lemma1_check(np.array([0.5, 0.5]), n=10, r_s=0.0, r_z=0.7,
                          codebook_count=4, delta=0.05, seed=2)
    assert merged.num_sub_bins == 1
    assert merged.bound == pytest.approx(split.bound, abs=1e-12)
    assert merged.satisfied
    assert merged.mean <= merged.bound


def test_lemma_precondition_errors():
    with pytest.raises(UsageError) as err:
        lemma1_check(np.array([0.5, 0.5]), n=8, r_s=0.6, r_z=0.6,
                     codebook_count=2, delta=0.05, seed=0)
    assert "H(Z)" in str(err.value)
    with pytest.raises(UsageError):
        lemma1_check(np.array([0.6, 0.6]), n=8, r_s=0.1, r_z=0.1,
                     codebook_count=2, delta=0.05, seed=0)
    with pytest.raises(CapacityError):
        lemma1_check(np.full(4, 0.25), n=20, r_s=0.1, r_z=0.1,
                     codebook_count=1, delta=0.05, seed=0)


def test_pair_decode_packs_wide_bins():
    """Z bins wider than 32 bits pack next to the helper bin without loss: at
    n=4 both 2**20 and 2**36 bins give the 16 Z sequences distinct bins, so
    decoding, agreement and recovery agree exactly."""
    base = RunContext(_config("PointP", xor_triple(), n=4)).rates
    results = []
    for r_z in (5.0, 9.0):
        rates = dataclasses.replace(base, r_z=r_z)
        cfg = _config("PointP", xor_triple(), n=4, rates=rates)
        results.append(ExactEvaluator(cfg).evaluate(2))
    narrow, wide = results
    assert wide.per_codebook[0].status_mass["Y"]["OK"] > 0
    for a, b in zip(narrow.per_codebook, wide.per_codebook):
        assert a.status_mass == b.status_mass
        assert a.agree_kp == b.agree_kp
        assert a.recovery_error == b.recovery_error


def test_pair_decode_bin_width_limit():
    base = RunContext(_config("PointP", xor_triple(), n=4)).rates
    rates = dataclasses.replace(base, r_x=8.0, r_z=9.0)   # 32 + 36 bits
    cfg = _config("PointP", xor_triple(), n=4, rates=rates)
    with pytest.raises(CapacityError, match="64 bits"):
        ExactEvaluator(cfg).evaluate(1)
