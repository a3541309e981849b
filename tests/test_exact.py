import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skpk
from conftest import mirrored_noisy_copy
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import CapacityError, UsageError
from skpk.exact import (ExactEvaluator, _draw_member_codebooks, _Enumeration, lemma1_check,
                        oracle_codebooks, oracle_secrecy)
from skpk.protocol import STATUS_OK, RunContext, SchemeConfig
from skpk.sources import (JointDistribution, identical_bits, noisy_copy_triple,
                          sequence_code, xor_triple)


def _config(scheme, dist, n, seed=7, eps=0.9, delta=0.01, **kw):
    return SchemeConfig(scheme=scheme, dist=dist, n=n, epsilon=eps, delta=delta,
                        master_seed=seed, codebook_mode=MODE_TABLE, **kw)


def test_requires_table_codebooks():
    cfg = SchemeConfig(scheme="PointP", dist=xor_triple(), n=4, epsilon=0.9,
                       delta=0.01, master_seed=1, codebook_mode=MODE_HASH)
    with pytest.raises(UsageError):
        ExactEvaluator(cfg)


def test_point_e_z_index_is_the_enumerations_z_code():
    """PointE's verbatim announcement, the sequence code and the exact
    enumeration's code of Z^n are one number.
    """
    dist = noisy_copy_triple(0.2, 0.3)
    ctx = RunContext(SchemeConfig(scheme="PointE", dist=dist, n=5, epsilon=0.5,
                                  delta=0.02, master_seed=7))
    enum = _Enumeration(dist, 5, 2 ** 20)
    atoms = sorted(dist.support_atoms())
    for i in range(10):
        run = ctx.run(i)
        (z_index,) = [m.value for m in run.transcript.messages if m.label == "z-index"]
        t = run.triple
        assert z_index == sequence_code(t.z_seq, 2)
        # the triple's element: its atoms, first position slowest
        el = 0
        for atom in zip(t.x_seq.tolist(), t.y_seq.tolist(), t.z_seq.tolist()):
            el = el * len(atoms) + atoms.index(atom)
        assert int(enum.idx["z"][el]) == z_index


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


@pytest.mark.parametrize("override", [False, True])
def test_oracle_agrees_with_evaluator_in_orientation_y(override):
    """PointP with Y as the middle terminal: the oracle reads Y's codebook and
    coordinate itself, while the evaluator relabels. The override r_s = r_p =
    0.4 makes both keys nontrivial, which the derived rates do not.
    """
    dist = mirrored_noisy_copy(0.25, 0.0)
    cfg = _config("PointP", dist, n=5, eps=0.25, delta=0.02)
    if override:
        rates = dataclasses.replace(RunContext(cfg).rates, r_s=0.4, r_p=0.4)
        cfg = dataclasses.replace(cfg, rates=rates)
    evaluator = ExactEvaluator(cfg)
    assert evaluator.ctx.swapped
    result = evaluator.evaluate(3)
    assert result.ks_size > 1 and (result.kp_size > 1) == override
    for k, stats in enumerate(result.per_codebook):
        ref = oracle_secrecy(cfg, oracle_codebooks(cfg, k))
        assert stats.leak_kp == pytest.approx(ref["leak_kp"], abs=1e-12)
        assert stats.h_kp == pytest.approx(ref["h_kp"], abs=1e-12)
        assert stats.leak_ks == pytest.approx(ref["leak_ks"], abs=1e-12)
        assert stats.h_ks == pytest.approx(ref["h_ks"], abs=1e-12)
    # leakages far from 0, so the agreement is not between two zeros
    assert min(s.leak_ks for s in result.per_codebook) > 0.1
    if override:
        assert min(s.leak_kp for s in result.per_codebook) > 0.1


def test_constant_key_leaks_nothing():
    # the xor source admits no secret key at this corner, so the sub-bin
    # count is 1 and the leakage must be exactly zero
    cfg = _config("PointP", xor_triple(), n=4)
    result = ExactEvaluator(cfg).evaluate(3)
    assert result.ks_size == 1
    for stats in result.per_codebook:
        assert stats.leak_ks == 0.0
        assert stats.h_ks == 0.0


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


def test_oracle_never_looks_up_zero_probability_symbols():
    # xor on x, y in {0, 1}; the third x symbol has probability zero
    pmf = np.zeros((3, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        pmf[x, y, x ^ y] = 0.25
    dist = JointDistribution(pmf.shape, pmf)
    cfg = _config("PointP", dist, n=3)
    plain = oracle_secrecy(cfg, oracle_codebooks(cfg, 0))
    cbs = oracle_codebooks(cfg, 0)
    calls = _record_lookups(cbs)
    assert oracle_secrecy(cfg, cbs) == plain
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
        theirs = _draw_member_codebooks(evaluator.ctx, k)
        assert list(ours) == list(theirs)
        for terminal, cb in ours.items():
            ref = theirs[terminal]
            codes = np.arange(cb.alphabet_size ** cb.n)
            assert (cb.num_bins, cb.num_sub_bins) == (ref.num_bins, ref.num_sub_bins)
            assert np.array_equal(cb.bins_of_indices(codes), ref.bins_of_indices(codes))
            assert np.array_equal(cb.sub_bins_of_indices(codes),
                                  ref.sub_bins_of_indices(codes))


@pytest.mark.parametrize("scheme,dist,n,eps,trials,orientation,kw", [
    ("PointP", xor_triple(), 4, 0.9, 10000, "X", {}),
    ("PointT", xor_triple(), 6, 0.5, 5000, "X", {}),
    ("PointQ", xor_triple(), 5, 0.9, 5000, "X", {}),
    ("PointE", xor_triple(), 6, 0.5, 5000, "X", {}),
    ("PointP", mirrored_noisy_copy(0.25, 0.0), 6, 0.5, 5000, "Y", {}),
    ("TimeShare", xor_triple(), 12, 0.5, 5000, None,
     {"ts_schemes": ("PointE", "PointT"), "ts_lambda": 0.5}),
], ids=["PointP-xor", "PointT-xor", "PointQ-xor", "PointE-xor", "PointP-mirrored",
        "TimeShare-xor"])
def test_exact_matches_monte_carlo(scheme, dist, n, eps, trials, orientation, kw):
    """Exact masses against sampled frequencies on the same codebooks: key
    agreement, and each decoding terminal's OK rate. For time sharing this
    checks the sampled combination of the parts against the exact one.
    """
    cfg = _config(scheme, dist, n=n, seed=3, eps=eps, **kw)
    exact = ExactEvaluator(cfg).evaluate_native()
    ctx = RunContext(cfg)
    assert (ctx.scheme, ctx.redirected) == (scheme, False)
    # a time-shared context has no rates of its own
    assert getattr(ctx.rates, "orientation", None) == orientation
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


def test_time_share_lone_part_passes_members_through():
    """With no symbols for the first part, every member of the time-shared
    evaluation is the second part's member, unchanged.
    """
    cfg = _config("TimeShare", xor_triple(), n=6, eps=0.5, delta=0.05,
                  ts_schemes=("PointE", "PointT"), ts_lambda=0.0)
    evaluator = ExactEvaluator(cfg)
    assert evaluator.parts[0] is None
    lone = ExactEvaluator(evaluator.ctx.parts[1].config)
    result, ref = evaluator.evaluate(3), lone.evaluate(3)
    assert (result.scheme, result.n) == ("TimeShare", 6)
    assert (result.ks_size, result.kp_size) == (ref.ks_size, ref.kp_size)
    for k, (ours, theirs) in enumerate(zip(result.per_codebook, ref.per_codebook)):
        assert ours == theirs, k
    assert result.mean == ref.mean
    assert evaluator.evaluate_native() == lone.evaluate_native()


# a time-shared result printed whole; key order must not follow string hashes
_REPR_SCRIPT = """
from skpk.binning import MODE_TABLE
from skpk.exact import ExactEvaluator
from skpk.protocol import RunContext, SchemeConfig
from skpk.sources import xor_triple
cfg = SchemeConfig(scheme="TimeShare", dist=xor_triple(), n=8, epsilon=0.5,
                   delta=0.02, master_seed=5, codebook_mode=MODE_TABLE,
                   ts_schemes=("PointP", "PointQ"), ts_lambda=0.5)
run = RunContext(cfg).run(0)
print(repr(ExactEvaluator(cfg).evaluate(1)))
print(repr((run.outcome, run.recovered, run.transcript)))
"""


def test_time_share_results_ignore_hash_seed():
    src = str(Path(skpk.__file__).resolve().parents[1])
    printed = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _REPR_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        printed.append(done.stdout)
    assert printed[0] == printed[1]


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


def test_wide_key_laws_match_the_oracle():
    """Key laws whose joint code spans 2**62 or more go through the stacked
    np.unique branch of _law_entropy: PointQ with 2**21 bins per codebook
    makes the K_P law (sub-bin, three bins, Z^n) span about 2**67 codes.
    """
    base = RunContext(_config("PointQ", xor_triple(), n=3)).rates
    rates = dataclasses.replace(base, r_z=7.0, r_x=7.0, r_y=7.0, r_s=0.5, r_p=0.5)
    cfg = _config("PointQ", xor_triple(), n=3, rates=rates)
    result = ExactEvaluator(cfg).evaluate(2)
    for k, stats in enumerate(result.per_codebook):
        ref = oracle_secrecy(cfg, oracle_codebooks(cfg, k))
        for name in ("leak_ks", "leak_kp", "h_ks", "h_kp"):
            assert getattr(stats, name) == pytest.approx(ref[name], abs=1e-12), name
        assert stats.leak_kp > 0.1


def test_pair_decode_bin_width_limit():
    base = RunContext(_config("PointP", xor_triple(), n=4)).rates
    rates = dataclasses.replace(base, r_x=8.0, r_z=9.0)   # 32 + 36 bits
    cfg = _config("PointP", xor_triple(), n=4, rates=rates)
    with pytest.raises(CapacityError, match="64 bits"):
        ExactEvaluator(cfg).evaluate(1)
