import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import skpk
from conftest import mirrored_noisy_copy, random_distribution
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import CapacityError, UsageError
from skpk.exact import (_ST_AMB, _ST_NONE, _ST_OK, ExactEvaluator, _DecodeTable,
                        _draw_member_codebooks, _Enumeration, _label_rows, _match,
                        lemma1_check, oracle_codebooks, oracle_secrecy)
from skpk.harness import _trial_stats
from skpk.protocol import RunContext, SchemeConfig
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


def test_enumeration_refuses_more_triples_than_counts_sum_exactly():
    """Past 2**27 triples a class count times a 26-bit part could round, so
    the enumeration is refused before anything is allocated, whatever the
    cap: xor has 4**14 = 2**28 support triples.
    """
    with pytest.raises(CapacityError, match=r"4\*\*14 support triples exceed 2\*\*27"):
        _Enumeration(xor_triple(), 14, 2 ** 60)
    with pytest.raises(CapacityError, match=r"2\*\*27"):
        ExactEvaluator(_config("PointP", xor_triple(), n=14), exact_cap=2 ** 60)


def _digit_loop_enumeration(dist, n, axes):
    """Codes and probabilities of every support triple, one pass per digit:
    element e's atoms are its base-m digits, the first position most
    significant, and its probability their product from the first.
    """
    atoms = sorted(dist.support_atoms(), key=lambda a: [a[i] for i in axes])
    of = np.array(atoms, dtype=np.int64).T
    p_of = np.array([dist.pmf[a] for a in atoms], dtype=np.float64)
    m = len(atoms)
    codes = np.arange(m ** n, dtype=np.int64)
    idx = np.zeros((3, m ** n), dtype=np.int64)
    prob = np.ones(m ** n, dtype=np.float64)
    for t in range(n):
        d = (codes // m ** (n - 1 - t)) % m
        for v, size in enumerate(dist.alphabet_sizes):
            idx[v] = idx[v] * size + of[v][d]
        prob = prob * p_of[d]
    return idx, prob


@pytest.mark.parametrize("dist,n,axes", [
    (xor_triple(), 6, (0, 1, 2)),
    (xor_triple(), 5, (1, 0, 2)),
    (noisy_copy_triple(0.1, 0.3), 5, (0, 1, 2)),
    (noisy_copy_triple(0.1, 0.3), 4, (1, 0, 2)),
    (JointDistribution.create((1, 1, 3), np.array([0.5, 0.3, 0.2])), 7, (0, 1, 2)),
    (noisy_copy_triple(0.1, 0.3), 1, (0, 1, 2)),
], ids=["xor", "xor-y-first", "noisy", "noisy-y-first", "lemma1-marginal", "n1"])
def test_enumeration_matches_a_digit_loop_bit_for_bit(dist, n, axes):
    enum = _Enumeration(dist, n, 2 ** 24, axes)
    idx, prob = _digit_loop_enumeration(dist, n, axes)
    for v, ref, size in zip("xyz", idx, dist.alphabet_sizes):
        # the narrowest unsigned type that holds the letter's codes
        assert enum.idx[v].dtype == np.min_scalar_type(size ** n - 1)
        assert enum.idx[v].astype(np.int64).tobytes() == ref.tobytes()
    assert enum.prob.tobytes() == prob.tobytes()


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_masses_exact(evaluator, rng, monkeypatch, nums=(4, 2, 3, 2)):
    """_mass against math.fsum over each label's elements, bit for bit, for
    random labellings passed at once: uint8 ones that leave their last label
    empty, and a bool mask. No count holds more bins than there are
    elements, unless one labelling's labels times the probability classes
    do, and the labellings share one count exactly when their joint labels
    times the classes fit in that many bins. Returns the number of counts.
    """
    prob = evaluator.enum.prob
    labels = [rng.integers(0, num - 1, size=len(prob)).astype(np.uint8) for num in nums]
    labels.append(rng.random(len(prob)) < 0.5)
    nums = [*nums, 2]
    expected = [[math.fsum(prob[lab == j]) for j in range(num)]
                for lab, num in zip(labels, nums)]
    assert all(e[-1] == 0.0 for e in expected[:-1])
    counts, bincount = [], np.bincount

    def recording_bincount(*args, **kwargs):
        counts.append(bincount(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(np, "bincount", recording_bincount)
    masses = evaluator._mass(labels, nums)
    monkeypatch.undo()
    assert [_bits(m) for m in masses] == [_bits(e) for e in expected]
    classes = len(evaluator.enum.mass_classes[1])
    assert all(len(c) <= max(len(prob), max(nums) * classes) for c in counts)
    fits = math.prod(nums) * classes <= len(prob)
    assert (len(counts) == 1) == fits
    return len(counts)


# per enumeration, label counts whose joint count fits in one pass
@pytest.mark.parametrize("dist,n,classes,fitting", [
    (xor_triple(), 6, (1, 1), (4, 2, 3, 2, 2, 2)),
    (noisy_copy_triple(0.1, 0.3), 6, (140, 160), (3, 2)),
    (random_distribution(np.random.default_rng(4), (2, 2, 2)), 6, (5000, 6500), (3, 2, 2)),
], ids=["one-class", "noisy", "random"])
def test_masses_from_class_counts_are_exactly_rounded(dist, n, classes, fitting, rng,
                                                      monkeypatch):
    evaluator = ExactEvaluator(_config("PointE", dist, n=n))
    cls, parts = evaluator.enum.mass_classes
    assert classes[0] <= len(parts) <= classes[1]
    assert _assert_masses_exact(evaluator, rng, monkeypatch, fitting) == 1
    # fourteen labellings of 4 or 3 labels overflow any of the three counts
    assert _assert_masses_exact(evaluator, rng, monkeypatch, (4, 3) * 7) > 1


def test_a_labelling_wider_than_the_elements_is_counted_alone(rng, monkeypatch):
    """A random 2x2x2 pmf at n = 2 has 64 triples in more than 32 probability
    classes, so even a two-label count outnumbers the elements: each
    labelling gets a count of its own, and its masses stay exact.
    """
    dist = random_distribution(np.random.default_rng(4), (2, 2, 2))
    evaluator = ExactEvaluator(_config("PointE", dist, n=2))
    assert 2 * len(evaluator.enum.mass_classes[1]) > len(evaluator.enum.prob)
    assert _assert_masses_exact(evaluator, rng, monkeypatch, (3, 2)) == 3


def test_masses_stay_exact_where_the_low_parts_are_subnormal(rng, monkeypatch):
    """Probabilities near 1e-300 have low parts below the smallest normal
    float, and some probabilities are subnormal themselves; each class's two
    parts still sum to its probability and hold at most 26 significant bits.
    """
    evaluator = ExactEvaluator(_config("PointE", xor_triple(), n=8))
    size = len(evaluator.enum.prob)
    values = np.concatenate([rng.random(40) * 1e-300, rng.random(10) * 1e-310,
                             [5e-324, 2.0 ** -1022, 0.1, 0.5]])
    evaluator.enum.prob = rng.choice(values, size=size)
    cls, parts = evaluator.enum.mass_classes
    assert np.array_equal(parts[:, 0] + parts[:, 1], np.unique(evaluator.enum.prob))
    assert np.any((parts[:, 1] != 0) & (np.abs(parts[:, 1]) < 2.0 ** -1022))
    for part in parts.T:
        mant, _ = np.frexp(part)
        assert np.array_equal(np.ldexp(mant, 26), np.rint(np.ldexp(mant, 26)))
    _assert_masses_exact(evaluator, rng, monkeypatch)


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


def test_oracle_refuses_what_it_does_not_cover():
    share = _config("TimeShare", xor_triple(), n=4, ts_schemes=("PointT", "PointE"))
    with pytest.raises(UsageError, match="one-shot schemes only"):
        oracle_secrecy(share, {})
    keyed = dataclasses.replace(_config("PointT", xor_triple(), n=4),
                                codebook_mode=MODE_HASH)
    with pytest.raises(UsageError, match="requires ExplicitTable codebooks"):
        oracle_codebooks(keyed, 0)


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
    # neither part has a secret key
    ("TimeShare", xor_triple(), 12, 0.5, 5000, None,
     {"ts_schemes": ("PointE", "PointE"), "ts_lambda": 0.5}),
], ids=["PointP-xor", "PointT-xor", "PointQ-xor", "PointE-xor", "PointP-mirrored",
        "TimeShare-xor", "TimeShare-PointE-PointE-xor"])
def test_exact_matches_monte_carlo(scheme, dist, n, eps, trials, orientation, kw):
    """Exact masses against sampled frequencies on the same codebooks: key
    agreement, and each decoding terminal's OK rate, counted from the
    sampled members the reports average. For time sharing this checks the
    sampled combination of the parts against the exact one.
    """
    cfg = _config(scheme, dist, n=n, seed=3, eps=eps, **kw)
    exact = ExactEvaluator(cfg).member()
    ctx = RunContext(cfg)
    assert (ctx.scheme, ctx.redirected) == (scheme, False)
    # a time-shared context has no rates of its own
    assert getattr(ctx.rates, "orientation", None) == orientation
    hits = {"ks": 0, "kp": 0, "X": 0, "Y": 0}
    for i in range(trials):
        member, ks_key, _ = _trial_stats(ctx, ctx.run(i))
        hits["ks"] += member.agree_ks or 0.0
        hits["kp"] += member.agree_kp
        for t in ("X", "Y"):
            hits[t] += member.status_mass[t]["OK"]
    expected = {"ks": exact.agree_ks, "kp": exact.agree_kp,
                "X": exact.status_mass["X"]["OK"], "Y": exact.status_mass["Y"]["OK"]}
    if exact.agree_ks is None:
        assert (member.agree_ks, ks_key) == (None, None)
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


# sha256 of the repr of every member of the sweep below, in sweep order
_SWEEP_DIGEST = "a626c2e0c658e1f0a41a3e6f4413dd0f2ae1f815b7d2e9e269c3ce26929aba68"


def test_member_sweep_is_pinned():
    """Three members of every scheme, time sharing with parts of different
    private-key owners included (PointP in orientation Y beside PointE on the
    mirrored source), at n = 3..6 and three epsilons, on five sources: xor, a
    noisy copy, a random 3x2x2 pmf, a pmf with structural zeros and the
    mirrored noisy copy. Enumerations above 2**18 triples are skipped. Any
    change to a member's laws, masses or their rounding changes the digest.
    """
    sources = [xor_triple(), noisy_copy_triple(0.1, 0.3),
               random_distribution(np.random.default_rng(11), (3, 2, 2)),
               random_distribution(np.random.default_rng(12), (2, 2, 2), zero_frac=0.4),
               mirrored_noisy_copy(0.25, 0.0)]
    schemes = [("PointE", {}), ("PointT", {}), ("PointP", {}), ("PointQ", {}),
               ("TimeShare", {"ts_schemes": ("PointP", "PointE")})]
    digest, count = hashlib.sha256(), 0
    for dist in sources:
        m = len(dist.support_atoms())
        for n in (n for n in range(3, 7) if m ** n <= 2 ** 18):
            for (scheme, kw), eps in itertools.product(schemes, (0.1, 0.25, 0.5)):
                cfg = _config(scheme, dist, n=n, seed=3, eps=eps, delta=0.02, **kw)
                for member in ExactEvaluator(cfg).evaluate(3).per_codebook:
                    digest.update(repr(member).encode())
                    count += 1
    assert count == 855
    assert digest.hexdigest() == _SWEEP_DIGEST


def _wide_code_sources():
    """Three-atom sources with one ternary letter, x, z or (PointP in
    orientation Y) y, the others binary.
    """
    pmf = np.zeros((3, 2, 2))
    pmf[0, 0, 0], pmf[1, 0, 1], pmf[2, 1, 1] = 0.5, 0.3, 0.2
    ternary_z = np.zeros((2, 2, 3))
    ternary_z[0, 0, 0], ternary_z[1, 1, 1], ternary_z[1, 0, 2] = 0.45, 0.35, 0.2
    return [JointDistribution((3, 2, 2), pmf),
            JointDistribution((2, 2, 3), ternary_z),
            JointDistribution((2, 3, 2), np.transpose(pmf, (1, 0, 2)))]


# sha256 of the repr of every member of the sweep below, in sweep order
_WIDE_CODE_DIGEST = "327ed82a93736222a0b1d74d501cd21a1aa09fb2d008410dddf8ceb69fcfd09e"


def test_wide_code_members_are_pinned():
    """Members whose ternary letter takes 3**11 = 177,147 sequence codes,
    more than 16 bits hold, over 3**11 support triples: PointP (in
    orientation Y on the third source) and PointT, with the derived rates
    and with both keys at rate 0.3.
    """
    digest, count = hashlib.sha256(), 0
    for dist, scheme, keys in itertools.product(_wide_code_sources(), ("PointP", "PointT"),
                                                (False, True)):
        cfg = _config(scheme, dist, n=11, seed=3, eps=0.25, delta=0.02)
        if keys:
            rates = dataclasses.replace(RunContext(cfg).rates, r_s=0.3, r_p=0.3)
            cfg = dataclasses.replace(cfg, rates=rates)
        evaluator = ExactEvaluator(cfg, exact_cap=2 ** 40)
        assert len(evaluator.enum.prob) == 3 ** 11
        for member in evaluator.evaluate(4).per_codebook:
            digest.update(repr(member).encode())
            count += 1
    assert count == 48
    assert digest.hexdigest() == _WIDE_CODE_DIGEST


def test_a_member_allocates_at_most_64_bytes_per_triple():
    """A warm evaluator's member of the PointP xor ensemble at n = 8 (65,536
    triples, as the exact_ensemble benchmark runs it) holds at most 64 bytes
    per triple at its peak above what it started with: per-letter labels,
    and decode arrays over the reach elements only, in narrow types.
    """
    cfg = SchemeConfig(scheme="PointP", dist=xor_triple(), n=8, epsilon=0.25, delta=0.05,
                       master_seed=1, codebook_mode=MODE_TABLE)
    evaluator = ExactEvaluator(cfg)
    evaluator.member(0)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        evaluator.member(1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(evaluator.enum.prob) == 2 ** 16
    assert peak <= 64 * 2 ** 16


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
    assert evaluator.member() == lone.member()


# time-shared results printed whole, exact and sampled: the sampled trial
# as its member and key claims; key order must not follow string hashes
_REPR_SCRIPT = """
from skpk.binning import MODE_TABLE
from skpk.exact import ExactEvaluator
from skpk.harness import _trial_stats
from skpk.protocol import RunContext, SchemeConfig
from skpk.sources import xor_triple
cfg = SchemeConfig(scheme="TimeShare", dist=xor_triple(), n=8, epsilon=0.5,
                   delta=0.02, master_seed=5, codebook_mode=MODE_TABLE,
                   ts_schemes=("PointP", "PointQ"), ts_lambda=0.5)
ctx = RunContext(cfg)
print(repr(ExactEvaluator(cfg).evaluate(1)))
print(repr(_trial_stats(ctx, ctx.run(0))))
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
    with pytest.raises(UsageError, match="rates must be >= 0"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=-0.1, r_z=0.3,
                     codebook_count=2, delta=0.05, seed=0)
    # a negative rate is refused as such, even beside one that breaks the
    # precondition
    with pytest.raises(UsageError, match="rates must be >= 0"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=-0.1, r_z=2.0,
                     codebook_count=2, delta=0.05, seed=0)
    with pytest.raises(UsageError, match="codebook_count must be >= 1"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=0.1, r_z=0.3,
                     codebook_count=0, delta=0.05, seed=0)


@pytest.mark.parametrize("delta", [-0.5, -math.inf, math.inf, math.nan], ids=repr)
def test_lemma_refuses_bad_delta(delta):
    """delta must be finite and >= 0, as in SchemeConfig: a negative one
    loosens the precondition and the bound, and a non-finite one is not a
    JSON number. It is checked before the precondition.
    """
    with pytest.raises(UsageError, match="delta must be a finite number >= 0"):
        lemma1_check(np.array([0.5, 0.5]), n=4, r_s=0.1, r_z=0.3,
                     codebook_count=2, delta=delta, seed=0)


@pytest.mark.parametrize("kw", [
    {"n": 6.0}, {"n": True}, {"codebook_count": 2.5}, {"codebook_count": "2"},
    {"seed": 2.5}, {"seed": True},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_lemma_refuses_non_integers(kw):
    """n, codebook_count and seed must be integers: a float, a string or a
    bool is refused, not rounded (seed=2.5 once ran seed 2) or passed on to
    fail inside numpy.
    """
    args = {"n": 6, "r_s": 0.2, "r_z": 0.3, "codebook_count": 2, "delta": 0.05,
            "seed": 1, **kw}
    with pytest.raises(UsageError, match="must be integers"):
        lemma1_check(np.array([0.5, 0.5]), **args)


@pytest.mark.parametrize("count,message", [
    (2.5, "must be integers"), (True, "must be integers"), ("2", "must be integers"),
    (0, "needs at least one codebook")], ids=["2.5", "True", "2", "0"])
def test_evaluate_refuses_non_integer_codebook_count(count, message):
    evaluator = ExactEvaluator(_config("PointT", xor_triple(), n=4))
    with pytest.raises(UsageError, match=message):
        evaluator.evaluate(count)


def test_pair_decode_packs_wide_bins():
    """Z bins wider than 32 bits pack next to the helper bin without loss: at
    n=4 both 2**20 and 2**36 bins give the 16 Z sequences distinct bins, so
    decoding, agreement and recovery agree exactly."""
    _check_wide_bins(None)


def test_pair_decode_ranks_bins_that_fill_64_bits():
    """With 2**28 helper bins next to 2**36 Z bins the bin pair takes all 64
    bits and leaves no room for the group, so each candidate is keyed by the
    dense rank of its bin pair; it decodes as 2**20 Z bins do."""
    _check_wide_bins(7.0)


def _check_wide_bins(r_x):
    base = RunContext(_config("PointP", xor_triple(), n=4)).rates
    results = []
    for r_z in (5.0, 9.0):
        rates = dataclasses.replace(base, r_z=r_z, r_x=r_x or base.r_x)
        cfg = _config("PointP", xor_triple(), n=4, rates=rates)
        results.append(ExactEvaluator(cfg).evaluate(2))
    narrow, wide = results
    assert wide.per_codebook[0].status_mass["Y"]["OK"] > 0
    for a, b in zip(narrow.per_codebook, wide.per_codebook):
        assert a.status_mass == b.status_mass
        assert a.agree_kp == b.agree_kp
        assert a.recovery_error == b.recovery_error


@pytest.mark.parametrize("scheme,dist,n,kw", [
    ("PointE", xor_triple(), 6, {}),
    ("PointT", xor_triple(), 6, {}),
    ("PointP", xor_triple(), 6, {}),
    ("PointQ", xor_triple(), 6, {}),
    ("PointP", mirrored_noisy_copy(0.25, 0.0), 6, {}),
    ("TimeShare", xor_triple(), 8, {"ts_schemes": ("PointT", "PointQ")}),
], ids=["E", "T", "P", "Q", "P-orientation-Y", "TimeShare"])
def test_members_do_not_depend_on_earlier_members(scheme, dist, n, kw):
    """Decode tables cached across members hold no codebook state: member k
    of a fresh evaluator equals member k evaluated after members 0..k-1, and
    the native codebooks' laws do not depend on the members evaluated
    before them.
    """
    cfg = _config(scheme, dist, n=n, eps=0.5, delta=0.02, **kw)
    warm = ExactEvaluator(cfg)
    members = warm.evaluate(3).per_codebook
    assert len({repr(m) for m in members}) == 3
    assert all(m.status_mass["X"]["OK"] + m.status_mass["Y"]["OK"] > 0 for m in members)
    for k, member in enumerate(members):
        assert repr(ExactEvaluator(cfg).member(k)) == repr(member)
    assert repr(warm.member()) == repr(ExactEvaluator(cfg).member())


def _every_code_domain(self, v):
    """Every code below size**n as letter v's domain, whatever occurs."""
    return np.arange(self.size[v] ** self.n, dtype=self.idx[v].dtype), self.idx[v]


@pytest.mark.parametrize("scheme", ["PointE", "PointT", "PointP", "PointQ"])
def test_members_do_not_depend_on_the_letter_domains(scheme, monkeypatch):
    """x takes two of its four symbols over three atoms, so at n = 6 its
    4**6 codes outnumber the 3**6 elements, and its domain is the 2**6 codes
    that occur. Labelling every code instead gives the same members, bit
    for bit, and the oracle agrees with both.
    """
    pmf = np.zeros((4, 2, 2))
    pmf[0, 0, 0], pmf[3, 1, 0], pmf[3, 1, 1] = 0.4, 0.3, 0.3
    cfg = _config(scheme, JointDistribution((4, 2, 2), pmf), n=6, eps=0.5, delta=0.02)
    cfg = dataclasses.replace(cfg, rates=dataclasses.replace(RunContext(cfg).rates,
                                                             r_s=0.3, r_p=0.3))
    evaluator = ExactEvaluator(cfg)
    codes, at = evaluator.enum.domain("x")
    assert len(codes) == 2 ** 6 and len(evaluator.enum.prob) == 3 ** 6
    assert np.array_equal(codes[at], evaluator.enum.idx["x"])
    members = evaluator.evaluate(3).per_codebook
    assert any(0 < m.status_mass["Y"]["OK"] < 1 for m in members)
    for k, stats in enumerate(members):
        ref = oracle_secrecy(cfg, oracle_codebooks(cfg, k))
        for name in ("leak_ks", "leak_kp", "h_ks", "h_kp"):
            assert getattr(stats, name) == pytest.approx(ref[name], abs=1e-12), name
    monkeypatch.setattr(_Enumeration, "domain", _every_code_domain)
    every = ExactEvaluator(cfg)
    assert len(every.enum.domain("x")[0]) == 4 ** 6
    assert [repr(m) for m in every.evaluate(3).per_codebook] == [repr(m) for m in members]


def test_a_key_no_terminal_decodes_agrees_everywhere(monkeypatch):
    """A scheme in which no terminal decodes the private key's owner: the
    owner's sub-bin agrees on every element, inside the reach and out, so
    its agreement is the total mass.
    """
    point_p = skpk.protocol.SCHEME_TABLE["PointP"]
    monkeypatch.setitem(skpk.protocol.SCHEME_TABLE, "PointP",
                        dataclasses.replace(point_p, decodes=point_p.decodes[:1]))
    evaluator = ExactEvaluator(_config("PointP", xor_triple(), n=6, eps=0.5, delta=0.02))
    member = evaluator.member(0)
    assert len(evaluator._reach[0]) < len(evaluator.enum.prob)
    assert member.agree_kp == math.fsum(evaluator.enum.prob)
    assert 0 < member.agree_ks < 1
    assert set(member.recovery_error) == {"z_at_X"}


@pytest.mark.parametrize("view", [
    {"x": [None], "z": [None]},
    {"y": ["bins"], "z": [None], "x": ["bins", "subs"]},
    {"x": ["subs"], "y": ["bins"]},
    {"z": ["wide"], "x": ["wide", "bins"], "y": ["wide"]},
], ids=["two-sequences", "mixed", "tables", "wide"])
def test_view_labels_partition_the_elements_as_their_columns_do(view):
    """_labels gives two elements one label exactly when they agree on every
    column of the view, read per element: sequences themselves in any
    position of the pack, bins and sub-bins, and columns whose labels
    outnumber the elements (ranked instead of packed).
    """
    cfg = _config("PointQ", xor_triple(), n=5)
    rates = dataclasses.replace(RunContext(cfg).rates, r_s=0.4, r_p=0.4)
    evaluator = ExactEvaluator(dataclasses.replace(cfg, rates=rates))
    e, cbs = evaluator.enum, _draw_member_codebooks(evaluator.ctx, 0)
    assert cbs["X"].num_sub_bins > 1 and cbs["Y"].num_bins > 1
    cols, per_element = {}, []
    for v, names in view.items():
        codes, at = e.domain(v)
        cb = cbs[v.upper()]
        columns = {None: (None, None), "bins": (cb.bins_of_indices(codes), cb.num_bins),
                   "subs": (cb.sub_bins_of_indices(codes), cb.num_sub_bins),
                   "wide": (codes.astype(np.uint64) * 2 ** 40, 2 ** 50)}
        cols[v] = [columns[name] for name in names]
        per_element += [e.idx[v] if c is None else c[at] for c, _ in cols[v]]
    labels = evaluator._labels(cols)
    assert len(labels) == len(e.prob)
    _, expected = np.unique(np.stack(per_element, axis=1), axis=0, return_inverse=True)
    pairs = np.unique(np.stack([labels.astype(np.int64), expected.ravel()], axis=1), axis=0)
    assert len(pairs) == len(np.unique(labels)) == len(np.unique(expected))


def test_wide_key_laws_match_the_oracle():
    """Key laws whose joint code spans 2**62 or more: PointQ with 2**21
    bins per codebook makes the K_P law (sub-bin, three bins, Z^n) span
    about 2**67 codes, so _label_rows ranks each bin column before packing.
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


def _brute_force_match(table, code, query):
    status, pick = [], []
    for g, q in zip(table.group, query):
        hits = [c for c in range(len(code)) if table.cand_group[c] == g and code[c] == q]
        status.append(_ST_OK if len(hits) == 1 else _ST_NONE if not hits else _ST_AMB)
        pick.append(hits[0] if len(hits) == 1 else -1)
    return status, pick


@pytest.mark.parametrize("span", [5, 40, 2 ** 63])
def test_match_agrees_with_a_brute_force_count(span, rng):
    """Random tables whose candidates share keys (ambiguous) and leave some
    groups without candidates, matched through the dense slots (as many
    slots allowed as there are keys), the sorted pack (one fewer), and, with
    2**63 codes, the dense ranks.
    """
    num_groups, top = 12, min(span, 8) - 1
    scale = np.uint64(span // 8 if span > 8 else 1)
    cand_group = rng.integers(0, num_groups - 3, size=60).astype(np.uint8)
    code = rng.integers(0, top, size=60).astype(np.uint64) * scale
    group = rng.integers(0, num_groups, size=200).astype(np.uint8)
    query = code[rng.integers(0, len(code), size=200)]
    query[::7] = top * scale     # a code no candidate has
    table = _DecodeTable(np.arange(200), group, num_groups, cand_group, [code])
    expected = _brute_force_match(table, code, query)
    assert {_ST_OK, _ST_NONE, _ST_AMB} <= set(expected[0])
    dense = num_groups * span
    for slots in ((dense, dense - 1) if dense < 2 ** 64 else (2 ** 20,)):
        status, pick = _match(table, code, span, query, slots)
        assert status.tolist() == expected[0], slots
        assert pick.tolist() == expected[1], slots


@pytest.mark.parametrize("sizes", [
    (3, 2 ** 62 + 5, 1, 50, 7),
    (2, 1000, 4, 2 ** 63 + 7),
    (9, 9, 9, 9),
], ids=["wide-then-compact", "unique-then-wide", "compact"])
def test_row_labels_are_the_ranks_of_the_stacked_columns(sizes, rng):
    """_label_rows labels each row by its rank among the distinct rows, as
    np.unique of the stacked columns does, whether a step compacts the
    present codes, runs np.unique, or first ranks a column with more values
    than rows; unranked, the two wide columns here would take codes past
    2**63.
    """
    rows = 3000
    cols = []
    for size in sizes:
        # a wide column takes a few values spread over its whole range
        values = (rng.integers(0, size, size=6, dtype=np.uint64) if size > 2 ** 32
                  else np.arange(size, dtype=np.uint64))
        cols.append(values[rng.integers(0, len(values), size=rows)])
    labels, num = _label_rows(cols, sizes, np.zeros(rows, dtype=np.intp), 1)
    ranks, expected = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    assert num == len(ranks)
    assert np.array_equal(labels, expected.ravel())
