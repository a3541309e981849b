import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import skpk
from conftest import identical_bits, mirrored_noisy_copy, random_distribution
from skpk.binning import MODE_HASH, MODE_TABLE, BinningCodebook, make_codebook
from skpk.errors import CapacityError, UsageError
from skpk import exact
from skpk.exact import (_BITMAP_SPAN, _ST_AMB, _ST_NONE, _ST_OK, EXACT_PRODUCT_CAP,
                        CodebookExact, ExactEvaluator, _DecodeTable, _distinct, _Enumeration,
                        _label_rows, _match, _ranked, _Slots, oracle_codebooks,
                        oracle_secrecy)
from skpk.harness import MODE_EXACT, _trial_stats, run_trials
from skpk.lemma1 import lemma1_check
from skpk.protocol import STATUSES, RunContext, SchemeConfig
from skpk.sources import (JointDistribution, SourceTriple, _entropy_masses, code_digits,
                          noisy_copy_triple, sequence_code, xor_triple)
from skpk.typicality import CandidateEngine


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


def test_masses_stay_exact_where_the_low_parts_are_subnormal(rng, monkeypatch, fresh_state):
    """Probabilities near 1e-300 have low parts below the smallest normal
    float, and some probabilities are subnormal themselves; each class's two
    parts still sum to its probability and hold at most 26 significant bits.
    The test rewrites its evaluator's enumeration, so it starts from an
    empty holder, whose mass classes are not yet summed, and leaves none.
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
    with pytest.raises(UsageError, match="one-shot schemes only"):
        oracle_codebooks(share, 0)
    keyed = dataclasses.replace(_config("PointT", xor_triple(), n=4),
                                codebook_mode=MODE_HASH)
    with pytest.raises(UsageError, match="requires ExplicitTable codebooks"):
        oracle_codebooks(keyed, 0)
    # with neither an X nor a Y codebook there is no private key to read
    cfg = _config("PointT", xor_triple(), n=4)
    with pytest.raises(UsageError, match="an X or a Y codebook"):
        oracle_secrecy(cfg, {"Z": oracle_codebooks(cfg, 0)["Z"]})


@pytest.mark.parametrize("k", [1.7, True, "2", 2.9, -1])
def test_member_index_must_be_a_non_negative_integer(k):
    """A member index that is not an integer (a float, a bool, a string) is
    refused, not rounded, and so is a negative one, by the evaluator and by
    the oracle's codebooks alike.
    """
    cfg = _config("PointP", xor_triple(), n=4)
    evaluator = ExactEvaluator(cfg)
    share = ExactEvaluator(_config("TimeShare", xor_triple(), n=4,
                                   ts_schemes=("PointP", "PointE")))
    message = "must be >= 0" if k == -1 else "must be integers"
    for draw in (evaluator.member, share.member, lambda k: oracle_codebooks(cfg, k)):
        with pytest.raises(UsageError, match=message):
            draw(k)


def test_oracle_reads_the_scheme_off_its_codebooks():
    """The oracle reads which letters to look up off the codebook set it is
    handed, not off the config's scheme: PointP's codebooks give the same
    laws under a PointT or PointQ config, and PointE's under any config.
    """
    for scheme, others in (("PointP", ("PointT", "PointQ")), ("PointE", ("PointP", "PointQ"))):
        cfg = _config(scheme, xor_triple(), n=4)
        cbs = oracle_codebooks(cfg, 2)
        ref = oracle_secrecy(cfg, cbs)
        for other in others:
            assert oracle_secrecy(dataclasses.replace(cfg, scheme=other), cbs) == ref


def test_oracle_lookups_still_validate():
    cfg = _config("PointP", xor_triple(), n=3)
    mismatched = oracle_codebooks(_config("PointP", xor_triple(), n=4), 0)
    with pytest.raises(UsageError, match="does not match n=4"):
        oracle_secrecy(cfg, mismatched)


@pytest.mark.parametrize("case", ["three-letter-X", "extra-W", "not-a-codebook"])
def test_oracle_refuses_codebooks_not_its_sources(case):
    """A codebook for another alphabet once gave xor at n = 4 an h_kp of
    0.5562 and a leak_kp of -2.2e-16, an extra key was ignored, and a value
    that is not a codebook raised a bare AttributeError: each is refused
    before any lookup.
    """
    cfg = _config("PointP", xor_triple(), n=4)
    cbs = oracle_codebooks(cfg, 0)
    x = cbs["X"]
    if case == "three-letter-X":
        cbs["X"] = make_codebook(MODE_TABLE, 4, 3, x.bin_rate, x.sub_rate, x.seed, x.purpose)
        message = "X\\^n, at n=4 over 2 letters, does not match n=4 over 3 letters"
    elif case == "extra-W":
        cbs["W"] = make_codebook(MODE_TABLE, 4, 2, x.bin_rate, x.sub_rate, x.seed, "W")
        message = "keyed X, Y or Z, got 'W'"
    else:
        cbs["Z"] = {"bin_index": cbs["Z"].bin_index}
        message = "codebook Z is a dict, not a BinningCodebook"
    calls = _record_lookups({v: cb for v, cb in cbs.items() if isinstance(cb, BinningCodebook)})
    with pytest.raises(UsageError, match=message):
        oracle_secrecy(cfg, cbs)
    assert not any(calls.values())


def test_held_enumeration_changes_no_output():
    """The oracle holds the last (source, n) enumeration: outputs over calls
    that switch source and n are byte-identical to calls that each
    enumerate afresh, a repeated (source, n) is not enumerated again, and
    the held arrays are read-only.
    """
    noisy = noisy_copy_triple(0.1, 0.3)
    calls = [(_config("PointP", xor_triple(), n=4), 0), (_config("PointE", noisy, n=3), 1),
             (_config("PointQ", xor_triple(), n=4), 2), (_config("PointT", xor_triple(), n=4), 0),
             (_config("PointP", xor_triple(), n=5), 1), (_config("PointT", noisy, n=3), 2),
             (_config("PointP", noisy, n=3), 0)]
    exact._support.cache_clear()
    held = [repr(oracle_secrecy(cfg, oracle_codebooks(cfg, k))) for cfg, k in calls]
    info = exact._support.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 5, 1)
    fresh = []
    for cfg, k in calls:
        exact._support.cache_clear()
        fresh.append(repr(oracle_secrecy(cfg, oracle_codebooks(cfg, k))))
    assert held == fresh
    prob, letters = exact._support(noisy.alphabet_sizes, noisy.pmf.tobytes(), 3)
    assert exact._support.cache_info().hits == 1
    for a in (prob, *(a for letter in letters for a in letter)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_oracle_refuses_more_support_triples_than_the_cap(monkeypatch):
    """xor at n = 13 has 4**13 = 2**26 support triples, past the 2**24 cap:
    refused before the run context is built or any array allocated. The
    default evaluator, whose cap bounds the whole cube, refuses it too.
    """
    cfg = _config("PointP", xor_triple(), n=13)
    with pytest.raises(CapacityError):
        ExactEvaluator(cfg)

    def no_context(config):
        raise AssertionError("RunContext built before the cap check")

    monkeypatch.setattr(skpk.exact, "RunContext", no_context)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"4\*\*13 support triples exceed"):
            oracle_secrecy(cfg, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def _record_inits(monkeypatch, cls) -> list:
    """Every instance of cls built from here on, in order."""
    init, built = cls.__init__, []

    def record(obj, *args, **kwargs):
        built.append(obj)
        init(obj, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", record)
    return built


@pytest.mark.parametrize("scheme", ["PointP", "PointQ", "TimeShare"])
def test_engines_are_built_on_first_use(monkeypatch, fresh_state, scheme):
    """An oracle call builds no candidate engine and no run context;
    oracle_codebooks builds one context and draws only the member's set:
    no context draws its native codebooks before they are read.
    From an empty holder, ExactEvaluator.evaluate and run_trials build each
    engine key's engine once per signature, PointQ's shared key "xyz"
    included: a campaign at n = 4 and 6 after an evaluator at n = 4 builds
    only n = 6's. A time-shared exact campaign builds its context and the
    two part contexts it holds, one codebook set per part and member, and
    each part's engines once (TimeShare(PointP, PointE) at n = 8 with 2
    members: 3 contexts, 6 codebooks, 4 engines).
    """
    def refuse(*args, **kwargs):
        raise AssertionError(f"{args[0]!r} was built")

    contexts = _record_inits(monkeypatch, RunContext)
    codebooks = _record_inits(monkeypatch, BinningCodebook)
    cfg = _config("PointP" if scheme == "TimeShare" else scheme, xor_triple(), n=7)
    with monkeypatch.context() as patch:
        patch.setattr(CandidateEngine, "__init__", refuse)
        cbs = oracle_codebooks(cfg, 1)
        patch.setattr(skpk.exact, "RunContext", refuse)
        oracle_secrecy(cfg, cbs)
    assert len(contexts) == 1 and sorted(map(id, codebooks)) == sorted(map(id, cbs.values()))
    contexts.clear()
    codebooks.clear()
    built = _record_inits(monkeypatch, CandidateEngine)
    monkeypatch.setenv("SKPK_WORKERS", "1")
    if scheme == "TimeShare":
        run_trials(skpk.ExperimentConfig(
            scheme=scheme, dist=xor_triple(), n_values=(8,), trials=2, epsilon=0.9,
            delta=0.01, master_seed=7, codebook_mode=MODE_TABLE, evaluation_mode=MODE_EXACT,
            ts_schemes=("PointP", "PointE")))
        parts = contexts[1:]
        assert len(contexts) == 3 and contexts[0].parts == parts
        # counted first: reading a part's codebooks draws its native set
        drawn = len(codebooks)
        assert drawn == 2 * sum(len(p.codebooks) for p in parts) == 6
        assert len(built) == 4
        assert sorted(map(id, built)) == sorted(id(e) for p in parts for e in p.engines.values())
        return
    cfg = _config(scheme, xor_triple(), n=4)
    evaluator = ExactEvaluator(cfg)
    evaluator.evaluate(3)
    drawn = len(codebooks)    # before ctx.codebooks draws the native set
    assert contexts == [evaluator.ctx] and drawn == 3 * len(evaluator.ctx.codebooks)
    keys = {key for step in evaluator.ctx.desc.decodes for key in step.engine_keys()}
    assert len(keys) == 3 and set(evaluator.ctx.engines) == keys
    assert sorted(map(id, built)) == sorted(map(id, evaluator.ctx.engines.values()))
    built.clear()
    contexts.clear()
    run_trials(skpk.ExperimentConfig(scheme=scheme, dist=xor_triple(), n_values=(4, 6),
                                     trials=4, epsilon=0.9, delta=0.01, master_seed=7))
    assert len(built) == len(keys)
    assert contexts[0].engines is evaluator.ctx.engines
    assert sorted(map(id, built)) == sorted(map(id, contexts[1].engines.values()))


def _held_state(evaluator) -> list:
    """What an evaluator reads of its signature's held state: its context's
    engines, then its enumeration, decode tables, reach classes, slots and
    view entropies.
    """
    return [evaluator.ctx.engines, evaluator.enum, evaluator._reach, evaluator._reach_classes,
            evaluator._slots, evaluator._view_entropy]


def test_configs_differing_in_the_master_seed_share_their_state(monkeypatch, fresh_state):
    """Two evaluators whose configs differ only in master_seed read one held
    state, and so do two time-shared ones, part by part, and two run
    contexts: one set of engines, whose arrangement tables and folds the
    second context's trials on the same triples reuse without building any.
    """
    first, second = (ExactEvaluator(_config("PointP", xor_triple(), n=6, seed=s)) for s in (1, 2))
    first.member(0)
    assert all(a is b for a, b in zip(_held_state(first), _held_state(second)))
    first, second = (ExactEvaluator(_config("TimeShare", xor_triple(), n=9, seed=s,
                                            ts_schemes=("PointP", "PointT"))) for s in (1, 2))
    first.member(0)
    for one, two in zip(first.parts, second.parts):
        assert all(a is b for a, b in zip(_held_state(one), _held_state(two)))
    for scheme in ("PointP", "PointT", "PointQ"):
        one, two = (RunContext(_config(scheme, xor_triple(), n=8, eps=0.5, seed=s))
                    for s in (1, 2))
        triples = [one.run(i).triple for i in range(6)]

        def refuse(*args):
            raise AssertionError("an arrangement table was built again")

        with monkeypatch.context() as patch:
            patch.setattr(skpk.typicality, "_arrangement_matrix", refuse)
            for triple in triples:
                two.run_on_triple(triple)
        assert two.engines is one.engines


@pytest.mark.parametrize("field", ["n", "epsilon", "pmf", "scheme", "orientation", "exact_cap",
                                   "search_cap"])
def test_a_config_differing_in_one_signature_field_gets_its_own_state(
        monkeypatch, fresh_state, field):
    """An evaluator whose config differs from a held one's in one input of
    the signature builds its own enumeration, decode tables, slots and view
    entropies, and its own engines, unless only the exact cap differs, which
    no engine reads. Its member is a cold start's. The orientation is an
    orientation-Y rates override on the same pmf, and the search cap a
    patched DEFAULT_SEARCH_CAP.
    """
    base = _config("PointP", xor_triple(), n=4)
    held = ExactEvaluator(base)
    held.member(0)
    cfg, cap = base, EXACT_PRODUCT_CAP
    if field == "n":
        cfg = _config("PointP", xor_triple(), n=5)
    elif field == "epsilon":
        cfg = _config("PointP", xor_triple(), n=4, eps=0.5)
    elif field == "pmf":
        cfg = _config("PointP", noisy_copy_triple(0.1, 0.3), n=4)
    elif field == "scheme":
        cfg = _config("PointT", xor_triple(), n=4)
    elif field == "orientation":
        cfg = _with_rates(base, orientation="Y")
    elif field == "exact_cap":
        cap = 2 ** 20
    else:
        monkeypatch.setattr("skpk.protocol.DEFAULT_SEARCH_CAP", 2 ** 20)
    evaluator = ExactEvaluator(cfg, cap)
    member = repr(evaluator.member(0))
    pairs = list(zip(_held_state(held), _held_state(evaluator)))
    assert (pairs[0][0] is pairs[0][1]) == (field == "exact_cap")
    assert not any(a is b for a, b in pairs[1:])
    assert {e.cap for e in evaluator.ctx.engines.values()} == {
        2 ** 20 if field == "search_cap" else skpk.typicality.DEFAULT_SEARCH_CAP}
    fresh_state()
    assert repr(ExactEvaluator(cfg, cap).member(0)) == member


def test_held_state_gives_what_a_cold_start_gives(fresh_state):
    """Members and trials of configs A, B and A again, and of A under
    another master seed, each built on whatever state the one before left
    held or released, have the reprs of a cold start's, from an empty
    holder. B is a time share, whose two parts' states are held together.
    """
    configs = {"A": _config("PointP", xor_triple(), n=6, eps=0.5, seed=1),
               "A'": _config("PointP", xor_triple(), n=6, eps=0.5, seed=2),
               "B": _config("TimeShare", mirrored_noisy_copy(0.25, 0.0), n=9, eps=0.5,
                            ts_schemes=("PointP", "PointT"), ts_lambda=0.4)}

    def outputs(cfg):
        ctx = RunContext(cfg)
        trials = [repr(_trial_stats(ctx, ctx.run(i))) for i in range(6)]
        return trials, [repr(m) for m in ExactEvaluator(cfg).evaluate(2).per_codebook]

    cold = {}
    for name, cfg in configs.items():
        fresh_state()
        cold[name] = outputs(cfg)
    fresh_state()
    for name in ("A", "B", "A", "A'", "B", "B"):
        assert outputs(configs[name]) == cold[name], name


def test_limits_are_checked_before_held_state_is_read(monkeypatch, fresh_state):
    """A held state never lets a config past a limit: after an evaluator
    under a raised exact cap, the same config under the default cap raises
    CapacityError; with the count limit lowered below a held enumeration's
    triples, an evaluator of its signature raises; and with ARRANGE_CELL_CAP
    lowered, a context whose engines hold their arrangement tables
    overflows the guard.
    """
    cfg = _config("PointP", xor_triple(), n=9)
    ExactEvaluator(cfg, exact_cap=8 ** 9)
    with pytest.raises(CapacityError, match=r"\(2\*2\*2\)\*\*9 sequence triples exceed"):
        ExactEvaluator(cfg)
    small = _config("PointP", xor_triple(), n=4)
    ExactEvaluator(small).member(0)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_EXACT_COUNT_LIMIT", 4 ** 4 - 1)
        with pytest.raises(CapacityError, match=r"4\*\*4 support triples exceed"):
            ExactEvaluator(dataclasses.replace(small, master_seed=8))
    ctx = RunContext(small)
    # a trial whose X decode found its z among the candidates of some table
    run = next(r for r in map(ctx.run, range(20)) if r.outcome.statuses["X"] == "OK")
    monkeypatch.setattr(skpk.typicality, "ARRANGE_CELL_CAP", 1)
    again = RunContext(dataclasses.replace(small, master_seed=8))
    assert again.engines is ctx.engines
    assert again.run_on_triple(run.triple).outcome.statuses["X"] == "SearchOverflow"


def test_held_state_is_released_before_the_next_signature_is_built(monkeypatch, fresh_state):
    """Once no evaluator holds a signature's state, an evaluator of another
    signature finds its enumeration and every engine freed (dead weak
    references) before it builds its own. After a time share, an evaluator
    of one part's signature lets the other part's state go.
    """
    evaluator = ExactEvaluator(_config("PointP", xor_triple(), n=6))
    evaluator.member(0)
    refs = [weakref.ref(evaluator.enum), *map(weakref.ref, evaluator.ctx.engines.values())]
    del evaluator
    alive = []
    for cls in (_Enumeration, CandidateEngine):
        def recording(obj, *args, init=cls.__init__, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    ExactEvaluator(_config("PointP", xor_triple(), n=7)).member(0)
    assert len(alive) == 4 and set(alive) == {0}
    monkeypatch.undo()
    shared = ExactEvaluator(_config("TimeShare", xor_triple(), n=9, ts_schemes=("PointP", "PointT"),
                                    ts_lambda=4 / 9))
    shared.member(0)
    other = weakref.ref(shared.parts[1].enum)
    del shared
    ExactEvaluator(_config("PointP", xor_triple(), n=4))
    assert other() is None


def _packed(rng, size_a, size_b, rows):
    """Packed pairs of rank columns, as the oracle's _pair packs them."""
    return rng.integers(0, size_a, rows) * size_b + rng.integers(0, size_b, rows)


_RNG = np.random.default_rng(11)
RANKED_COLUMNS = {
    # (column, whether it is ranked by the bitmap)
    "dense-codes": (_RNG.integers(0, 128, 16384).astype(np.int32), True),
    "dense-pairs": (_packed(_RNG, 16, 128, 4096).astype(np.int32), True),
    "sparse-pairs": (_packed(_RNG, 300, 5000, 1000), False),
    "bins-past-2**63": (np.array([2 ** 63 + 5, 3, 2 ** 64 - 1, 3, 2 ** 63 + 5],
                                 dtype=np.uint64), False),
    "one-value": (np.full(9, 5, dtype=np.int32), True),
    "one-large-value": (np.full(3, 2 ** 40), False),
    # four values, the largest just within the span and just past it
    "at-the-span": (np.array([0, 7, 4 * _BITMAP_SPAN - 1, 7]), True),
    "past-the-span": (np.array([0, 7, 4 * _BITMAP_SPAN, 7]), False)}


@pytest.mark.parametrize("name", RANKED_COLUMNS)
def test_oracle_ranks_are_np_uniques(monkeypatch, name):
    """The oracle's ranking gives np.unique's distinct values and ranks,
    with the ranks in the narrowest unsigned type, by the bitmap where the
    values stay within _BITMAP_SPAN times the column's length and by a sort
    past it.
    """
    values, by_bitmap = RANKED_COLUMNS[name]
    want, want_ranks = np.unique(values, return_inverse=True)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(a) or unique(*a, **kw))
    distinct, ranks = _distinct(values)
    assert len(sorts) == (not by_bitmap)
    assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
    assert ranks.dtype == np.min_scalar_type(len(want) - 1)
    assert np.array_equal(ranks, want_ranks)


@pytest.mark.parametrize("scheme", ["PointP", "PointQ", "PointT", "PointE"])
def test_oracle_codebooks_match_evaluator_members(scheme):
    """oracle_codebooks(config, k) is the evaluator's k-th member: its laws
    are that member's, and each codebook has the native codebook's sender,
    role and bin and sub-bin counts, drawn as tables from another seed.
    """
    cfg = _config(scheme, xor_triple(), n=4)
    evaluator = ExactEvaluator(cfg)
    native = evaluator.ctx.codebooks
    for k in (0, 1, 7):
        ours = oracle_codebooks(cfg, k)
        assert evaluator._eval_one(ours) == evaluator.member(k)
        assert list(ours) == list(native)
        for terminal, cb in ours.items():
            ref = native[terminal]
            assert (cb.mode, cb.purpose, cb.num_bins, cb.num_sub_bins) == (
                MODE_TABLE, ref.purpose, ref.num_bins, ref.num_sub_bins)
            assert cb.seed != ref.seed


def _atoms(sizes, *atoms) -> JointDistribution:
    """Equal masses on the given atoms."""
    pmf = np.zeros(sizes)
    for atom in atoms:
        pmf[atom] = 1 / len(atoms)
    return JointDistribution(sizes, pmf)


@pytest.mark.parametrize("scheme,dist,n,eps,trials,orientation,kw,cap", [
    ("PointP", xor_triple(), 4, 0.9, 10000, "X", {}, None),
    ("PointT", xor_triple(), 6, 0.5, 5000, "X", {}, None),
    ("PointQ", xor_triple(), 5, 0.9, 5000, "X", {}, None),
    ("PointE", xor_triple(), 6, 0.5, 5000, "X", {}, None),
    ("PointP", mirrored_noisy_copy(0.25, 0.0), 6, 0.5, 5000, "Y", {}, None),
    ("TimeShare", xor_triple(), 12, 0.5, 5000, None,
     {"ts_schemes": ("PointE", "PointT"), "ts_lambda": 0.5}, None),
    # neither part has a secret key
    ("TimeShare", xor_triple(), 12, 0.5, 5000, None,
     {"ts_schemes": ("PointE", "PointE"), "ts_lambda": 0.5}, None),
    # under a raised cap, steps that observe two letters, one of an alphabet
    # that is not a power of two, whose sequence codes pack past 2**64
    ("PointE", _atoms((2, 7, 7), (0, 0, 0), (1, 6, 5)), 12, 0.25, 2000, "X", {"delta": 0.05},
     2 ** 128),
    ("PointT", _atoms((2, 7, 2), (0, 0, 0), (1, 6, 1)), 17, 0.25, 2000, "X", {"delta": 0.05},
     2 ** 128),
    # y's one sequence has code 8**21 - 1: a (y, z) code packs past 2**63
    ("PointT", _atoms((2, 8, 2), (1, 7, 1)), 21, 0.25, 2000, "X", {"delta": 0.05}, 2 ** 128),
], ids=["PointP-xor", "PointT-xor", "PointQ-xor", "PointE-xor", "PointP-mirrored",
        "TimeShare-xor", "TimeShare-PointE-PointE-xor", "PointE-wide-codes",
        "PointT-wide-codes", "PointT-codes-past-int64"])
def test_exact_matches_monte_carlo(scheme, dist, n, eps, trials, orientation, kw, cap):
    """Exact masses against sampled frequencies on the same codebooks: key
    agreement, and each decoding terminal's OK rate, counted from the
    sampled members the reports average. For time sharing this checks the
    sampled combination of the parts against the exact one.
    """
    cfg = _config(scheme, dist, n=n, seed=3, eps=eps, **kw)
    exact = ExactEvaluator(cfg, cap or EXACT_PRODUCT_CAP).member()
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


def exhaustive_member(ctx, codebooks) -> CodebookExact:
    """The decode masses of a codebook set, by the Monte Carlo decoder run on
    every support triple: each of _trial_stats's fields math.fsum'd over
    the triples, weighted by probability (None where a trial has none).
    """
    ctx = copy.copy(ctx)
    ctx.codebooks = codebooks
    dist, n = ctx.config.dist, ctx.config.n
    weighted = []
    for triple in itertools.product(dist.support_atoms(), repeat=n):
        x, y, z = (np.array(seq, dtype=np.int64) for seq in zip(*triple))
        member, _, _ = _trial_stats(ctx, ctx.run_on_triple(SourceTriple(n, x, y, z)))
        weighted.append((math.prod(float(dist.pmf[a]) for a in triple), member))

    def mass(read):
        if read(weighted[0][1]) is None:
            return None
        return math.fsum(p * read(m) for p, m in weighted)

    first = weighted[0][1]
    return CodebookExact(
        leak_ks=None, leak_kp=None, h_ks=None, h_kp=None,
        agree_ks=mass(lambda m: m.agree_ks), agree_kp=mass(lambda m: m.agree_kp),
        status_mass={t: {s: mass(lambda m: m.status_mass[t][s]) for s in STATUSES}
                     for t in first.status_mass},
        recovery_error={key: mass(lambda m: m.recovery_error[key])
                        for key in first.recovery_error})


def _exhaustive_references(cfg) -> list:
    """Requires every decode mass of cfg's native set and of member 1 to be
    the mass the Monte Carlo decoder gives when run on every support triple,
    to 1e-12: agreement, each terminal's statuses and each recovery error.
    Returns the two exhaustive members.
    """
    evaluator, ctx = ExactEvaluator(cfg), RunContext(cfg)
    refs = []
    for k, codebooks in ((None, ctx.codebooks), (1, oracle_codebooks(cfg, 1))):
        ours, ref = evaluator.member(k), exhaustive_member(ctx, codebooks)
        for name in ("agree_ks", "agree_kp"):
            got, want = getattr(ours, name), getattr(ref, name)
            assert (got is None) == (want is None), name
            assert got is None or abs(got - want) <= 1e-12, name
        assert set(ours.status_mass) == set(ref.status_mass)
        for t, masses in ref.status_mass.items():
            for status, want in masses.items():
                assert abs(ours.status_mass[t].get(status, 0.0) - want) <= 1e-12, (t, status)
        assert ours.recovery_error.keys() == ref.recovery_error.keys()
        for key, want in ref.recovery_error.items():
            assert abs(ours.recovery_error[key] - want) <= 1e-12, key
        refs.append(ref)
    return refs


@pytest.mark.parametrize("scheme,dist,n", [
    ("PointP", xor_triple(), 4), ("PointQ", xor_triple(), 4), ("PointT", xor_triple(), 5),
    ("PointE", noisy_copy_triple(0.1, 0.3), 3)], ids=["PointP", "PointQ", "PointT", "PointE"])
def test_exact_decode_masses_match_an_exhaustive_monte_carlo_run(scheme, dist, n):
    """Every decode mass of the native set and of member 1 is the mass the
    Monte Carlo decoder gives when run on every support triple, to 1e-12:
    agreement, each terminal's statuses and each recovery error.
    """
    for k, ref in enumerate(_exhaustive_references(_config(scheme, dist, n=n, seed=3, eps=0.9))):
        # on the noisy copy at n = 3 a cell of mass 0.015 has an empty count
        # window, so Y's every decode ends NoCandidate (criterion 8's cause)
        if scheme == "PointE":
            assert ref.status_mass["Y"]["NoCandidate"] == 1.0
        else:
            for t in ("X", "Y"):
                assert 0 < ref.status_mass[t]["OK"] < 1, (k, t)


# x takes three letters; its twin on two letters merges x = 2 into x = 1
_THREE_LETTER_X = _atoms((3, 2, 2), (0, 0, 0), (1, 1, 0), (2, 1, 1), (2, 0, 1))
_TWO_LETTER_X = _atoms((2, 2, 2), (0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))


@pytest.mark.parametrize("case", ["orientation-Y", "renamed", "three-letters"])
def test_exhaustive_runs_follow_their_twins(monkeypatch, case):
    """Orientation Y (PointP on mirrored_noisy_copy), a renamed() scheme
    (PointT with X and Y trading places, at swapped bin rates) and a
    3-letter alphabet (PointQ) match the exhaustive Monte Carlo run to
    1e-12, each right after its twin in the same process: orientation X,
    the scheme as listed, or two letters. Each pair differs in one part of
    the held state's signature (the pmf, or the description alone), so a
    twin's engines or decode tables serving the case would show. Every
    case has an OK mass strictly between 0 and 1.
    """
    if case == "orientation-Y":
        twin = _config("PointP", noisy_copy_triple(0.25, 0.0), n=5, seed=3)
        cfg = _config("PointP", mirrored_noisy_copy(0.25, 0.0), n=5, seed=3)
    elif case == "renamed":
        twin = _config("PointT", _TWO_LETTER_X, n=5, seed=3)
        rates = RunContext(twin).rates
        cfg = dataclasses.replace(twin, rates=dataclasses.replace(rates, r_x=rates.r_y,
                                                                  r_y=rates.r_x))
    else:
        twin = _config("PointQ", _TWO_LETTER_X, n=5, seed=3)
        cfg = _config("PointQ", _THREE_LETTER_X, n=5, seed=3)
    _exhaustive_references(twin)
    twin_signature = RunContext(twin).signature
    if case == "renamed":
        point_t = skpk.protocol.SCHEME_TABLE["PointT"]
        monkeypatch.setitem(skpk.protocol.SCHEME_TABLE, "PointT", point_t.renamed())
    ctx = RunContext(cfg)
    assert ctx.signature != twin_signature
    assert (ctx.swapped, ctx.desc.kp_owner) == {
        "orientation-Y": (True, "Y"), "renamed": (False, "Y"), "three-letters": (False, "X")}[case]
    refs = _exhaustive_references(cfg)
    assert any(0 < m["OK"] < 1 for ref in refs for m in ref.status_mass.values())


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
    with pytest.raises(UsageError, match="r_s must be a finite number >= 0"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=-0.1, r_z=0.3,
                     codebook_count=2, delta=0.05, seed=0)
    # a negative rate is refused as such, even beside one that breaks the
    # precondition
    with pytest.raises(UsageError, match="r_s must be a finite number >= 0"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=-0.1, r_z=2.0,
                     codebook_count=2, delta=0.05, seed=0)
    with pytest.raises(UsageError, match="codebook_count must be >= 1"):
        lemma1_check(np.array([0.5, 0.5]), n=6, r_s=0.1, r_z=0.3,
                     codebook_count=0, delta=0.05, seed=0)


@pytest.mark.parametrize("r_s,r_z,message", [
    ("0.1", 0.1, "r_s must be a finite number"), (0.1, True, "r_z must be a finite number")],
    ids=["r_s", "r_z"])
def test_lemma_refuses_a_rate_that_is_not_a_number(r_s, r_z, message):
    """lemma1_check([0.5, 0.5], 4, "0.1", ...) once raised a bare TypeError."""
    with pytest.raises(UsageError, match=message):
        lemma1_check([0.5, 0.5], 4, r_s, r_z, 2, 0.05, 1)


@pytest.mark.parametrize("delta", [-0.5, -math.inf, math.inf, math.nan, "0.05"], ids=repr)
def test_lemma_refuses_bad_delta(delta):
    """delta must be finite and >= 0, as in SchemeConfig: a negative one
    loosens the precondition and the bound, and a non-finite one is not a
    JSON number. It is checked before the precondition. A string is
    refused by name, not by a comparison's TypeError.
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


@pytest.mark.parametrize("cap,message", [
    ("abc", "must be integers"), (2.5, "must be integers"), (True, "must be integers"),
    (0, "exact_cap must be >= 1, got 0"), (-4, "exact_cap must be >= 1, got -4")],
    ids=["abc", "2.5", "True", "0", "-4"])
def test_evaluator_refuses_a_bad_cap(cap, message):
    with pytest.raises(UsageError, match=message):
        ExactEvaluator(_config("PointT", xor_triple(), n=4), exact_cap=cap)


def test_pair_decode_packs_wide_bins():
    """Z bins wider than 32 bits pack next to the helper bin without loss: at
    n=4 both 2**20 and 2**36 bins give the 16 Z sequences distinct bins, so
    decoding, agreement and recovery agree exactly."""
    _check_wide_bins(None)


def test_pair_decode_ranks_bins_that_fill_64_bits():
    """With 2**28 helper bins next to 2**36 Z bins the bin pair takes all 64
    bits and leaves no room for the group, so the candidates' and members'
    keys are labelled together; it decodes as 2**20 Z bins do."""
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
def test_members_do_not_depend_on_the_letter_domains(scheme, monkeypatch, fresh_state):
    """x takes two of its four symbols over three atoms, so at n = 6 its
    4**6 codes outnumber the 3**6 elements, and its domain is the 2**6 codes
    that occur. Labelling every code instead gives the same members, bit
    for bit, and the oracle agrees with both. The evaluator that labels
    every code builds its own tables, not the held ones ranked on the
    codes that occur.
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
    fresh_state()
    every = ExactEvaluator(cfg)
    assert every.enum is not evaluator.enum
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
    e, cbs = evaluator.enum, oracle_codebooks(evaluator.config, 0)
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


def _with_rates(cfg, **rates):
    return dataclasses.replace(cfg, rates=dataclasses.replace(RunContext(cfg).rates, **rates))


# sha256 of the repr of every oracle output of the sweep below, in sweep order
_ORACLE_SWEEP_DIGEST = "443d5e0d4fa0c8d93b9874c54b652f5bedbc76c8f9d771aecacd3cf42aa1fc24"


def test_oracle_sweep_is_pinned():
    """The oracle's outputs on members 0-2 of PointE, PointT, PointP and
    PointQ, with the derived rates and with both keys at rate 0.4, at
    n = 3..6 on xor, a noisy copy and a pmf with structural zeros
    (enumerations above 2**12 triples skipped); PointP in orientation Y on
    the mirrored noisy copy at n = 3..6; and PointQ on xor at n = 3 with
    2**21 and about 2**59.7 bins per codebook. Any change to a law's
    partition, its masses or their rounding changes the digest.
    """
    sources = [xor_triple(), noisy_copy_triple(0.1, 0.3),
               random_distribution(np.random.default_rng(12), (3, 2, 2), zero_frac=0.3)]
    configs = []
    for dist in sources:
        m = len(dist.support_atoms())
        for n in (n for n in range(3, 7) if m ** n <= 2 ** 12):
            for scheme, keys in itertools.product(("PointE", "PointT", "PointP", "PointQ"),
                                                  (False, True)):
                cfg = _config(scheme, dist, n=n, seed=5, eps=0.25, delta=0.02)
                configs.append(_with_rates(cfg, r_s=0.4, r_p=0.4) if keys else cfg)
    for n in range(3, 7):
        cfg = _config("PointP", mirrored_noisy_copy(0.25, 0.0), n=n, seed=5, eps=0.25,
                      delta=0.02)
        assert RunContext(cfg).swapped
        configs += [cfg, _with_rates(cfg, r_s=0.4, r_p=0.4)]
    for rate in (7.0, 19.9):
        configs.append(_with_rates(_config("PointQ", xor_triple(), n=3), r_z=rate, r_x=rate,
                                   r_y=rate, r_s=0.5, r_p=0.5))
    assert oracle_codebooks(configs[-1], 0)["X"].num_bins > 2 ** 59
    digest, count = hashlib.sha256(), 0
    for cfg in configs:
        for k in range(3):
            digest.update(repr(oracle_secrecy(cfg, oracle_codebooks(cfg, k))).encode())
            count += 1
    assert count == 222
    assert digest.hexdigest() == _ORACLE_SWEEP_DIGEST


def test_the_oracle_and_the_evaluator_read_sub_bins_apart(monkeypatch):
    """Merging two of X's sub-bins in one lookup path moves that path's
    h_kp and leaves the other's: the evaluator reads sub-bins only through
    the vectorized sub_bins_of_indices, the oracle only through the
    per-sequence sub_bin_index, so a fault in either shows as a difference.
    """
    cfg = _with_rates(_config("PointP", xor_triple(), n=4), r_p=0.5)
    cb = oracle_codebooks(cfg, 0)["X"]
    subs = cb.sub_bins_of_indices(np.arange(2 ** 4))
    # every x sequence has mass 2**-4; fold sub-bin b into sub-bin a
    a, b = np.unique(subs)[:2].tolist()
    ours = ExactEvaluator(cfg).member(0).h_kp
    ref = oracle_secrecy(cfg, oracle_codebooks(cfg, 0))["h_kp"]
    assert ours == pytest.approx(ref, abs=1e-12)

    def merged(out):
        return np.where(out == b, a, out).astype(out.dtype)

    vectorized = BinningCodebook.sub_bins_of_indices
    with monkeypatch.context() as patch:
        patch.setattr(BinningCodebook, "sub_bins_of_indices",
                      lambda self, idx: (merged(vectorized(self, idx))
                                         if self.purpose == cb.purpose else vectorized(self, idx)))
        moved = ExactEvaluator(cfg).member(0).h_kp
        assert oracle_secrecy(cfg, oracle_codebooks(cfg, 0))["h_kp"] == ref
    assert moved < ours and abs(moved - ref) > 1e-12

    cbs = oracle_codebooks(cfg, 0)
    per_sequence = cbs["X"].sub_bin_index
    cbs["X"].sub_bin_index = lambda seq: int(merged(np.uint64(per_sequence(seq))))
    moved = oracle_secrecy(cfg, cbs)["h_kp"]
    assert ExactEvaluator(cfg).member(0).h_kp == ours
    assert moved < ref and abs(moved - ours) > 1e-12


@pytest.mark.parametrize("dist", [xor_triple(), noisy_copy_triple(0.1, 0.3)],
                         ids=["xor", "noisy"])
def test_pair_decode_keys_past_64_bits(dist, monkeypatch):
    """PointP with 2**32 helper bins beside 2**36 Z bins at n = 4, and both
    keys at rate 0.4: Y's pair decode keys span 2**68 or more, so its
    candidates' and members' keys are labelled together. The key laws match
    the oracle, and Y's statuses match Monte Carlo on the same codebooks (on
    the noisy copy no sequence pair is typical at n = 4).
    """
    cfg = _with_rates(_config("PointP", dist, n=4), r_x=8.0, r_z=9.0, r_s=0.4, r_p=0.4)
    keys, match = [], exact._match

    def recording(table, cols, queries, spans, slots):
        keys.append(table.num_groups * math.prod(spans))
        return match(table, cols, queries, spans, slots)

    monkeypatch.setattr(exact, "_match", recording)
    evaluator = ExactEvaluator(cfg)
    for k in range(2):
        stats, ref = evaluator.member(k), oracle_secrecy(cfg, oracle_codebooks(cfg, k))
        for name in ("leak_ks", "leak_kp", "h_ks", "h_kp"):
            assert getattr(stats, name) == pytest.approx(ref[name], abs=1e-12), name
    assert max(keys) >= 2 ** 68
    exact_y, ctx, trials = evaluator.member().status_mass["Y"], RunContext(cfg), 2000
    hits = dict.fromkeys(exact_y, 0.0)
    for i in range(trials):
        sampled = _trial_stats(ctx, ctx.run(i))[0].status_mass["Y"]
        for name in hits:
            hits[name] += sampled[name]
    for name, p in exact_y.items():
        sigma = math.sqrt(max(p * (1 - p), 1e-9) / trials)
        assert abs(hits[name] / trials - p) <= 3 * sigma, name


def _brute_force_match(table, cols, queries):
    status, pick = [], []
    for m, g in enumerate(table.group):
        hits = [c for c in range(len(table.cand_group)) if table.cand_group[c] == g
                and all(col[c] == query[m] for col, query in zip(cols, queries))]
        status.append(_ST_OK if len(hits) == 1 else _ST_NONE if not hits else _ST_AMB)
        pick.append(hits[0] if len(hits) == 1 else -1)
    return status, pick


def _assert_match(table, cols, queries, spans, slots, expected):
    """_match's statuses and picks are the expected ones, the statuses as
    uint8, and a pick is -1 wherever its status is not OK; with at most
    slots keys matched in dense slots, which it leaves at -1, twice over
    the same slots.
    """
    dense = _Slots(slots)
    for _ in range(2):
        status, pick = _match(table, cols, queries, spans, dense)
        assert status.dtype == np.uint8, slots
        assert status.tolist() == expected[0], slots
        assert pick.tolist() == expected[1], slots
        assert (pick[status != _ST_OK] == -1).all(), slots
        assert len(dense.array) <= slots and (dense.array == -1).all(), slots


@pytest.mark.parametrize("spans", [(), (5,), (40,), (3, 7), (2 ** 20, 2 ** 30), (2 ** 63,),
                                   (2 ** 40, 2 ** 30)],
                         ids=["no-columns", "5", "40", "3x7", "2**20x2**30",
                              "9223372036854775808", "2**40x2**30"])
def test_match_agrees_with_a_brute_force_count(spans, rng):
    """Random tables keyed by their group and 0, 1 or 2 columns, whose
    candidates share keys (ambiguous) and leave some groups without
    candidates (group 0 has one), matched through the dense slots (as many
    slots allowed as there are keys), the sorted pack (one fewer, or far
    fewer past 2**16 keys), and past 2**64 keys the joint labels, then the
    dense slots or the sort; and a table without candidates.
    """
    num_groups = 12
    cand_group = rng.integers(1, num_groups - 3, size=60).astype(np.uint8)
    cand_group[0] = 0
    group = rng.integers(0, num_groups, size=200).astype(np.uint8)
    picked = rng.integers(0, len(cand_group), size=200)
    cols, queries = [], []
    for span in spans:
        top, scale = min(span, 4) - 1, np.uint64(span // 4 if span > 4 else 1)
        cols.append(rng.integers(0, top, size=60).astype(np.uint64) * scale)
        queries.append(cols[-1][picked])
        queries[-1][::7] = top * scale     # a code no candidate has
    table = _DecodeTable(np.arange(200), group, num_groups, cand_group, cols)
    expected = _brute_force_match(table, cols, queries)
    assert {_ST_OK, _ST_NONE, _ST_AMB} <= set(expected[0])
    keys = num_groups * math.prod(spans)
    for slots in ((keys, keys - 1) if keys <= 2 ** 16 else (2 ** 20,) if keys < 2 ** 64
                  else (2 ** 20, 0)):
        _assert_match(table, cols, queries, spans, slots, expected)
    empty = _DecodeTable(np.arange(0), group[:0], num_groups, cand_group[:0],
                         [c[:0] for c in cols])
    _assert_match(empty, empty.cands, [q[:0] for q in queries], spans, 2 ** 20, ([], []))


def test_a_failed_dense_match_leaves_no_key_in_its_slots():
    """A dense match that fails after writing its candidates' keys (here a
    query past its column's span reaches past the slot array) still resets
    them, so a later match on the same slots does not find those keys.
    """
    groups = np.array([0, 1], dtype=np.uint8)
    table = _DecodeTable(np.arange(2), groups, 2, groups, [np.array([1, 2], dtype=np.uint8)])
    slots = _Slots(2 * 3)
    with pytest.raises(IndexError):
        _match(table, table.cands, [np.array([1, 3], dtype=np.uint8)], [3], slots)
    assert len(slots.array) == 6 and (slots.array == -1).all()
    later = _DecodeTable(np.arange(2), groups, 2, groups, [np.zeros(2, dtype=np.uint8)])
    status, pick = _match(later, later.cands, [np.array([1, 2], dtype=np.uint8)], [3], slots)
    assert status.tolist() == [_ST_NONE, _ST_NONE] and pick.tolist() == [-1, -1]


def test_a_match_without_candidates_finds_none_for_every_member():
    """A table whose groups have no candidates at all, as a later step's
    can be, gives each of its members NoCandidate and the pick -1.
    """
    table = _DecodeTable(np.arange(3), np.array([0, 2, 2], dtype=np.uint8), 3,
                         np.zeros(0, dtype=np.uint8), [np.zeros(0, dtype=np.uint8)])
    status, pick = _match(table, table.cands, [np.array([1, 0, 1], dtype=np.uint8)], [2],
                          _Slots(2 ** 20))
    assert status.dtype == np.uint8 and status.tolist() == [_ST_NONE] * 3
    assert pick.tolist() == [-1] * 3


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


_RANK_RNG = np.random.default_rng(5)
RANKED_BY_SPAN = {
    # (column, span, whether it is ranked by the bitmap)
    "every-code": (np.tile(np.arange(256, dtype=np.uint16), 4)[::-1], 256, True),
    "dense-codes": (_RANK_RNG.integers(0, 200, 1000).astype(np.uint16) * 3, 600, True),
    "sparse-packed": (_packed(_RANK_RNG, 300, 5000, 1000), 300 * 5000, False),
    "one-value": (np.full(9, 5, dtype=np.uint8), 6, True),
    "one-value-past": (np.full(9, 5, dtype=np.uint8), 10, False),
    "empty": (np.zeros(0, dtype=np.uint8), 0, True),
    "empty-past": (np.zeros(0, dtype=np.int64), 4, False),
    # the span equal to the column's length, and one past it
    "at-the-bound": (np.array([0, 7, 3, 7, 3, 0, 6, 7]), 8, True),
    "past-the-bound": (np.array([0, 7, 3, 7, 3, 0, 6, 7]), 9, False)}


@pytest.mark.parametrize("name", RANKED_BY_SPAN)
def test_ranked_is_np_unique(monkeypatch, name):
    """_ranked gives np.unique's distinct values and inverse, the inverse in
    the narrowest unsigned type, by the bitmap where the span is at most the
    column's length and by np.unique past it.
    """
    values, span, by_bitmap = RANKED_BY_SPAN[name]
    want, want_inverse = np.unique(values, return_inverse=True)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(a) or unique(*a, **kw))
    distinct, inverse = _ranked(values, span)
    assert len(sorts) == (not by_bitmap)
    assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
    assert inverse.dtype == np.min_scalar_type(max(len(want) - 1, 0))
    assert np.array_equal(inverse, want_inverse)


def _reference_table(evaluator, step, observed, given=None):
    """A decode step's members, group and cand_group and its candidates'
    codes, with groups ranked by np.unique, or the given group ids, members
    ordered by an int64 stable argsort and candidates listed one group at a
    time.
    """
    e = evaluator.enum
    letters = [v for v in step.observed if v not in step.decoded]
    code = np.zeros(len(observed[0]), dtype=np.int64)
    for col, v in zip(observed, letters):
        code = code * e.size[v] ** e.n + col.astype(np.int64)
    if given is None:
        rest, group = np.unique(code, return_inverse=True)
    else:
        rest, group = np.empty_like(code), given
        rest[given] = code

    def digits(c, v):
        return np.stack(list(code_digits(np.array([c]), e.size[v], e.n)), axis=-1)

    per_group = []      # each group's candidates, as {decoded letter: code}
    for c in rest.tolist():
        row = {}
        for v in reversed(letters):
            c, row[v] = divmod(c, e.size[v] ** e.n)
        found = [row]
        for key in step.engine_keys():
            engine = evaluator.ctx.engines[key]
            found = [{**f, key[-1]: int(x)} for f in found
                     for x in engine.candidate_indices(tuple(digits(f[v], v)
                                                             for v in key[:-1]))[0]]
        per_group.append(found)
    counts = np.array([len(f) for f in per_group])
    order = np.argsort(group.astype(np.int64), kind="stable")
    members = order[counts[group[order]] > 0]
    cands = [[f[v] for found in per_group for f in found] for v in step.decoded]
    return (members, group[members], len(rest), np.repeat(np.arange(len(rest)), counts),
            cands)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("dist,found", [
    (xor_triple(), [True] * 5),
    (noisy_copy_triple(0.1, 0.3), [True, False, True, True, False]),
], ids=["xor", "noisy"])
def test_step_tables_match_a_sorted_reference(monkeypatch, fresh_state, dist, found, n):
    """Every decode table two PointP and two PointT members use (PointP's
    two first steps, PointT's two first steps and its later yz -> x step)
    is built once per evaluator, and has the members, groups, candidate
    groups and candidates of a reference that ranks with np.unique, or
    takes the given group ids, and sorts int64 group ids. The later step's
    groups are the candidates of Y's first step y -> z: each observes the
    candidate's z and its group's y. On the noisy source, PointP's xy -> xz
    step and PointT's later step find no candidates.
    """
    built = []
    step_table = ExactEvaluator._step_table

    def recording(self, step, observed, group=None):
        table = step_table(self, step, observed, group)
        built.append((self, step, observed, group, table))
        return table

    monkeypatch.setattr(ExactEvaluator, "_step_table", recording)
    for scheme in ("PointP", "PointT"):
        ExactEvaluator(_config(scheme, dist, n)).evaluate(2)
    assert [step.observed for _, step, *_ in built] == ["x", "xy", "x", "y", "yz"]
    assert [group is not None for _, _, _, group, _ in built] == [False] * 4 + [True]
    assert [len(t.members) > 0 for *_, t in built] == found
    for evaluator, step, observed, group, table in built:
        members, group, num_groups, cand_group, cands = _reference_table(
            evaluator, step, observed, group)
        assert np.array_equal(table.members, members), step
        assert np.array_equal(table.group, group), step
        assert table.num_groups == num_groups, step
        assert np.array_equal(table.cand_group, cand_group), step
        assert [c.tolist() for c in table.cands] == cands, step
    (evaluator, _, _, _, first), (_, _, (y, z), group, _) = built[3:]
    assert group.tolist() == list(range(len(first.cand_group)))
    assert z.tolist() == first.cands[0].tolist()
    y_of = dict(zip(first.group.tolist(), evaluator.enum.idx["y"][first.members].tolist()))
    assert y.tolist() == [y_of[g] for g in first.cand_group.tolist()]


def test_decode_tables_are_built_once_per_evaluator(monkeypatch, fresh_state):
    """From an empty holder, a PointT evaluator builds one table per decode
    step, X's and Y's first steps and Y's later yz -> x step, however many
    members it evaluates: no member builds a table of its own, and neither
    does an evaluator of the same signature with another master seed.
    """
    calls = []
    step_table = ExactEvaluator._step_table

    def recording(self, step, observed, group=None):
        calls.append(step)
        return step_table(self, step, observed, group)

    monkeypatch.setattr(ExactEvaluator, "_step_table", recording)
    evaluator = ExactEvaluator(_config("PointT", xor_triple(), n=6, eps=0.5, delta=0.02))
    evaluator.evaluate(4)
    assert calls == list(evaluator.ctx.desc.decodes)
    evaluator.member()
    ExactEvaluator(_config("PointT", xor_triple(), n=6, eps=0.5, delta=0.02, seed=8)).member(0)
    assert len(calls) == 3


def test_step_tables_read_codes_past_int64(rng):
    """PointT's later step observes y and z. With y's alphabet of 8 at
    n = 21, y's codes reach 8**21 - 1 and a (y, z) pair spans 2**84 codes.
    Over 40 random elements and the one whose y code is 8**21 - 1, the table
    groups the rows by (y, z) in lexicographic order and lists each group's
    candidates as the engine does for its sequences.
    """
    cfg = _config("PointT", _atoms((2, 8, 2), (0, 0, 0), (1, 7, 1)), n=21, seed=3,
                  eps=0.25, delta=0.05)
    evaluator = ExactEvaluator(cfg, exact_cap=2 ** 128)
    e, step = evaluator.enum, evaluator.ctx.desc.decodes[-1]
    assert (step.observed, step.decoded) == ("yz", "x")
    rows = np.append(rng.integers(0, len(e.prob), size=40), len(e.prob) - 1)
    y, z = e.idx["y"][rows], e.idx["z"][rows]
    assert int(y.max()) == 8 ** 21 - 1
    table = evaluator._step_table(step, [y, z])
    pairs = sorted(set(zip(y.tolist(), z.tolist())))
    group = [pairs.index(pair) for pair in zip(y.tolist(), z.tolist())]
    assert table.num_groups == len(pairs)

    def digits(code, q):
        return np.array([[code // q ** (20 - t) % q for t in range(21)]])

    engine, found = evaluator.ctx.engines[step.engine_keys()[0]], []
    for g, (yc, zc) in enumerate(pairs):
        found.append(engine.candidate_indices((digits(yc, 8), digits(zc, 2)))[0].tolist())
        assert table.cands[0][table.cand_group == g].tolist() == found[-1]
    assert 0 < sum(map(bool, found)) < len(pairs)
    members = sorted((r for r in range(len(rows)) if found[group[r]]), key=lambda r: group[r])
    assert table.members.tolist() == members
    assert table.group.tolist() == [group[r] for r in members]


@pytest.mark.parametrize("scheme", ["PointP", "PointT"])
def test_wide_stable_sorts_get_narrow_group_ids(monkeypatch, fresh_state, scheme):
    """Over 262,144 support triples (noisy_copy_triple at n = 6), no stable
    argsort the evaluator runs on more than 4,096 entries sorts integers
    wider than 16 bits, which numpy radix-sorts, and no integer column of
    more than 4,096 entries is ranked by np.unique: the first steps' group
    ids come off a presence bitmap.
    """
    calls = []

    class Recording:
        """numpy as skpk.exact sees it, with argsort and unique recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, a, *args, **kw):
            calls.append(("argsort", kw.get("kind"), a.dtype, a.size))
            return np.argsort(a, *args, **kw)

        def unique(self, a, *args, **kw):
            calls.append(("unique", None, a.dtype, a.size))
            return np.unique(a, *args, **kw)

    monkeypatch.setattr(exact, "np", Recording())
    cfg = _config(scheme, noisy_copy_triple(0.1, 0.3), n=6, eps=0.25, delta=0.05)
    evaluator = ExactEvaluator(cfg)
    evaluator.evaluate(2)
    assert len(evaluator.enum.prob) == 2 ** 18
    wide = [(name, kind, dtype) for name, kind, dtype, size in calls if size > 4096]
    for name, kind, dtype in wide:
        if name == "argsort" and kind == "stable" and dtype.kind in "iu":
            assert dtype.itemsize <= 2, dtype
        if name == "unique":
            assert dtype.kind == "f", dtype
    assert ("argsort", "stable", np.dtype(np.uint8)) in wide


def _member_sweep_sources():
    """The sources of test_member_sweep_is_pinned."""
    return [xor_triple(), noisy_copy_triple(0.1, 0.3),
            random_distribution(np.random.default_rng(11), (3, 2, 2)),
            random_distribution(np.random.default_rng(12), (2, 2, 2), zero_frac=0.4),
            mirrored_noisy_copy(0.25, 0.0)]


# five atoms on which a pair step's helper leaves several z candidates
_FIVE_ATOMS = _atoms((2, 2, 2), (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1))


@pytest.mark.parametrize("scheme", ["PointE", "PointT", "PointP", "PointQ"])
def test_truth_picks_match_a_brute_force_search(scheme, monkeypatch, fresh_state):
    """The truth picks of every decode table two members match, first and
    later steps, pair steps included, on the member sweep's sources and the
    five-atom source at n = 4 and 5 and on xor at n = 6: per table member,
    the candidate of its group whose codes are the element's true
    sequences, found by scanning the group's candidates one by one, or -1;
    and the true sequences' domain positions. A later step's member whose
    group (its first step's pick) has no candidates expects -1; PointT has
    such members.
    """
    calls, truths = [], ExactEvaluator._truths

    def recording(self, step, table, rows):
        result = truths(self, step, table, rows)
        calls.append((self.enum, step, table, rows, result))
        return result

    monkeypatch.setattr(ExactEvaluator, "_truths", recording)
    configs = [*itertools.product(_member_sweep_sources() + [_FIVE_ATOMS], (4, 5)),
               (xor_triple(), 6)]
    for dist, n in configs:
        ExactEvaluator(_config(scheme, dist, n, eps=0.5, delta=0.02)).evaluate(2)
    found, bare = [], 0
    for e, step, table, rows, (truth, truth_pick) in calls:
        of_group = {}
        for c, g in enumerate(table.cand_group.tolist()):
            of_group.setdefault(g, []).append(c)
        bare += sum(g not in of_group for g in table.group.tolist())
        codes = [e.idx[v][rows].tolist() for v in step.decoded]
        expected = []
        for m, g in enumerate(table.group.tolist()):
            hits = [c for c in of_group.get(g, [])
                    if all(int(cand[c]) == code[m] for cand, code in zip(table.cands, codes))]
            assert len(hits) <= 1
            expected.append(hits[0] if hits else -1)
        assert truth_pick.tolist() == expected, step
        for j, v in enumerate(step.decoded):
            assert truth[j].dtype == e.domain(v)[1].dtype
            assert np.array_equal(truth[j], e.domain(v)[1][rows])
        found += expected
    assert max(found) > 0 and -1 in found
    assert (bare > 0) == (scheme == "PointT")


def _brute_force_laws(evaluator, cbs):
    """Recovery errors and key agreements of a member whose decode steps are
    all first steps, from each element's picked candidate: the one
    candidate of its group in its step's table whose every decoded letter
    has the true sequence's bin, read code by code.
    """
    e, desc = evaluator.enum, evaluator.ctx.desc
    prob = e.prob.tolist()

    @functools.cache
    def bin_of(v, code):
        digits = np.array([int(d[0]) for d in code_digits(np.array([code]), e.size[v], e.n)])
        return cbs[v.upper()].bin_index(digits)

    picked = {}     # "v_at_T" -> {element: picked code}
    for i, (table, slots, _, _) in evaluator._reach[1].items():
        step = desc.decodes[i]
        assert slots is not None, "a later step's members are each member's own"
        rows = evaluator._reach[0][slots].tolist()
        of_group = {}
        for c, g in enumerate(table.cand_group.tolist()):
            of_group.setdefault(g, []).append(c)
        for m, g in enumerate(table.group.tolist()):
            r = rows[m]
            hits = [c for c in of_group[g] if all(
                bin_of(v, int(cand[c])) == bin_of(v, int(e.idx[v][r]))
                for v, cand in zip(step.decoded, table.cands))]
            for v, cand in zip(step.decoded, table.cands):
                if len(hits) == 1:
                    picked.setdefault(f"{v}_at_{step.terminal}", {})[r] = int(cand[hits[0]])
    recovery = {name: 1.0 - math.fsum(prob[r] for r, code in codes.items()
                                      if code == int(e.idx[name[0]][r]))
                for name, codes in picked.items()}

    def agreement(owner):
        cb, v = cbs[owner], owner.lower()
        copies = [codes for name, codes in picked.items() if name[0] == v]
        sub = cb.sub_bins_of_indices
        return math.fsum(p for r, p in enumerate(prob) if all(
            r in codes and sub(np.array([codes[r]])) == sub(e.idx[v][r:r + 1])
            for codes in copies))

    return recovery, agreement(desc.kp_owner), agreement("Z") if "Z" in cbs else None


def test_pair_picks_wrong_in_one_letter_recover_the_other():
    """PointP in orientation Y on a five-atom source at n = 5, with K_P at
    4 sub-bins: X's pair decode picks candidates that are wrong in the
    helper y and right in z, and others the other way round. Each letter's
    recovery and K_P's agreement then compare that letter's code and
    sub-bin with the truth, and they match a brute-force reference that
    reads every picked candidate code by code.
    """
    cfg = _with_rates(_config("PointP", _FIVE_ATOMS, n=5, seed=3, eps=0.5, delta=0.02),
                      r_x=0.25, r_z=0.5, r_p=0.4)
    evaluator = ExactEvaluator(cfg)
    assert evaluator.ctx.desc.kp_owner == "Y"
    e, mixed = evaluator.enum, [0, 0]
    for k in range(2):
        cbs = oracle_codebooks(cfg, k)
        assert cbs["Y"].num_sub_bins == 4
        member = evaluator.member(k)
        for i, (table, slots, _, truth_pick) in evaluator._reach[1].items():
            step = evaluator.ctx.desc.decodes[i]
            if len(step.decoded) == 2:
                picks = evaluator._unique_exact(i, step, cbs, {
                    v: cbs[v].bins_of_indices(e.domain(v.lower())[0]) for v in "YZ"}, None)
                wrong = (picks.pick >= 0) & (picks.pick != truth_pick)
                right = [cand[picks.pick] == e.idx[v][evaluator._reach[0][slots]]
                         for v, cand in zip(step.decoded, table.cands)]
                mixed[0] += int(np.count_nonzero(wrong & right[0] & ~right[1]))
                mixed[1] += int(np.count_nonzero(wrong & ~right[0] & right[1]))
        recovery, agree_kp, agree_ks = _brute_force_laws(evaluator, cbs)
        assert member.recovery_error == recovery
        assert member.agree_kp == agree_kp and member.agree_ks == agree_ks
    assert min(mixed) > 0, mixed


def test_view_entropies_are_cached_only_where_no_codebook_changes_the_view():
    """PointP on xor: X has one bin, so K_P's view (Z^n beside the
    transcript) reads z verbatim and x only through a one-valued column.
    Its entropy is computed once per evaluator and equals, bit for bit, an
    uncached computation on each member's own view. With r_x > 0 and
    r_s > 0, X has several bins and both keys several values, every law
    depends on the codebooks, and the cache is never read or written.
    """
    cfg = _config("PointP", xor_triple(), n=6, eps=0.25, delta=0.05)
    evaluator = ExactEvaluator(cfg)
    e = evaluator.enum
    for k in range(3):
        evaluator.member(k)
        cbs = oracle_codebooks(cfg, k)
        assert cbs["X"].num_bins == 1 and cbs["X"].num_sub_bins > 1
        view = {"z": [(None, None)], "x": [(cbs["X"].bins_of_indices(e.domain("x")[0]), 1)]}
        uncached = _entropy_masses(np.bincount(evaluator._labels(view), weights=e.prob))
        # K_S has one value: its law is the empty view's
        assert evaluator._view_entropy.keys() == {frozenset(), frozenset("z")}
        assert evaluator._view_entropy[frozenset("z")].hex() == uncached.hex()

    class Refusing(dict):
        def __contains__(self, key):
            raise AssertionError(f"the view cache was read for {set(key)}")

        def __setitem__(self, key, value):
            raise AssertionError(f"the view cache was written for {set(key)}")

    binned = _with_rates(cfg, r_x=0.5, r_s=0.3)
    evaluator = ExactEvaluator(binned)
    evaluator._view_entropy = Refusing()
    members = evaluator.evaluate(3).per_codebook
    cbs = oracle_codebooks(binned, 0)
    assert cbs["X"].num_bins > 1 and cbs["Z"].num_sub_bins > 1
    for k, stats in enumerate(members):
        ref = oracle_secrecy(binned, oracle_codebooks(binned, k))
        for name in ("leak_ks", "leak_kp", "h_ks", "h_kp"):
            assert getattr(stats, name) == pytest.approx(ref[name], abs=1e-12), name


def test_a_warm_member_counts_two_laws_and_reuses_its_slots(monkeypatch):
    """A warm PointP member on xor at n = 8, as the exact_ensemble benchmark
    runs it: K_S has one value and K_P's view entropy is cached, so two
    weighted bincounts run over the enumeration (K_P's law and its joint law
    with the view). Both decode steps match in the evaluator's dense slots,
    so no array as long as a step's key range is allocated.
    """
    cfg = SchemeConfig(scheme="PointP", dist=xor_triple(), n=8, epsilon=0.25, delta=0.05,
                       master_seed=1, codebook_mode=MODE_TABLE)
    evaluator = ExactEvaluator(cfg)
    evaluator.member(0)
    cbs = oracle_codebooks(cfg, 1)
    key_ranges = []
    for i, (table, *_) in evaluator._reach[1].items():
        bins = [cbs[v.upper()].num_bins for v in evaluator.ctx.desc.decodes[i].decoded]
        key_ranges.append(table.num_groups * math.prod(b for b in bins if b > 1))
    calls = []

    class Recording:
        """numpy as skpk.exact sees it, with counts and allocations recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, x, *args, **kw):
            calls.append(("bincount", len(x), kw.get("weights") is not None))
            return np.bincount(x, *args, **kw)

        def _allocation(name):
            def allocate(self, shape, *args, **kw):
                calls.append((name, math.prod(np.atleast_1d(shape)), None))
                return getattr(np, name)(shape, *args, **kw)
            return allocate

        full, zeros, empty = _allocation("full"), _allocation("zeros"), _allocation("empty")

    monkeypatch.setattr(exact, "np", Recording())
    evaluator.member(1)
    size = len(evaluator.enum.prob)
    assert [n for name, n, weighted in calls if name == "bincount" and weighted] == [size, size]
    assert key_ranges == [256 * 1024, 256 * 1024]
    assert [n for name, n, _ in calls if name != "bincount" and n >= min(key_ranges)] == []
