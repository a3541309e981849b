import dataclasses
import math

import numpy as np
import pytest

from conftest import mirrored_noisy_copy, random_distribution
from skpk import protocol, typicality
from skpk.binning import MODE_HASH, MODE_TABLE, make_codebook
from skpk.errors import SearchOverflowError, UsageError
from skpk.protocol import (STATUS_AMBIGUOUS, STATUS_NO_CANDIDATE, STATUS_OK,
                           STATUS_OVERFLOW, RunContext, SchemeConfig, _pair_decode,
                           _unique_decode, derive_rates)
from skpk.sources import (JointDistribution, SourceTriple, doubly_symmetric_xz,
                          identical_bits, info_profile, noisy_copy_triple,
                          xor_triple)
from skpk.typicality import CandidateEngine, TypicalityParams


def _config(scheme, dist, n, eps, delta, seed, mode=MODE_HASH, **kw):
    return SchemeConfig(scheme=scheme, dist=dist, n=n, epsilon=eps, delta=delta,
                        master_seed=seed, codebook_mode=mode, **kw)


def test_derived_rates_xor():
    prof = info_profile(xor_triple())
    r = derive_rates("PointT", prof, epsilon=0.25, delta=0.05)
    # H(Z|X) = H(Z|Y) = 1 and I(X;Z) = 0 for the xor source
    assert r.r_z == pytest.approx(1.25, abs=1e-12)
    assert r.r_x == pytest.approx(0.25, abs=1e-12)
    assert r.r_s == 0.0
    assert "r_s" in r.clamped
    assert r.r_p == pytest.approx(1.0 - 0.1 - 0.25, abs=1e-12)

    q = derive_rates("PointQ", prof, epsilon=0.25, delta=0.05)
    assert q.r_z == pytest.approx(0.25 + 0.1, abs=1e-12)
    assert q.r_y == pytest.approx(1.0 - 0.1, abs=1e-12)
    # I(Z;XY) = 1 funds the secret key; I(X;Y) = 0 leaves no private key
    assert q.r_s == pytest.approx(1.0 - 0.5 - 0.2, abs=1e-12)
    assert q.r_p == 0.0
    assert "r_p" in q.clamped


def test_rate_orientation():
    # stronger X-Z correlation keeps the canonical orientation
    base = noisy_copy_triple(0.3, 0.1)
    r = derive_rates("PointP", info_profile(base), epsilon=0.1, delta=0.01)
    assert r.orientation == "X"
    # stronger Y-Z correlation flips it
    mirrored = JointDistribution((2, 2, 2), np.transpose(base.pmf, (1, 0, 2)))
    r2 = derive_rates("PointP", info_profile(mirrored), epsilon=0.1, delta=0.01)
    assert r2.orientation == "Y"


def test_derive_rates_rejects_bad_input():
    prof = info_profile(xor_triple())
    with pytest.raises(UsageError):
        derive_rates("TimeShare", prof, 0.1, 0.05)
    with pytest.raises(UsageError):
        derive_rates("PointT", prof, 0.0, 0.05)
    for bad_delta in (-0.1, math.nan, math.inf):
        with pytest.raises(UsageError):
            derive_rates("PointT", prof, 0.1, bad_delta)


def test_identical_bits_full_agreement():
    cfg = _config("PointT", identical_bits(), n=6, eps=0.5, delta=0.05, seed=2)
    run = RunContext(cfg).run(0)
    out = run.outcome
    assert out.statuses == {"Z": STATUS_OK, "X": STATUS_OK, "Y": STATUS_OK}
    ks = set(out.ks_claims.values())
    kp = set(out.kp_claims.values())
    assert len(ks) == 1 and None not in ks
    assert len(kp) == 1 and None not in kp
    assert np.array_equal(run.recovered["z_at_X"], run.triple.z_seq)


def test_trial_determinism():
    cfg = _config("PointP", xor_triple(), n=8, eps=0.6, delta=0.02, seed=11)
    ctx = RunContext(cfg)
    a = ctx.run(3)
    b = ctx.run(3)
    assert a.outcome.ks_claims == b.outcome.ks_claims
    assert a.outcome.statuses == b.outcome.statuses
    assert np.array_equal(a.triple.x_seq, b.triple.x_seq)
    c = ctx.run(4)
    assert not np.array_equal(a.triple.x_seq, c.triple.x_seq)


def test_point_q_redirect():
    # Z depends on X alone, so the Y codebook cannot help and PointQ
    # degenerates to PointP
    dist = noisy_copy_triple(0.1, 0.3)
    cfg = _config("PointQ", dist, n=6, eps=0.4, delta=0.02, seed=5)
    ctx = RunContext(cfg)
    assert ctx.scheme == "PointP"
    assert ctx.redirected
    run = ctx.run(0)
    assert run.scheme == "PointP"
    assert run.redirected


def test_no_redirect_when_y_helps():
    cfg = _config("PointQ", xor_triple(), n=4, eps=0.6, delta=0.02, seed=5)
    ctx = RunContext(cfg)
    assert ctx.scheme == "PointQ"
    assert not ctx.redirected
    run = ctx.run(0)
    assert set(run.codebooks) == {"Z", "X", "Y"}
    assert [m.label for m in run.transcript.messages] == ["f", "g", "l"]


def test_point_e_shape():
    cfg = _config("PointE", xor_triple(), n=5, eps=0.5, delta=0.02, seed=7)
    run = RunContext(cfg).run(1)
    assert run.outcome.ks_claims == {}
    assert run.outcome.ks_size == 1
    assert run.outcome.ks_owner is None
    assert run.outcome.kp_owner == "X"
    labels = [m.label for m in run.transcript.messages]
    assert labels == ["z-index", "g"]
    # Y observes z directly, so the z copies are always right
    assert np.array_equal(run.recovered["z_at_Y"], run.triple.z_seq)


_SWAP = str.maketrans("XYxy", "YXyx")


@pytest.mark.parametrize("flips,decodes", [((0.3, 0.1), False), ((0.25, 0.0), True)],
                         ids=["noisy", "echo"])
def test_swapped_orientation_relabels(flips, decodes):
    """A source with the stronger correlation on the Y side must produce the
    same numbers as its mirrored twin on the mirrored triple, with terminals
    renamed. On the first source the yz and yxz count windows are empty, so
    no decode succeeds; on the second, Z = Y and some trials decode at both
    X and Y.
    """
    cfg_m = _config("PointP", mirrored_noisy_copy(*flips), n=10, eps=0.45,
                    delta=0.02, seed=13)
    cfg_c = _config("PointP", noisy_copy_triple(*flips), n=10, eps=0.45,
                    delta=0.02, seed=13)
    ctx_m, ctx_c = RunContext(cfg_m), RunContext(cfg_c)
    assert ctx_m.swapped and not ctx_c.swapped
    both_ok = 0
    for i in range(200):
        run = ctx_m.run(i)
        t = run.triple
        twin = ctx_c.run_on_triple(SourceTriple(t.n, t.y_seq, t.x_seq, t.z_seq))
        out, ref = run.outcome, twin.outcome
        assert set(out.ks_claims) == {"Z", "X", "Y"}
        assert set(run.recovered) == {"z_at_X", "z_at_Y", "y_at_X"}
        assert (out.ks_owner, out.kp_owner) == ("Z", "Y")
        # the mirrored run with labels swapped back tells the same story
        for field in ("statuses", "ks_claims", "kp_claims"):
            assert getattr(out, field) == {
                k.translate(_SWAP): v for k, v in getattr(ref, field).items()}, field
        assert (out.ks_size, out.kp_size) == (ref.ks_size, ref.kp_size)
        for key, seq in twin.recovered.items():
            mine = run.recovered[key.translate(_SWAP)]
            assert (mine is None and seq is None) or np.array_equal(mine, seq), key
        assert [(m.sender, m.label, m.value) for m in run.transcript.messages] == [
            (m.sender.translate(_SWAP), m.label, m.value) for m in twin.transcript.messages]
        both_ok += out.statuses["X"] == out.statuses["Y"] == STATUS_OK
    assert (both_ok > 0) == decodes, both_ok


def test_time_share_combination():
    cfg = _config("TimeShare", identical_bits(), n=12, eps=0.5, delta=0.05,
                  seed=3, ts_schemes=("PointT", "PointT"), ts_lambda=0.5)
    ctx = RunContext(cfg)
    run = ctx.run(0)
    assert run.scheme == "TimeShare"
    labels = [m.label for m in run.transcript.messages]
    assert all(l.startswith(("A.", "B.")) for l in labels)
    part = RunContext(_config("PointT", identical_bits(), n=6, eps=0.5,
                              delta=0.05, seed=3)).run(0)
    assert run.outcome.ks_size == part.outcome.ks_size ** 2
    assert run.outcome.kp_size == part.outcome.kp_size ** 2
    # recovered copies concatenate when both halves decoded, else stay None
    for i in range(30):
        trial = ctx.run(i)
        if trial.outcome.statuses["X"] == STATUS_OK:
            assert len(trial.recovered["z_at_X"]) == 12
            break
        assert trial.recovered["z_at_X"] is None
    else:
        raise AssertionError("no trial decoded in 30 attempts")


def test_time_share_lambda_extremes():
    cfg = _config("TimeShare", xor_triple(), n=6, eps=0.5, delta=0.05, seed=3,
                  ts_schemes=("PointE", "PointT"), ts_lambda=0.0)
    ctx = RunContext(cfg)
    assert ctx.split == (0, 6)
    assert ctx.parts[0] is None
    run = ctx.run(0)
    # the lone live part passes through with its own labels
    assert run.scheme == "TimeShare"
    assert [m.label for m in run.transcript.messages] == ["f", "g"]


def test_config_validation():
    with pytest.raises(UsageError):
        _config("PointX", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0)
    with pytest.raises(UsageError):
        _config("TimeShare", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                ts_schemes=("TimeShare", "PointT"))
    with pytest.raises(UsageError):
        _config("TimeShare", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                ts_schemes=("PointE", "PointT"), ts_lambda=1.5)
    with pytest.raises(UsageError):
        _config("PointT", xor_triple(), n=4, eps=1.2, delta=0.05, seed=0)


def test_custom_rates_override():
    dist = doubly_symmetric_xz(0.1)
    prof = info_profile(dist)
    base = derive_rates("PointP", prof, epsilon=0.3, delta=0.05)
    lowered = dataclasses.replace(base, r_z=max(0.0, base.r_z - 0.4))
    cfg = _config("PointP", dist, n=16, eps=0.3, delta=0.05, seed=4,
                  rates=lowered)
    ctx = RunContext(cfg)
    assert ctx.rates.r_z == pytest.approx(lowered.r_z)
    ctx.run(0)


def test_mismatch_rate_decreases_with_blocklength():
    """Reconstruction of Z at X from its bin should improve with n when the
    bin rate exceeds the conditional entropy.
    """
    dist = doubly_symmetric_xz(0.1)
    trials = 120
    errs = []
    for n in (16, 32, 48):
        cfg = _config("PointP", dist, n=n, eps=0.3, delta=0.05, seed=6)
        ctx = RunContext(cfg)
        bad = 0
        for i in range(trials):
            run = ctx.run(i)
            got = run.recovered["z_at_X"]
            if got is None or not np.array_equal(got, run.triple.z_seq):
                bad += 1
        errs.append(bad / trials)
    for lo, hi in zip(errs[1:], errs[:-1]):
        sigma = math.sqrt(max(hi * (1 - hi), 0.25 / trials) / trials)
        assert lo <= hi + 2 * sigma


def test_unique_decode_search_overflow():
    cfg = _config("PointT", xor_triple(), n=8, eps=0.5, delta=0.05, seed=3)
    ctx = RunContext(cfg)
    triple = ctx.run(0).triple
    cbz = ctx.codebooks["Z"]
    target = cbz.bin_index(triple.z_seq)
    observed = (triple.x_seq,)
    status, _ = _unique_decode(ctx.engines["xz"], observed, cbz, target)
    assert status != STATUS_OVERFLOW
    tight = CandidateEngine(cfg.dist.marginal("XZ"), cfg.params, cap=1)
    assert _unique_decode(tight, observed, cbz, target) == (STATUS_OVERFLOW, None)


def test_pair_decode_search_overflow_in_either_stage():
    cfg = _config("PointP", xor_triple(), n=8, eps=0.5, delta=0.05, seed=3)
    ctx = RunContext(cfg)
    assert not ctx.swapped
    run = next(r for r in map(ctx.run, range(40)) if r.outcome.statuses["Y"] == STATUS_OK)
    x, y, z = run.triple.x_seq, run.triple.y_seq, run.triple.z_seq
    cbx, cbz = ctx.codebooks["X"], ctx.codebooks["Z"]
    g, f = cbx.bin_index(x), cbz.bin_index(z)
    d = cfg.dist
    args = {"eng1": ctx.engines["yx"], "obs1": (y,), "cb1": cbx, "target1": g,
            "eng2": ctx.engines["xyz"], "own": y, "cb2": cbz, "target2": f,
            "own_first": False}
    status, x_hat, z_hat = _pair_decode(**args)
    assert status == STATUS_OK
    assert np.array_equal(x_hat, x) and np.array_equal(z_hat, z)
    # stage 1 overflows before any helper survives
    stage1 = CandidateEngine(d.marginal("YX"), cfg.params, cap=1)
    assert _pair_decode(**dict(args, eng1=stage1)) == (STATUS_OVERFLOW, None, None)
    # stage 2 overflows on the first survivor: each has one z candidate here
    stage2 = CandidateEngine(d.marginal("XYZ"), cfg.params, cap=0)
    assert _pair_decode(**dict(args, eng2=stage2)) == (STATUS_OVERFLOW, None, None)


# -- batched stage 2 of pair decoding against one scan per survivor ----------

def _reference_rows(eng, helpers, own, own_first, cb, target):
    """scan_bin_filter_rows as one scan_bin_filter call per helper row."""
    counts, first = [], None
    for row in helpers:
        try:
            count, z = eng.scan_bin_filter((own, row) if own_first else (row, own),
                                           cb, target)
        except SearchOverflowError:
            count = None
        counts.append(count)
        if count == 1 and first is None:
            first = z
    return counts, first


def _reference_pair_decode(eng1, obs1, cb1, target1, eng2, own, cb2, target2, own_first):
    """Pair decoding that scans the survivors one at a time and stops at the
    first overflow or second match."""
    try:
        survivors = eng1.scan_bin_filter(obs1, cb1, target1, want="all")
    except SearchOverflowError:
        return STATUS_OVERFLOW, None, None
    total, first = 0, None
    for cand in survivors:
        try:
            count, z = eng2.scan_bin_filter((own, cand) if own_first else (cand, own),
                                            cb2, target2)
        except SearchOverflowError:
            return STATUS_OVERFLOW, None, None
        total += count
        if count == 1 and first is None:
            first = (cand, z)
        if total >= 2:
            return STATUS_AMBIGUOUS, None, None
    if total == 0:
        return STATUS_NO_CANDIDATE, None, None
    return STATUS_OK, *first


def _assert_same_decode(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("chunk", [None, 16], ids=["batched", "mostly-row-by-row"])
@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_pair_decode_matches_per_survivor_scans(rng, monkeypatch, mode, chunk):
    """On random 2x2x2 sources with zero atoms, PointP's step (own sequence
    second in stage 2) and PointQ's first step (own sequence first) decode as
    one scan per survivor does, and each batched stage 2 returns that scan's
    per-row counts and first match. Halved bin rates leave several survivors
    and some ambiguous ones. A 16-entry scan chunk sends all but the
    smallest groups down the row-by-row path.
    """
    if chunk is not None:
        monkeypatch.setattr(typicality, "_SCAN_CHUNK", chunk)
    seen = {"own_first": set(), "status": set(), "counts": set(), "multi_row": 0}
    batched = protocol._pair_decode

    def checked(eng1, obs1, cb1, target1, eng2, own, cb2, target2, own_first):
        args = (eng1, obs1, cb1, target1, eng2, own, cb2, target2)
        got = batched(*args, own_first=own_first)
        _assert_same_decode(got, _reference_pair_decode(*args, own_first=own_first))
        try:
            helpers = eng1.scan_bin_filter(obs1, cb1, target1, want="all")
        except SearchOverflowError:
            return got
        counts, first = eng2.scan_bin_filter_rows(helpers, own, own_first, cb2, target2)
        ref_counts, ref_first = _reference_rows(eng2, helpers, own, own_first, cb2, target2)
        assert counts == ref_counts
        assert (first is None and ref_first is None) or np.array_equal(first, ref_first)
        seen["own_first"].add(own_first)
        seen["status"].add(got[0])
        seen["counts"].update(counts)
        seen["multi_row"] += len(helpers) > 1
        return got

    monkeypatch.setattr(protocol, "_pair_decode", checked)
    for _ in range(10):
        dist = random_distribution(rng, (2, 2, 2), zero_frac=0.25)
        for scheme in ("PointP", "PointQ"):
            cfg = _config(scheme, dist, n=10, eps=0.9, delta=0.02,
                          seed=int(rng.integers(1 << 30)), mode=mode)
            r = RunContext(cfg).rates
            cfg.rates = dataclasses.replace(r, r_z=r.r_z / 2, r_x=r.r_x / 2, r_y=r.r_y / 2)
            ctx = RunContext(cfg)
            for i in range(6):
                ctx.run(i)
    assert seen["own_first"] == {True, False}
    assert seen["status"] == {STATUS_OK, STATUS_AMBIGUOUS, STATUS_NO_CANDIDATE}
    assert seen["counts"] == {0, 1, 2}
    assert seen["multi_row"] > 0


class _Survivors:
    """Stage-1 stand-in whose bin holds the given helper rows, in order."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.int64)

    def scan_bin_filter(self, observed, codebook, target, want="unique"):
        return self.rows


# n = 16 on a uniform 2x2x2 pmf at epsilon = 0.9: every (x, y, z) count lies
# in [1, 3], so a (helper, own) class of size 2, 3, 4, 5 or 6 has 2, 6, 14,
# 20 or 20 z arrangements
_OWN = np.repeat([0, 1], 8)
_SMALL = np.tile(np.repeat([0, 1], [2, 6]), 2)      # class sizes 2, 2, 6, 6: 1,600
_LARGE = np.tile(np.repeat([0, 1], [4, 4]), 2)      # class sizes 4, 4, 4, 4: 38,416
_LARGE_TOO = np.tile(np.repeat([1, 0], [4, 4]), 2)  # the same sizes, other positions


def _uniform_stage2(cap=typicality.DEFAULT_SEARCH_CAP, rate=0.0):
    params = TypicalityParams(0.9, 16)
    eng = CandidateEngine(np.full((2, 2, 2), 1 / 8), params, cap=cap)
    return eng, make_codebook(MODE_HASH, 16, 2, rate, 0.0, seed=9, purpose="Z")


@pytest.mark.parametrize("rows,status", [
    ([_SMALL], STATUS_AMBIGUOUS),
    ([_SMALL, _LARGE], STATUS_AMBIGUOUS),
    ([_LARGE, _SMALL], STATUS_OVERFLOW)],
    ids=["two-matches", "overflow-after-two", "overflow-before-two"])
def test_pair_decode_stops_where_a_survivor_scan_would(rows, status):
    """With one z bin every candidate matches, so the first survivor under
    the cap has two matches; a survivor over the cap (38,416 > 20,000)
    overflows only if it comes first.
    """
    eng2, cb2 = _uniform_stage2(cap=20_000)
    args = (_Survivors(rows), None, None, 0, eng2, _OWN, cb2, 0)
    got = _pair_decode(*args, own_first=False)
    assert got == (status, None, None)
    _assert_same_decode(got, _reference_pair_decode(*args, own_first=False))


@pytest.mark.parametrize("own_first", [False, True])
def test_batched_stage2_sends_join_sized_groups_row_by_row(monkeypatch, own_first):
    """A KeyedHash group of at least JOIN_MIN_CANDIDATES candidates per row
    is scanned row by row, through the residue join; the small group next
    to it is not."""
    eng2, cb2 = _uniform_stage2(rate=2.0)
    assert cb2.num_bins >= typicality.JOIN_MIN_BINS
    helpers = np.array([_SMALL, _LARGE, _LARGE_TOO])
    z = next(eng2.iter_candidates((_OWN, _LARGE) if own_first else (_LARGE, _OWN)))
    target = cb2.bin_index(z)
    want_counts, want_first = _reference_rows(eng2, helpers, _OWN, own_first, cb2, target)
    scanned, joins = [], []
    scan, join = CandidateEngine.scan_bin_filter, typicality._residue_join

    def spy_scan(self, observed, *args):
        scanned.append(observed[int(own_first)])
        return scan(self, observed, *args)

    def spy_join(*args):
        joins.append(args)
        return join(*args)

    monkeypatch.setattr(CandidateEngine, "scan_bin_filter", spy_scan)
    monkeypatch.setattr(typicality, "_residue_join", spy_join)
    counts, first = eng2.scan_bin_filter_rows(helpers, _OWN, own_first, cb2, target)
    # z is the first candidate of the first large row; the other may hold it too
    assert counts == want_counts and counts[:2] == [0, 1]
    assert np.array_equal(first, z) and np.array_equal(want_first, z)
    assert np.array_equal(scanned, [_LARGE, _LARGE_TOO])
    assert len(joins) == 2
