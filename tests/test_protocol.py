import copy
import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import (identical_bits, listed_candidates, mirrored_noisy_copy,
                      random_distribution)
from skpk import protocol, typicality
from skpk.binning import MODE_HASH, MODE_TABLE, make_codebook
from skpk.errors import SearchOverflowError, UsageError
from skpk.harness import _trial_stats
from skpk.protocol import (SCHEME_TABLE, STATUS_AMBIGUOUS, STATUS_NO_CANDIDATE, STATUS_OK,
                           STATUS_OVERFLOW, RateAssignment, RunContext, SchemeConfig,
                           _pair_decode, _unique_decode, derive_rates)
from skpk.sources import (JointDistribution, SourceTriple, doubly_symmetric_xz,
                          info_profile, noisy_copy_triple, xor_triple)
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


@pytest.mark.parametrize("index", [1.5, 1.99, True, "3", None, -1])
def test_a_trial_index_is_an_integer_at_least_0(index):
    """run(trial_index) refuses a float, a bool, a string or a negative
    index with UsageError instead of running another trial; a numpy integer
    runs the trial of its value.
    """
    ctx = RunContext(_config("PointP", xor_triple(), n=8, eps=0.6, delta=0.02, seed=11))
    with pytest.raises(UsageError, match="trial_index must be"):
        ctx.run(index)
    assert repr(_trial_stats(ctx, ctx.run(np.int64(3)))) == repr(_trial_stats(ctx, ctx.run(3)))


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
    ctx = RunContext(cfg)
    run = ctx.run(1)
    assert run.outcome.ks_claims == {}
    assert ctx.ks_size == 1
    assert ctx.ks_owner is None
    assert ctx.kp_owner == "X"
    labels = [m.label for m in run.transcript.messages]
    assert labels == ["z-index", "g"]
    # Y observes z directly, so the z copies are always right
    assert np.array_equal(run.recovered["z_at_Y"], run.triple.z_seq)


@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_key_sizes_are_the_native_sub_bin_counts(mode):
    """ks_size and kp_size, known before the native set is drawn, are its key
    owners' sub-bin counts, for every scheme and orientation; the set is
    drawn on first read.
    """
    seen = set()
    for scheme in ("PointP", "PointQ", "PointT", "PointE"):
        for dist in (xor_triple(), mirrored_noisy_copy(0.25, 0.0)):
            ctx = RunContext(_config(scheme, dist, n=6, eps=0.45, delta=0.02, seed=3, mode=mode))
            assert "codebooks" not in vars(ctx)
            cbs = ctx.codebooks
            ks = cbs[ctx.ks_owner].num_sub_bins if ctx.ks_owner else 1
            assert (ctx.ks_size, ctx.kp_size) == (ks, cbs[ctx.kp_owner].num_sub_bins)
            assert (ctx.ks_owner is None) == (scheme == "PointE") == ("Z" not in cbs)
            seen.add((ctx.scheme, ctx.rates.orientation))
    assert {("PointP", "X"), ("PointP", "Y"), ("PointQ", "X"), ("PointT", "X"),
            ("PointE", "X")} <= seen


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
    assert (ctx_m.ks_owner, ctx_m.kp_owner) == ("Z", "Y")
    assert (ctx_m.ks_size, ctx_m.kp_size) == (ctx_c.ks_size, ctx_c.kp_size)
    both_ok = 0
    for i in range(200):
        run = ctx_m.run(i)
        t = run.triple
        twin = ctx_c.run_on_triple(SourceTriple(t.n, t.y_seq, t.x_seq, t.z_seq))
        out, ref = run.outcome, twin.outcome
        assert set(out.ks_claims) == {"Z", "X", "Y"}
        assert set(run.recovered) == {"z_at_X", "z_at_Y", "y_at_X"}
        # the mirrored run with labels swapped back tells the same story
        for field in ("statuses", "ks_claims", "kp_claims"):
            assert getattr(out, field) == {
                k.translate(_SWAP): v for k, v in getattr(ref, field).items()}, field
        for key, seq in twin.recovered.items():
            mine = run.recovered[key.translate(_SWAP)]
            assert (mine is None and seq is None) or np.array_equal(mine, seq), key
        assert [(m.sender, m.label, m.value) for m in run.transcript.messages] == [
            (m.sender.translate(_SWAP), m.label, m.value) for m in twin.transcript.messages]
        both_ok += out.statuses["X"] == out.statuses["Y"] == STATUS_OK
    assert (both_ok > 0) == decodes, both_ok


def test_time_share_combination():
    """A time-shared trial is its parts' runs on their halves of one triple
    sampled from the time-shared seed. The sampled member combines them:
    a terminal is OK and a copy is recovered only when both halves are,
    and a key is part A's key times part B's key size plus part B's, each
    part's key being its owner's sub-bin on that part's slice.
    """
    cfg = _config("TimeShare", identical_bits(), n=12, eps=0.5, delta=0.05,
                  seed=3, ts_schemes=("PointT", "PointT"), ts_lambda=0.5)
    ctx = RunContext(cfg)
    part = RunContext(_config("PointT", identical_bits(), n=6, eps=0.5,
                              delta=0.05, seed=3))
    assert ctx.ks_size == part.ks_size ** 2
    assert ctx.kp_size == part.kp_size ** 2
    triple = protocol.sample(cfg.dist, 12, np.random.SeedSequence([3, protocol._TRIAL_TAG, 0]))
    for run, (start, stop) in zip(ctx.run(0), ((0, 6), (6, 12))):
        assert (run.scheme, run.n) == ("PointT", 6)
        assert [m.label for m in run.transcript.messages] == ["f", "g"]
        for seq in ("x_seq", "y_seq", "z_seq"):
            assert np.array_equal(getattr(run.triple, seq), getattr(triple, seq)[start:stop])
    part_b = ctx.parts[1]
    for i in range(30):
        runs = ctx.run(i)
        member, ks, kp = _trial_stats(ctx, runs)
        ks_a, ks_b = (_owner_key(r, "Z") for r in runs)
        kp_a, kp_b = (_owner_key(r, "X") for r in runs)
        assert (ks, kp) == (ks_a * part_b.ks_size + ks_b, kp_a * part_b.kp_size + kp_b)
        both_ok = all(r.outcome.statuses["X"] == STATUS_OK for r in runs)
        assert member.status_mass["X"]["OK"] == float(both_ok)
        recovered = all(r.recovered["z_at_X"] is not None
                        and np.array_equal(r.recovered["z_at_X"], r.triple.z_seq)
                        for r in runs)
        assert member.recovery_error["z_at_X"] == float(not recovered)
        if both_ok:
            break
    else:
        raise AssertionError("no trial decoded in 30 attempts")
    # PointE has no secret key, so PointT's passes through
    ctx = RunContext(dataclasses.replace(cfg, dist=xor_triple(), ts_schemes=("PointE", "PointT")))
    for i in range(5):
        runs = ctx.run(i)
        assert runs[0].outcome.ks_claims == {}
        assert _trial_stats(ctx, runs)[1] == _owner_key(runs[1], "Z")
    # the parts' private keys have different owners: Y in PointP here, X in
    # PointE; each part's owner computes its own part of the key
    ctx = RunContext(dataclasses.replace(cfg, dist=mirrored_noisy_copy(0.25, 0.0),
                                         ts_schemes=("PointP", "PointE")))
    assert [p.kp_owner for p in ctx.parts] == ["Y", "X"]
    for i in range(5):
        runs = ctx.run(i)
        kp = _owner_key(runs[0], "Y") * ctx.parts[1].kp_size + _owner_key(runs[1], "X")
        assert _trial_stats(ctx, runs)[1:] == (_owner_key(runs[0], "Z"), kp)


def _owner_key(run, owner):
    """The sub-bin of owner's own sequence in a one-shot run."""
    seq = {"X": run.triple.x_seq, "Y": run.triple.y_seq, "Z": run.triple.z_seq}[owner]
    return run.codebooks[owner].sub_bin_index(seq)


def test_time_share_lambda_extremes():
    cfg = _config("TimeShare", xor_triple(), n=6, eps=0.5, delta=0.05, seed=3,
                  ts_schemes=("PointE", "PointT"), ts_lambda=0.0)
    ctx = RunContext(cfg)
    assert ctx.split == (0, 6)
    assert ctx.parts[0] is None
    first, lone = ctx.run(0)
    # the lone live part runs on the whole triple with its own labels, and
    # its member and claims pass through unchanged
    assert first is None
    assert (lone.scheme, lone.n) == ("PointT", 6)
    assert [m.label for m in lone.transcript.messages] == ["f", "g"]
    assert _trial_stats(ctx, [first, lone]) == _trial_stats(ctx.parts[1], lone)


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
    # a one-shot scheme refuses time-sharing parts instead of dropping them
    with pytest.raises(UsageError, match="ts_schemes is for TimeShare only"):
        _config("PointT", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                ts_schemes=("PointE",))
    # and a time-share split, even 0.5, the TimeShare default
    for ts_lambda in (7.0, 0.5):
        with pytest.raises(UsageError, match="ts_lambda is for TimeShare only"):
            _config("PointT", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                    ts_lambda=ts_lambda)


def test_time_share_split_defaults_to_half():
    cfg = _config("TimeShare", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                  ts_schemes=("PointE", "PointT"))
    assert cfg.ts_lambda == 0.5
    assert RunContext(cfg).split == (2, 2)


@pytest.mark.parametrize("kw", [
    {"n": 6.5}, {"n": True}, {"n": "6"}, {"seed": 3.0}, {"seed": "3"}, {"seed": False},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_config_refuses_non_integers(kw):
    """n and master_seed must be integers: a float, a string or a bool is
    refused before it can reach numpy or a comparison.
    """
    with pytest.raises(UsageError, match="must be integers"):
        _config("PointT", xor_triple(), eps=0.5, delta=0.05, **{"n": 6, "seed": 0, **kw})


@pytest.mark.parametrize("kw,message", [
    ({"eps": "0.1"}, "epsilon must lie in"), ({"eps": True}, "epsilon must lie in"),
    ({"delta": "0.05"}, "delta must be a finite number"),
    ({"delta": False}, "delta must be a finite number"),
    ({"scheme": "TimeShare", "ts_schemes": ("PointE", "PointT"), "ts_lambda": "0.5"},
     "ts_lambda must lie in"),
    ({"dist": np.ones(8) / 8}, "dist must be a JointDistribution, got ndarray")],
    ids=["epsilon-string", "epsilon-bool", "delta-string", "delta-bool", "ts_lambda-string",
         "dist-array"])
def test_config_refuses_settings_of_the_wrong_type(kw, message):
    """A real-valued setting that is not a number, and a dist that is not a
    JointDistribution, are refused by name when the config is built, not by
    a comparison's TypeError or a later AttributeError."""
    args = {"scheme": "PointT", "dist": xor_triple(), "n": 6, "eps": 0.5, "delta": 0.05,
            "seed": 0, **kw}
    with pytest.raises(UsageError, match=message):
        _config(**args)


@pytest.mark.parametrize("epsilon,delta,message", [
    ("0.1", 0.05, "epsilon must lie in"), (0.1, "0.05", "delta must be a finite number")])
def test_derived_rates_refuse_a_setting_that_is_not_a_number(epsilon, delta, message):
    with pytest.raises(UsageError, match=message):
        derive_rates("PointT", info_profile(xor_triple()), epsilon, delta)


def test_a_real_setting_past_the_largest_float_is_refused():
    """delta=10**400 once passed the check, then overflowed in the first
    rate that subtracted it from a float."""
    with pytest.raises(UsageError, match="delta must be a finite number >= 0, got 1000"):
        derive_rates("PointT", info_profile(xor_triple()), 0.5, 10 ** 400)
    with pytest.raises(UsageError, match="delta must be a finite number >= 0"):
        _config("PointT", xor_triple(), n=4, eps=0.5, delta=10 ** 400, seed=0)


def test_numpy_settings_derive_python_float_rates():
    """A float32 epsilon once made every binning rate float32: PointT's r_z
    on noisy_copy_triple(0.1, 0.3) was np.float32(1.2248187). A rates
    override is stored with float fields too.
    """
    prof = info_profile(noisy_copy_triple(0.1, 0.3))
    for scheme in ("PointE", "PointT", "PointP", "PointQ"):
        got = derive_rates(scheme, prof, np.float32(0.25), np.float32(0.0625))
        assert repr(got) == repr(derive_rates(scheme, prof, 0.25, 0.0625))
    override = RateAssignment(r_z=np.float32(1.5), r_x=np.int64(1), r_y=0, r_s=0.0, r_p=0.25)
    ctx = RunContext(_config("PointT", xor_triple(), n=4, eps=0.5, delta=0.05, seed=0,
                             rates=override))
    assert repr(ctx.rates) == repr(RateAssignment(r_z=1.5, r_x=1.0, r_y=0.0, r_s=0.0, r_p=0.25))


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


@pytest.mark.parametrize("scheme,bad", [
    ("PointP", dataclasses.asdict),
    ("PointP", lambda r: dataclasses.replace(r, orientation="Q")),
    ("PointP", lambda r: dataclasses.replace(r, r_z="1")),
    ("PointP", lambda r: dataclasses.replace(r, r_x=True)),
    ("PointP", lambda r: dataclasses.replace(r, r_y=math.nan)),
    ("PointP", lambda r: dataclasses.replace(r, r_s=math.inf)),
    ("PointP", lambda r: dataclasses.replace(r, r_p=-0.1)),
    ("TimeShare", lambda r: r),
    ("PointE", lambda r: dataclasses.replace(r, orientation="Y")),
    ("PointT", lambda r: dataclasses.replace(r, orientation="Y")),
    ("PointQ", lambda r: dataclasses.replace(r, orientation="Y")),
], ids=["dict", "orientation-Q", "string-rate", "bool-rate", "nan-rate", "inf-rate",
        "negative-rate", "time-share", "orientation-Y-PointE", "orientation-Y-PointT",
        "orientation-Y-PointQ"])
def test_run_context_refuses_bad_rates(scheme, bad):
    """An explicit rates override is checked where RunContext reads it: a
    RateAssignment of finite real rates >= 0 oriented "X" or "Y", "Y" only
    where the scheme runs as PointP (on xor PointQ is not redirected), and
    none at all for a TimeShare, whose parts derive their own.
    """
    kw = {"ts_schemes": ("PointP", "PointE")} if scheme == "TimeShare" else {}
    cfg = _config(scheme, xor_triple(), n=8, eps=0.5, delta=0.05, seed=0, **kw)
    cfg.rates = bad(derive_rates("PointP", info_profile(xor_triple()), 0.5, 0.05))
    with pytest.raises(UsageError, match="rates"):
        RunContext(cfg)


def test_orientation_y_override_runs_a_redirected_point_q_as_point_p():
    """A PointQ redirected to PointP (on a Markov Y-X-Z source) takes a
    rates override in orientation Y and runs PointP with X and Y swapped.
    """
    cfg = _config("PointQ", noisy_copy_triple(0.1, 0.3), n=8, eps=0.5, delta=0.05, seed=0)
    cfg.rates = dataclasses.replace(RunContext(cfg).rates, orientation="Y")
    ctx = RunContext(cfg)
    assert ctx.redirected and ctx.scheme == "PointP" and ctx.swapped
    assert ctx.desc == SCHEME_TABLE["PointP"].renamed() and ctx.kp_owner == "Y"
    assert ctx.run(0).outcome.kp_claims.keys() == {"Y", "X"}


def test_later_decode_steps_observe_what_their_first_step_saw():
    """The exact evaluator builds a later step's table from its terminal's
    first step's. So in every scheme, as listed and renamed, every terminal
    has at most two decode steps, and a later step observes only letters
    its first step observed or decoded.
    """
    for scheme in SCHEME_TABLE.values():
        for desc in (scheme, scheme.renamed()):
            for t in "XYZ":
                steps = [step for step in desc.decodes if step.terminal == t]
                assert len(steps) <= 2, (desc, t)
                for later in steps[1:]:
                    assert set(later.observed) <= set(steps[0].observed + steps[0].decoded)


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
            "eng2": ctx.engines["xyz"], "obs2": (None, y), "cb2": cbz, "target2": f}
    status, x_hat, z_hat = _pair_decode(**args)
    assert status == STATUS_OK
    assert np.array_equal(x_hat, x) and np.array_equal(z_hat, z)
    # stage 1 overflows before any helper survives
    stage1 = CandidateEngine(d.marginal("YX"), cfg.params, cap=1)
    assert _pair_decode(**dict(args, eng1=stage1)) == (STATUS_OVERFLOW, None, None)
    # stage 2 overflows on the first survivor: each has one z candidate here
    stage2 = CandidateEngine(d.marginal("XYZ"), cfg.params, cap=0)
    assert _pair_decode(**dict(args, eng2=stage2)) == (STATUS_OVERFLOW, None, None)


@pytest.mark.parametrize("scheme", ["PointP", "PointQ"])
def test_recovered_sequences_own_their_data(scheme):
    """Every recovered sequence is an array of its own, not a view that
    would keep a decode's whole candidate or survivor array alive in the
    run: helpers and z from pair decoding among them."""
    ctx = RunContext(_config(scheme, xor_triple(), n=8, eps=0.5, delta=0.05, seed=3))
    assert ctx.scheme == scheme
    runs = [ctx.run(i) for i in range(30)]
    pairs = [r for r in runs if r.outcome.statuses["Y"] == STATUS_OK]
    assert pairs and all(r.recovered["x_at_Y"] is not None for r in pairs)
    recovered = [seq for r in runs for seq in r.recovered.values() if seq is not None]
    assert all(seq.base is None for seq in recovered)


# sha256 of every decode of the sweep below: per trial and part, the
# statuses, recovered sequences and key claims
_DECODE_DIGEST = "6b68da22447f1ee25b3a09bdf92f28ef818b5a2289d988e1d8161f54bf8355ed"


@pytest.mark.parametrize("overrides", [{}, {"_SCAN_CHUNK": 16}, {"MATMUL_MIN_CELLS": 0},
                                       {"MATMUL_MIN_CELLS": 2 ** 62},
                                       {"JOIN_MIN_CANDIDATES": 1}],
                         ids=["default-chunk", "chunk-16", "product-sums", "gathered-sums",
                              "join"])
def test_decode_sweep_is_pinned(monkeypatch, overrides):
    """Six trials of every scheme, time sharing with parts of different
    private-key owners included, with KeyedHash and ExplicitTable codebooks,
    at n = 8 and 12 and epsilon 0.6, 0.9, at the derived rates and at
    halved bin rates (more survivors, more ambiguous decodes), on xor and a
    random 2x2x2 pmf with zero atoms. A 16-entry scan chunk cuts full
    products and residue joins into small blocks, every class sum may be
    formed by matrix products or by gathers, and every KeyedHash space with
    enough bins may be decoded by the residue join; the decodes must not
    change.
    """
    for name, value in overrides.items():
        monkeypatch.setattr(typicality, name, value)
    joins = []
    join = typicality._residue_join
    monkeypatch.setattr(typicality, "_residue_join",
                        lambda *a: joins.append(1) or join(*a))
    pmf = random_distribution(np.random.default_rng(14), (2, 2, 2), zero_frac=0.25)
    cases = [(scheme, dist, {}) for dist in (xor_triple(), pmf)
             for scheme in ("PointE", "PointT", "PointP", "PointQ")]
    cases.append(("TimeShare", mirrored_noisy_copy(0.25, 0.0),
                  {"ts_schemes": ("PointP", "PointE")}))
    digest, statuses = hashlib.sha256(), set()
    for (scheme, dist, kw), mode, n, eps, halve in itertools.product(
            cases, (MODE_HASH, MODE_TABLE), (8, 12), (0.6, 0.9), (False, True)):
        if halve and scheme == "TimeShare":
            continue
        cfg = _config(scheme, dist, n=n, eps=eps, delta=0.02, seed=5, mode=mode, **kw)
        if halve:
            r = RunContext(cfg).rates
            cfg.rates = dataclasses.replace(r, r_z=r.r_z / 2, r_x=r.r_x / 2, r_y=r.r_y / 2)
        ctx = RunContext(cfg)
        for i in range(6):
            run = ctx.run(i)
            for part in run if isinstance(run, list) else [run]:
                if part is None:
                    continue
                out = part.outcome
                statuses.update(out.statuses.values())
                recovered = sorted((k, None if v is None else v.tolist())
                                   for k, v in part.recovered.items())
                digest.update(repr((sorted(out.statuses.items()), recovered,
                                    sorted(out.ks_claims.items()),
                                    sorted(out.kp_claims.items()))).encode())
    assert statuses == {STATUS_OK, STATUS_AMBIGUOUS, STATUS_NO_CANDIDATE}
    assert bool(joins) == ("JOIN_MIN_CANDIDATES" in overrides)
    assert digest.hexdigest() == _DECODE_DIGEST


# -- batched stage 2 of pair decoding against one scan per survivor ----------

def _placed(obs2, helper):
    """Stage 2's observed tuple with the helper in the place of None."""
    return tuple(helper if s is None else s for s in obs2)


def _reference_rows(eng, helpers, obs2, cb, target):
    """Per helper row, the match count of one scan_bin_filter call with
    limit 2 (None where it overflows), and the first row's single match."""
    counts, first = [], None
    for row in helpers:
        try:
            found = eng.scan_bin_filter(_placed(obs2, row), cb, target, limit=2)
        except SearchOverflowError:
            counts.append(None)
            continue
        counts.append(len(found))
        if len(found) == 1 and first is None:
            first = found[0]
    return counts, first


def _reference_pair_decode(eng1, obs1, cb1, target1, eng2, obs2, cb2, target2):
    """Pair decoding that scans the survivors one at a time and stops at the
    first overflow or second match."""
    try:
        survivors = eng1.scan_bin_filter(obs1, cb1, target1)
    except SearchOverflowError:
        return STATUS_OVERFLOW, None, None
    total, first = 0, None
    for cand in survivors:
        try:
            found = eng2.scan_bin_filter(_placed(obs2, cand), cb2, target2, limit=2)
        except SearchOverflowError:
            return STATUS_OVERFLOW, None, None
        total += len(found)
        if len(found) == 1 and first is None:
            first = (cand, found[0])
        if total >= 2:
            return STATUS_AMBIGUOUS, None, None
    if total == 0:
        return STATUS_NO_CANDIDATE, None, None
    return STATUS_OK, *first


def _assert_same_decode(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a is None and b is None) or np.array_equal(a, b)


def _modular_sum(rng, q=3, sparse=False):
    """x on q symbols and y on two, their pairs weighted at random in
    [1, 2), and z = (x + y) mod q: z is forced in every (x, y) cell. sparse
    keeps one x with y = 0, which forces x in that class.
    """
    pxy = 1 + rng.random((q, 2))
    if sparse:
        pxy[rng.permutation(q)[1:], 0] = 0
    pmf = np.zeros((q, q, q))
    for x, y in itertools.product(range(q), range(2)):
        pmf[x, y, (x + y) % q] = pxy[x, y]
    return JointDistribution.create((q, q, q), pmf / pmf.sum())


@pytest.mark.parametrize("chunk", [None, 16], ids=["whole-products", "product-blocks-of-16"])
@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_pair_decode_matches_per_survivor_scans(rng, monkeypatch, mode, chunk):
    """On random 2x2x2 sources with zero atoms, PointP's step (own sequence
    second in stage 2) and PointQ's first step (own sequence first) decode as
    one scan per survivor does, and the stage-2 rows scan_pair scans give
    those scans' per-row counts, in order, up to the second match or the
    first overflow, where scan_pair stops. Halved bin rates
    leave several survivors and some ambiguous ones. A 16-entry scan chunk
    cuts every full product of more than 16 candidates into blocks.

    Sources with z = (x + y) mod 3 or mod 2 run stage 2 on engines without
    free cells, which scan_pair folds into one pass over stage 1: with own
    sequence first and second, one-bin and multi-bin stage-1 codebooks,
    stage-1 spaces above the chunk, a forced stage-1 class, and a copy of
    each stage-2 engine with a search cap of 0, which overflows where a
    helper in bin 1 fits stage 2's windows.
    """
    if chunk is not None:
        monkeypatch.setattr(typicality, "_SCAN_CHUNK", chunk)
    seen = {"own_first": set(), "status": set(), "counts": set(), "multi_row": 0,
            "forced": set(), "forced_own_first": set(), "forced_one_bin": set(),
            "forced_capped": set(), "above_chunk": 0, "stopped": 0}
    batched, scan_row, scanned = protocol._pair_decode, CandidateEngine._scan_row, []

    def spy_scan_row(self, *args):
        found = scan_row(self, *args)
        scanned.append((self, len(found)))
        return found

    def checked(*args):
        eng1, obs1, cb1, target1, eng2, obs2, cb2, target2 = args
        scanned.clear()
        got = batched(*args)
        counts = [count for eng, count in scanned if eng is eng2]
        _assert_same_decode(got, _reference_pair_decode(*args))
        if eng2.forced_only:
            capped = copy.copy(eng2)
            capped.cap = 0
            capped_args = (*args[:4], capped, *args[5:])
            capped_got = batched(*capped_args)
            _assert_same_decode(capped_got, _reference_pair_decode(*capped_args))
            seen["forced_capped"].add(capped_got[0])
        try:
            helpers = eng1.scan_bin_filter(obs1, cb1, target1)
        except SearchOverflowError:
            return got
        seen["own_first"].add(obs2[1] is None)
        seen["status"].add(got[0])
        seen["multi_row"] += len(helpers) > 1
        if eng2.forced_only:
            if len(helpers):
                seen["forced"].add(got[0])
                seen["forced_own_first"].add(obs2[1] is None)
                seen["forced_one_bin"].add(cb1.num_bins == 1)
                seen["above_chunk"] += (eng1.candidate_indices(obs1)[1][0]
                                        > typicality._SCAN_CHUNK)
            return got
        ref_counts, _ = _reference_rows(eng2, helpers, obs2, cb2, target2)
        assert counts == ref_counts[:len(counts)]
        rest = ref_counts[len(counts):]
        assert not rest or sum(counts) >= 2 or rest[0] is None
        seen["counts"].update(counts)
        seen["stopped"] += bool(rest) and rest[0] is not None
        return got

    monkeypatch.setattr(CandidateEngine, "_scan_row", spy_scan_row)
    monkeypatch.setattr(protocol, "_pair_decode", checked)
    sources = itertools.chain(
        (random_distribution(rng, (2, 2, 2), zero_frac=0.25) for _ in range(10)),
        (_modular_sum(rng) for _ in range(2)),
        (_modular_sum(rng, sparse=True),),
        (_modular_sum(rng, q=2) for _ in range(2)))
    for dist in sources:
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
    assert seen["multi_row"] > 0 and seen["stopped"] > 0
    assert seen["forced"] == {STATUS_OK, STATUS_AMBIGUOUS, STATUS_NO_CANDIDATE}
    assert seen["forced_own_first"] == seen["forced_one_bin"] == {True, False}
    assert seen["forced_capped"] == {STATUS_OVERFLOW, STATUS_NO_CANDIDATE}
    assert (seen["above_chunk"] > 0) == (chunk is not None)


@pytest.mark.parametrize("own_first", [False, True], ids=["own-second", "own-first"])
@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
def test_forced_pair_decode_keeps_what_stage2_windows_fit(rng, monkeypatch, mode, own_first):
    """Stage 2's windows need not be stage 1's. Here stage 2 is a forced
    engine of the same z = (x + y) mod 3 source with its masses reweighted,
    at epsilon 0.7 and 0.3 against stage 1's 0.9; x is forced at y = 0 in
    both. Its windows drop some of stage 1's count vectors, and the tight
    one rules out some sizes of the forced class outright. A third gives
    y = 2 mass, which stage 1 and every own sequence lack, so its absent
    class rules out every pair. With y = 1 made rarer, a stage 1 at epsilon
    1 - 1e-13 admits a zero count everywhere, so only its stage 2 rules out
    an absent y = 1. Over
    own sequences with every number of zeros, and every pair of targets, the
    fold decodes as the per-survivor reference does, and so does a stage-2
    copy with a search cap of 0.
    """
    n = 8
    d1 = _modular_sum(rng, sparse=True)
    pmf2 = d1.pmf * (1 + rng.random((3, 3, 3)))
    pmf2[:, 0] *= 0.4
    pmf3 = pmf2.copy()
    pmf3[range(3), 2, [2, 0, 1]] = 0.1

    def stage2(pmf, eps):
        pmf = np.transpose(pmf, (1, 0, 2)) if own_first else pmf
        return CandidateEngine(pmf / pmf.sum(), TypicalityParams(eps, n))

    eng1 = CandidateEngine(d1.marginal("YX"), TypicalityParams(0.9, n))
    light = d1.pmf * [[1], [0.3], [1]]
    loose = CandidateEngine(light.sum(axis=2).T / light.sum(), TypicalityParams(1 - 1e-13, n))
    eng2, tight, needs2 = stage2(pmf2, 0.7), stage2(pmf2, 0.3), stage2(pmf3, 0.7)
    needs1 = stage2(light, 0.9)
    capped = copy.copy(eng2)
    capped.cap = 0
    assert all(e.forced_only for e in (eng2, tight, needs2, needs1))
    assert not loose.lo.any()
    cb1 = make_codebook(mode, n, 3, 0.5, 0.0, seed=3, purpose="X")
    cb2 = make_codebook(mode, n, 3, 0.25, 0.0, seed=4, purpose="Z")
    dropped, statuses = [], set()
    kept = CandidateEngine._kept

    def spy_kept(self, fold, cell, m, mat):
        out = kept(self, fold, cell, m, mat)
        dropped.append(len(mat) - len(out))
        return out

    monkeypatch.setattr(CandidateEngine, "_kept", spy_kept)
    # own sequences with every number of zeros
    owns = [rng.permutation(np.arange(n) >= k).astype(np.int64) for k in range(n + 1)]
    engines = [(eng1, eng2), (eng1, tight), (eng1, capped), (eng1, needs2), (loose, needs1)]
    for own, t1, t2, (first, second) in itertools.product(
            owns, range(cb1.num_bins), range(cb2.num_bins), engines):
        args = (first, (own,), cb1, t1, second, (own, None) if own_first else (None, own),
                cb2, t2)
        got = _pair_decode(*args)
        _assert_same_decode(got, _reference_pair_decode(*args))
        if second is needs2 or (first is loose and not own.any()):
            assert got[0] == STATUS_NO_CANDIDATE
        statuses.add(got[0])
    assert statuses == set(protocol.STATUSES)
    assert max(dropped) > 0 and min(dropped) == 0


@pytest.mark.parametrize("scheme", ["PointP", "PointQ"])
def test_forced_stage2_pair_decode_lists_no_helper(monkeypatch, scheme):
    """On xor, z is forced in every (x, y) cell, so pair decoding runs as
    one pass over stage 1's classes: it calls no scan_bin_filter, runs none
    of stage 2's class machinery, and
    rebuilds at most the one helper it returns. Its decodes are the
    per-survivor reference's.
    """
    ctx = RunContext(_config(scheme, xor_triple(), n=10, eps=0.5, delta=0.05, seed=3))
    stage2 = ctx.engines["xyz"]
    assert stage2.forced_only
    calls, rebuilt, inside = [], [], []
    decode, reconstruct = protocol._pair_decode, CandidateEngine._reconstruct

    def recording(*args):
        inside.append(True)
        try:
            calls.append((args, decode(*args)))
        finally:
            inside.pop()
        return calls[-1][1]

    def spy_reconstruct(self, hits, *rest):
        if inside:
            rebuilt.append(len(hits))
        return reconstruct(self, hits, *rest)

    def guarded(name):
        method = getattr(CandidateEngine, name)

        def spy(self, *args, **kwargs):
            if inside and (self is stage2 or name == "scan_bin_filter"):
                raise AssertionError(f"{name} called in a forced pair decode")
            return method(self, *args, **kwargs)
        return spy

    for name in ("scan_bin_filter", "_row_sizes", "_size_tables", "_positions", "_sums",
                 "_hits"):
        monkeypatch.setattr(CandidateEngine, name, guarded(name))
    monkeypatch.setattr(CandidateEngine, "_reconstruct", spy_reconstruct)
    monkeypatch.setattr(protocol, "_pair_decode", recording)
    for i in range(30):
        ctx.run(i)
    assert {got[0] for _, got in calls} >= {STATUS_OK, STATUS_NO_CANDIDATE}
    assert rebuilt and max(rebuilt) == 1
    assert len(rebuilt) == sum(got[0] == STATUS_OK for _, got in calls)
    for args, got in calls:
        _assert_same_decode(got, _reference_pair_decode(*args))


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


def _survivors(rows):
    """A stage-1 engine whose bin holds the given helper rows, in order."""
    eng = CandidateEngine(np.full((2, 2), 1 / 4), TypicalityParams(0.9, 16))
    eng.scan_bin_filter = lambda *args, **kwargs: np.array(rows, dtype=np.int64)
    return eng


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
    args = (_survivors(rows), (_OWN,), None, 0, eng2, (None, _OWN), cb2, 0)
    got = _pair_decode(*args)
    assert got == (status, None, None)
    _assert_same_decode(got, _reference_pair_decode(*args))


def test_free_cell_pair_decode_stops_at_the_second_match(monkeypatch):
    """With one z bin every candidate matches, so the first survivor's 1,600
    candidates make the decode Ambiguous after one stage-2 row; the
    survivors after it are not scanned."""
    eng2, cb2 = _uniform_stage2()
    scanned, scan = [], CandidateEngine._scan_row

    def spy_scan(self, *args):
        scanned.append(self)
        return scan(self, *args)

    monkeypatch.setattr(CandidateEngine, "_scan_row", spy_scan)
    args = (_survivors([_SMALL, _SMALL, _LARGE]), (_OWN,), None, 0, eng2, (None, _OWN), cb2, 0)
    assert _pair_decode(*args) == (STATUS_AMBIGUOUS, None, None)
    assert scanned == [eng2]


@pytest.mark.parametrize("own_first", [False, True])
def test_batched_stage2_sends_join_sized_groups_row_by_row(monkeypatch, own_first):
    """Through scan_pair, every survivor of an engine with free cells, the
    small one included, is scanned alone by the single-row path on the cell
    codes _row_sizes computed; the two KeyedHash survivors of at least
    JOIN_MIN_CANDIDATES candidates go on through the residue join."""
    eng2, cb2 = _uniform_stage2(rate=2.0)
    assert cb2.num_bins >= typicality.JOIN_MIN_BINS
    obs2 = (_OWN, None) if own_first else (None, _OWN)
    helpers = np.array([_SMALL, _LARGE, _LARGE_TOO])
    eng1 = _survivors(helpers)
    z = listed_candidates(_placed(obs2, _LARGE), np.full((2, 2, 2), 1 / 8),
                          eng2.params)[0]
    target = cb2.bin_index(z)
    want_counts, want_first = _reference_rows(eng2, helpers, obs2, cb2, target)
    want = _reference_pair_decode(eng1, (_OWN,), None, 0, eng2, obs2, cb2, target)
    sized, scanned, joins = [], [], []
    sizes, scan, join = (CandidateEngine._row_sizes, CandidateEngine._scan_row,
                         typicality._residue_join)

    def spy_sizes(self, observed):
        sized.append(sizes(self, observed))
        return sized[-1]

    def spy_scan(self, codes, *args):
        scanned.append((codes, scan(self, codes, *args)))
        return scanned[-1][1]

    def spy_join(*args):
        joins.append(args)
        return join(*args)

    monkeypatch.setattr(CandidateEngine, "_row_sizes", spy_sizes)
    monkeypatch.setattr(CandidateEngine, "_scan_row", spy_scan)
    monkeypatch.setattr(typicality, "_residue_join", spy_join)
    count, pair = eng1.scan_pair((_OWN,), None, 0, eng2, own_first, cb2, target)
    # z is the first candidate of the first large row; the other may hold it too
    assert [len(found) for _, found in scanned] == want_counts and want_counts[:2] == [0, 1]
    assert np.array_equal(scanned[1][1][0], z) and np.array_equal(want_first, z)
    assert count == min(sum(want_counts), 2)
    _assert_same_decode((protocol._status(count), *(pair or (None, None))), want)
    if pair:
        assert np.array_equal(pair[0], _LARGE) and np.array_equal(pair[1], z)
        assert pair[0].base is None and pair[1].base is None
    cell_codes = [2 * a + b for a, b in (_placed(obs2, h) for h in helpers)]
    assert len(sized) == 1 and np.array_equal(sized[0][0], cell_codes)
    assert np.array_equal([codes for codes, _ in scanned], cell_codes)
    assert all(np.shares_memory(codes, sized[0][0]) for codes, _ in scanned)
    assert len(joins) == 2
