import dataclasses
import math

import numpy as np
import pytest

from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import UsageError
from skpk.protocol import (STATUS_OK, STATUS_OVERFLOW, RunContext, SchemeConfig,
                           _pair_decode, _unique_decode, derive_rates, run_trial)
from skpk.sources import (JointDistribution, doubly_symmetric_xz,
                          identical_bits, info_profile, noisy_copy_triple,
                          xor_triple)
from skpk.typicality import CandidateEngine


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
    with pytest.raises(UsageError):
        derive_rates("PointT", prof, 0.1, -0.1)


def test_identical_bits_full_agreement():
    cfg = _config("PointT", identical_bits(), n=6, eps=0.5, delta=0.05, seed=2)
    run = run_trial(cfg, 0)
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
    run = run_trial(cfg, 1)
    assert run.outcome.ks_claims == {}
    assert run.outcome.ks_size == 1
    assert run.outcome.ks_owner is None
    assert run.outcome.kp_owner == "X"
    labels = [m.label for m in run.transcript.messages]
    assert labels == ["z-index", "g"]
    # Y observes z directly, so the z copies are always right
    assert np.array_equal(run.recovered["z_at_Y"], run.triple.z_seq)


def test_swapped_orientation_relabels():
    """A source with the stronger correlation on the Y side must produce the
    same numbers as its mirrored twin, with terminals renamed.
    """
    base = noisy_copy_triple(0.3, 0.1)
    mirrored = JointDistribution((2, 2, 2), np.transpose(base.pmf, (1, 0, 2)))
    cfg_m = _config("PointP", mirrored, n=10, eps=0.45, delta=0.02, seed=13)
    ctx_m = RunContext(cfg_m)
    assert ctx_m.swapped
    run = ctx_m.run(2)
    assert set(run.outcome.ks_claims) == {"Z", "X", "Y"}
    assert set(run.recovered) == {"z_at_X", "z_at_Y", "y_at_X"}
    assert {m.sender for m in run.transcript.messages} == {"Z", "Y"}
    assert run.outcome.kp_owner == "Y"

    cfg_c = _config("PointP", base, n=10, eps=0.45, delta=0.02, seed=13)
    ctx_c = RunContext(cfg_c)
    assert not ctx_c.swapped
    twin = ctx_c.run(2)
    # the mirrored run with labels swapped back tells the same story
    assert run.outcome.statuses["X"] == twin.outcome.statuses["Y"]
    assert run.outcome.statuses["Y"] == twin.outcome.statuses["X"]
    assert run.outcome.ks_claims["X"] == twin.outcome.ks_claims["Y"]


def test_time_share_combination():
    cfg = _config("TimeShare", identical_bits(), n=12, eps=0.5, delta=0.05,
                  seed=3, ts_schemes=("PointT", "PointT"), ts_lambda=0.5)
    ctx = RunContext(cfg)
    run = ctx.run(0)
    assert run.scheme == "TimeShare"
    labels = [m.label for m in run.transcript.messages]
    assert all(l.startswith(("A.", "B.")) for l in labels)
    part = run_trial(_config("PointT", identical_bits(), n=6, eps=0.5,
                             delta=0.05, seed=3), 0)
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
