"""Acceptance gate: nine checks with pinned tolerances and runtime budgets.

Each test prints one PASS/FAIL line. Numbers quoted in assertions come from
independent small-instance oracles (direct atom summation, brute-force
filtering, a second law-construction code path) frozen before the
implementation existed.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

from conftest import random_distribution
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.exact import ExactEvaluator, lemma1_check, oracle_codebooks, oracle_secrecy
from skpk.protocol import RunContext, SchemeConfig, derive_rates
from skpk.region import halfplanes, rate_region
from skpk.sources import (conditional_entropy, dump_pmf, entropy, info_profile,
                          mutual_information, noisy_copy_triple, xor_triple,
                          doubly_symmetric_xz)
from skpk.typicality import TypicalityParams, conditional_candidates, is_strongly_typical


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _thousand_pmfs():
    rng = np.random.default_rng(1000)
    out = []
    for _ in range(1000):
        shape = tuple(int(s) for s in rng.integers(1, 5, size=3))
        out.append(random_distribution(rng, shape, zero_frac=0.15))
    return out


_PMFS = _thousand_pmfs()


def test_criterion_1_information_identities():
    start = time.monotonic()
    worst = 0.0
    for d in _PMFS:
        total = (entropy(d, "X") + entropy(d, "Y") + entropy(d, "Z")
                 - entropy(d, "XYZ"))
        for split in ((("X", "Z"), ("Y", "XZ")),
                      (("Y", "Z"), ("X", "YZ")),
                      (("XY", "Z"), ("X", "Y"))):
            (a1, b1), (a2, b2) = split
            value = mutual_information(d, a1, b1) + mutual_information(d, a2, b2)
            worst = max(worst, abs(total - value))
    elapsed = time.monotonic() - start
    _verdict("criterion 1: three total-correlation identities on 1000 pmfs",
             worst <= 1e-10 and elapsed < 5.0,
             f"worst={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_2_region_geometry():
    start = time.monotonic()
    worst_match = 0.0
    worst_plane = -1.0
    for d in _PMFS:
        region = rate_region(d)
        planes = halfplanes(region.constants)
        for r_s, r_p in region.vertices:
            best = min(max(abs(r_s - p[0]), abs(r_p - p[1]))
                       for p in region.named_points.values())
            worst_match = max(worst_match, best)
            for a, b, c in planes:
                worst_plane = max(worst_plane, a * r_s + b * r_p - c)
    elapsed = time.monotonic() - start
    _verdict("criterion 2: polygon vertices match the named construction",
             worst_match <= 1e-8 and worst_plane <= 1e-9 and elapsed < 5.0,
             f"match={worst_match:.2e} slack={worst_plane:.2e} elapsed={elapsed:.2f}s")


def test_criterion_3_xor_region_values():
    start = time.monotonic()
    region = rate_region(xor_triple())
    c = region.constants
    consts_ok = (abs(c.r_a - 1.0) <= 1e-12 and abs(c.r_b - 1.0) <= 1e-12
                 and abs(c.r_c - 0.5) <= 1e-12 and abs(c.pk - 1.0) <= 1e-12)
    case_ok = region.case_label == "Case2"
    want = [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0)]
    got = sorted((v[0], v[1]) for v in region.vertices)
    verts_ok = len(got) == 3 and all(
        abs(a - b) <= 1e-9 for p, q in zip(got, want) for a, b in zip(p, q))
    elapsed = time.monotonic() - start
    _verdict("criterion 3: xor-source region constants, case, and corners",
             consts_ok and case_ok and verts_ok and elapsed < 1.0,
             f"case={region.case_label} elapsed={elapsed:.2f}s")


def test_criterion_4_typicality_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(3, 11))
        w = rng.random((2, 2)) * (rng.random((2, 2)) >= 0.25)
        if w.sum() <= 0:
            w[0, 0] = 1.0
        pmf = w / w.sum()
        params = TypicalityParams(epsilon=float(rng.uniform(0.15, 0.95)), n=n)
        observed = rng.integers(0, 2, size=n)
        got = {tuple(s) for s in conditional_candidates((observed,), pmf, params)}
        want = set()
        for tail in itertools.product(range(2), repeat=n):
            seqs = (observed, np.array(tail, dtype=np.int64))
            if is_strongly_typical(seqs, pmf, params):
                want.add(tail)
        if got != want:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict("criterion 4: candidate generation equals brute-force filtering",
             mismatches == 0 and elapsed < 30.0,
             f"mismatches={mismatches} elapsed={elapsed:.2f}s")


def test_criterion_5_binning_rate_contrast():
    """Reconstruction of Z^n from its bin succeeds above the conditional
    entropy and fails below it; the pinned parameters demand a 0.5
    error-rate gap.

    The measured event is the binning error given a typical source pair:
    over the trials whose true (X^n, Z^n) is jointly typical under the
    decoder's own rule, the fraction where X does not recover Z^n. Only that
    event depends on the bin rate; an atypical true pair fails at every rate
    and is reported but not counted.
    """
    start = time.monotonic()
    dist = doubly_symmetric_xz(0.1)
    h_z_given_x = conditional_entropy(dist, "Z", "X")
    xz_pmf = dist.marginal("XZ")
    trials = 500
    arms = {}
    for shift in (+0.2, -0.2):
        base = derive_rates("PointP", info_profile(dist), epsilon=0.3, delta=0.05)
        rates = dataclasses.replace(base, r_z=h_z_given_x + shift)
        cfg = SchemeConfig(scheme="PointP", dist=dist, n=48, epsilon=0.3,
                           delta=0.05, master_seed=48, codebook_mode=MODE_HASH,
                           rates=rates)
        ctx = RunContext(cfg)
        typical = bad_typical = bad = 0
        for i in range(trials):
            run = ctx.run(i)
            got = run.recovered["z_at_X"]
            wrong = got is None or not np.array_equal(got, run.triple.z_seq)
            bad += wrong
            if is_strongly_typical((run.triple.x_seq, run.triple.z_seq), xz_pmf,
                                   cfg.params):
                typical += 1
                bad_typical += wrong
        arms[shift] = (typical, bad_typical / typical if typical else math.nan,
                       bad / trials)
    (typ_low, err_low, _), (typ_high, err_high, _) = arms[-0.2], arms[+0.2]
    contrast = err_low - err_high
    elapsed = time.monotonic() - start
    detail = " ".join(f"{name}: typical={t}/{trials} err|typical={c:.3f} err={u:.3f}"
                      for name, (t, c, u) in (("low", arms[-0.2]), ("high", arms[+0.2])))
    _verdict("criterion 5: bin-rate contrast of 0.5 across the entropy threshold",
             typ_low > 0 and typ_high > 0 and contrast >= 0.5 and elapsed < 300.0,
             f"{detail} contrast={contrast:.3f} elapsed={elapsed:.1f}s")


def test_criterion_6_subbin_entropy_bound():
    start = time.monotonic()
    stats = lemma1_check(np.array([0.5, 0.5]), n=10, r_s=0.35, r_z=0.35,
                         codebook_count=20, delta=0.05, seed=0)
    elapsed = time.monotonic() - start
    _verdict("criterion 6: mean conditional entropy under the 0.35 bound",
             stats.mean <= 0.35 and elapsed < 60.0,
             f"mean={stats.mean:.6f} bound=0.35 elapsed={elapsed:.1f}s")


def test_criterion_7_exact_secrecy_trend():
    """Secret-key leakage must not grow with n, K_S must be near uniform at
    n=8, and the evaluator must agree with the brute-force oracle on every
    ensemble member.

    On xor PointP at epsilon=0.25 the secret-key rate r_s clamps to 0, so K_S
    takes a single value at every n: the leakage is 0, h8 and rate8 are 0,
    and the first two parts hold trivially. The detail line reports per
    blocklength the key sizes, r_s, r_p and the clamped rates, so that shows.
    """
    start = time.monotonic()
    dist = xor_triple()
    leaks = []
    h_at_8 = rate_at_8 = None
    oracle_worst = 0.0
    sizes = []
    for n in (4, 6, 8):
        cfg = SchemeConfig(scheme="PointP", dist=dist, n=n, epsilon=0.25,
                           delta=0.05, master_seed=7, codebook_mode=MODE_TABLE)
        result = ExactEvaluator(cfg).evaluate(50)
        leaks.append(result.mean.leak_ks)
        rates = result.rates
        sizes.append(f"n={n}: ks_size={result.ks_size} kp_size={result.kp_size} "
                     f"r_s={rates.r_s:.4f} r_p={rates.r_p:.4f} "
                     f"clamped={','.join(rates.clamped) or 'none'}")
        if n == 8:
            h_at_8 = result.mean.h_ks
            rate_at_8 = math.log2(result.ks_size) / n
        for k, stats in enumerate(result.per_codebook):
            ref = oracle_secrecy(cfg, oracle_codebooks(cfg, k))
            oracle_worst = max(oracle_worst,
                               abs(stats.leak_kp - ref["leak_kp"]),
                               abs((stats.leak_ks or 0.0) - (ref["leak_ks"] or 0.0)))
    trend_ok = all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))
    uniform_ok = h_at_8 >= rate_at_8 - 0.15
    elapsed = time.monotonic() - start
    _verdict("criterion 7: ensemble leakage trend, uniformity floor, dual-path oracle",
             trend_ok and uniform_ok and oracle_worst <= 1e-12 and elapsed < 600.0,
             f"leaks={[f'{l:.3e}' for l in leaks]} h8={h_at_8:.4f} "
             f"rate8={rate_at_8:.4f} oracle_diff={oracle_worst:.2e} "
             f"{'; '.join(sizes)} elapsed={elapsed:.1f}s")


def test_criterion_8_agreement_trend_markov():
    """All-terminal secret-key agreement at 200 trials must separate by two
    binomial sigmas between n=12 and n=24 on the 0.1/0.3 chain source.

    The source is Markov Y - X - Z, so RunContext redirects the requested
    PointQ to PointP, and PointP's secret-key rate r_s clamps to 0, so K_S
    takes a single value. The detail line reports, per blocklength, the
    scheme actually run, the decoding engines whose count window is empty
    for some cell (no sequence is typical, every decode is NoCandidate), and
    the key size.
    """
    start = time.monotonic()
    dist = noisy_copy_triple(0.1, 0.3)
    trials = 200
    agree = {}
    runs = []
    for n in (12, 24):
        cfg = SchemeConfig(scheme="PointQ", dist=dist, n=n, epsilon=0.1,
                           delta=0.05, master_seed=24, codebook_mode=MODE_HASH)
        ctx = RunContext(cfg)
        hits = 0
        for i in range(trials):
            out = ctx.run(i).outcome
            claims = list(out.ks_claims.values())
            if claims and all(v is not None for v in claims) and len(set(claims)) == 1:
                hits += 1
        agree[n] = hits / trials
        empty = ",".join(name for name, eng in sorted(ctx.engines.items())
                         if np.any(eng.lo > eng.hi)) or "none"
        scheme = ctx.scheme + (" (redirected from PointQ)" if ctx.redirected else "")
        runs.append(f"n={n}: scheme={scheme} empty_windows={empty} "
                    f"ks_size={out.ks_size}")
    p12, p24 = agree[12], agree[24]
    sigma = math.sqrt((p12 * (1 - p12) + p24 * (1 - p24)) / trials)
    separated = p24 - p12 > 2 * max(sigma, 1e-12)
    elapsed = time.monotonic() - start
    _verdict("criterion 8: key agreement strictly improves with blocklength",
             separated and elapsed < 600.0,
             f"p12={p12:.3f} p24={p24:.3f} sigma={sigma:.4f} {'; '.join(runs)} "
             f"elapsed={elapsed:.1f}s")


def test_criterion_9_reproducibility(tmp_path):
    start = time.monotonic()
    pmf = tmp_path / "xor.json"
    dump_pmf(xor_triple(), pmf)
    sim = [sys.executable, "-m", "skpk.cli", "simulate", "--pmf", str(pmf),
           "--scheme", "pointT", "--n", "6", "--trials", "40",
           "--epsilon", "0.6", "--delta", "0.02", "--seed", "5"]
    exact = [sys.executable, "-m", "skpk.cli", "secrecy-exact", "--pmf", str(pmf),
             "--scheme", "pointP", "--n", "4", "--trials", "3",
             "--epsilon", "0.9", "--delta", "0.01", "--seed", "5"]
    outputs = []
    for workers in ("1", "3", "1"):
        env = dict(os.environ, SKPK_WORKERS=workers)
        outputs.append(subprocess.run(sim, capture_output=True, env=env).stdout)
    exact_outputs = [subprocess.run(exact, capture_output=True).stdout
                     for _ in range(2)]
    same = (outputs[0] == outputs[1] == outputs[2]
            and exact_outputs[0] == exact_outputs[1])
    elapsed = time.monotonic() - start
    _verdict("criterion 9: byte-identical reports across reruns and worker counts",
             same and len(outputs[0]) > 0 and elapsed < 60.0,
             f"bytes={len(outputs[0])} elapsed={elapsed:.1f}s")
