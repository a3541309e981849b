"""Exact secrecy, uniformity, and agreement at small blocklength.

Instead of sampling, enumerate every source sequence triple with positive
probability, weight it by the product pmf, and push the enumeration through
the same codebooks and decode rules the protocol runners use. Joint laws of
keys against transcripts come out in closed form, so mutual information,
entropy, agreement, and recovery-error numbers are exact for each codebook.

Three layers:

ExactEvaluator   vectorized path used by the harness; table codebooks only.
oracle_secrecy   deliberately independent brute-force path: pure-Python
                 iteration over sequences, per-sequence public bin_index
                 calls, dict-accumulated laws. Exists to cross-check the
                 vectorized path, so it shares no law-building code with it.
lemma1_check     exact conditional entropy of Z^n given its bin and sub-bin
                 index, against the achievability bound that the binning
                 argument needs, with the proof's occupancy diagnostics.
"""

import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .binning import MODE_TABLE, make_codebook, stream_tag
from .errors import CapacityError, UsageError
from .protocol import RunContext, SchemeConfig
from .sources import JointDistribution, _entropy_of
from .typicality import count_windows

EXACT_PRODUCT_CAP = 2 ** 24

_ENSEMBLE_TAG = stream_tag("codebook-ensemble")
_LEMMA_TAG = stream_tag("lemma1-codebook")

_ST_OK, _ST_NONE, _ST_AMB = 0, 1, 2
_STATUS_NAMES = {_ST_OK: "OK", _ST_NONE: "NoCandidate", _ST_AMB: "Ambiguous"}


def _fsum(values) -> float:
    return math.fsum(float(v) for v in values)


def _entropy_masses(masses) -> float:
    return math.fsum(-float(m) * math.log2(float(m)) for m in masses if m > 0)


@dataclass
class CodebookExact:
    """Exact quantities for one codebook draw. Entropies and leakages are in
    bits per symbol; None marks a key the scheme does not assign.
    """

    leak_ks: float
    leak_kp: float
    h_ks: float
    h_kp: float
    agree_ks: float
    agree_kp: float
    status_mass: dict
    recovery_error: dict


@dataclass
class ExactResult:
    scheme: str
    redirected: bool
    n: int
    num_codebooks: int
    ks_size: int
    kp_size: int
    rates: object
    per_codebook: list
    mean: CodebookExact


class _Enumeration:
    """All support sequences of the product source, as per-variable sequence
    codes plus probabilities.
    """

    def __init__(self, dist: JointDistribution, n: int, cap: int):
        ax, ay, az = dist.alphabet_sizes
        if (ax * ay * az) ** n > cap:
            raise CapacityError(
                f"({ax}*{ay}*{az})**{n} sequence triples exceed the exact-mode "
                f"cap {cap}")
        atoms = dist.support_atoms()
        m = len(atoms)
        if m == 0:
            raise UsageError("distribution has empty support")
        x_of = np.array([a[0] for a in atoms], dtype=np.int64)
        y_of = np.array([a[1] for a in atoms], dtype=np.int64)
        z_of = np.array([a[2] for a in atoms], dtype=np.int64)
        p_of = np.array([dist.pmf[a] for a in atoms], dtype=np.float64)
        total = m ** n
        codes = np.arange(total, dtype=np.int64)
        x_idx = np.zeros(total, dtype=np.int64)
        y_idx = np.zeros(total, dtype=np.int64)
        z_idx = np.zeros(total, dtype=np.int64)
        prob = np.ones(total, dtype=np.float64)
        for t in range(n):
            d = (codes // (m ** (n - 1 - t))) % m
            x_idx = x_idx * ax + x_of[d]
            y_idx = y_idx * ay + y_of[d]
            z_idx = z_idx * az + z_of[d]
            prob = prob * p_of[d]
        self.n = n
        self.sizes = (ax, ay, az)
        self.x_idx, self.y_idx, self.z_idx = x_idx, y_idx, z_idx
        self.prob = prob


def _seq_of(idx: int, size: int, n: int) -> np.ndarray:
    seq = np.empty(n, dtype=np.int64)
    rem = int(idx)
    for t in range(n - 1, -1, -1):
        seq[t] = rem % size
        rem //= size
    return seq


def _group_slices(sorted_vals):
    """(start, stop) of each equal-value run in a sorted array."""
    if len(sorted_vals) == 0:
        return
    edges = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    bounds = np.concatenate([[0], edges, [len(sorted_vals)]])
    for i in range(len(bounds) - 1):
        yield int(bounds[i]), int(bounds[i + 1])


def _draw_member_codebooks(ctx: RunContext, k: int) -> dict:
    """Explicit-table codebooks of the k-th ensemble member: the native
    codebooks' shapes and rates, redrawn from a seed derived from k.
    """
    cfg = ctx.config
    seed = int(np.random.SeedSequence(
        [cfg.master_seed, _ENSEMBLE_TAG, int(k)]).generate_state(1, np.uint64)[0])
    return {terminal: make_codebook(MODE_TABLE, cb.n, cb.alphabet_size, cb.bin_rate,
                                    cb.sub_rate, seed, purpose=cb.purpose,
                                    table_cap=cfg.table_cap)
            for terminal, cb in ctx.codebooks.items()}


class ExactEvaluator:
    """Per-codebook exact laws for a one-shot scheme configuration."""

    def __init__(self, config: SchemeConfig, exact_cap: int = EXACT_PRODUCT_CAP):
        if config.codebook_mode != MODE_TABLE:
            raise UsageError("exact evaluation requires ExplicitTable codebooks")
        self.config = config
        self.ctx = RunContext(config)
        if self.ctx.scheme == "TimeShare":
            self.parts = [None if p is None else ExactEvaluator(p.config, exact_cap)
                          for p in self.ctx.parts]
            self.enum = None
            return
        self.parts = None
        self.enum = _Enumeration(self.ctx.canonical_dist, config.n, exact_cap)
        self._cand1 = {}
        self._cand2 = {}

    # -- candidate caches (codebook independent) ---------------------------

    def _cands_single(self, eng_key, obs_size, obs_idx):
        key = (eng_key, int(obs_idx))
        got = self._cand1.get(key)
        if got is None:
            seq = _seq_of(obs_idx, obs_size, self.enum.n)
            got = self.ctx.engines[eng_key].candidate_indices((seq,))
            self._cand1[key] = got
        return got

    def _cands_pair(self, eng_key, sizes, idx_pair):
        key = (eng_key, int(idx_pair[0]), int(idx_pair[1]))
        got = self._cand2.get(key)
        if got is None:
            seqs = (_seq_of(idx_pair[0], sizes[0], self.enum.n),
                    _seq_of(idx_pair[1], sizes[1], self.enum.n))
            got = self.ctx.engines[eng_key].candidate_indices(seqs)
            self._cand2[key] = got
        return got

    # -- exact decode tables -----------------------------------------------

    def _unique_exact(self, eng_key, obs_size, obs_idx, cb, targets):
        n_el = len(obs_idx)
        status = np.full(n_el, _ST_NONE, dtype=np.int8)
        rec = np.full(n_el, -1, dtype=np.int64)
        order = np.argsort(obs_idx, kind="stable")
        sorted_obs = obs_idx[order]
        for start, stop in _group_slices(sorted_obs):
            members = order[start:stop]
            cands = self._cands_single(eng_key, obs_size, sorted_obs[start])
            if len(cands) == 0:
                continue
            bins = cb.bins_of_indices(cands)
            bo = np.argsort(bins, kind="stable")
            sb = bins[bo]
            firsts = np.concatenate([[0], np.flatnonzero(sb[1:] != sb[:-1]) + 1])
            ub = sb[firsts]
            counts = np.diff(np.concatenate([firsts, [len(sb)]]))
            first_cand = cands[bo[firsts]]
            fv = targets[members]
            pos = np.searchsorted(ub, fv)
            safe = np.minimum(pos, len(ub) - 1)
            found = ub[safe] == fv
            cnt = np.where(found, counts[safe], 0)
            status[members] = np.where(cnt == 0, _ST_NONE,
                                       np.where(cnt == 1, _ST_OK, _ST_AMB))
            rec[members] = np.where(cnt == 1, first_cand[safe], -1)
        return status, rec

    def _unique_exact_pair_obs(self, eng_key, sizes, obs1_idx, obs2_idx, valid,
                               cb, targets):
        """Unique decode with two observed sequences; elements where valid is
        False are left as NoCandidate for the caller to overwrite.
        """
        n_el = len(obs1_idx)
        status = np.full(n_el, _ST_NONE, dtype=np.int8)
        rec = np.full(n_el, -1, dtype=np.int64)
        idx_el = np.flatnonzero(valid)
        if len(idx_el) == 0:
            return status, rec
        big = int(obs2_idx[idx_el].max()) + 1
        combo = obs1_idx[idx_el] * big + obs2_idx[idx_el]
        order = idx_el[np.argsort(combo, kind="stable")]
        sorted_combo = obs1_idx[order] * big + obs2_idx[order]
        for start, stop in _group_slices(sorted_combo):
            members = order[start:stop]
            pair = (int(obs1_idx[members[0]]), int(obs2_idx[members[0]]))
            cands = self._cands_pair(eng_key, sizes, pair)
            if len(cands) == 0:
                continue
            bins = cb.bins_of_indices(cands)
            bo = np.argsort(bins, kind="stable")
            sb = bins[bo]
            firsts = np.concatenate([[0], np.flatnonzero(sb[1:] != sb[:-1]) + 1])
            ub = sb[firsts]
            counts = np.diff(np.concatenate([firsts, [len(sb)]]))
            first_cand = cands[bo[firsts]]
            fv = targets[members]
            pos = np.searchsorted(ub, fv)
            safe = np.minimum(pos, len(ub) - 1)
            found = ub[safe] == fv
            cnt = np.where(found, counts[safe], 0)
            status[members] = np.where(cnt == 0, _ST_NONE,
                                       np.where(cnt == 1, _ST_OK, _ST_AMB))
            rec[members] = np.where(cnt == 1, first_cand[safe], -1)
        return status, rec

    def _pair_exact(self, own_idx, own_size, eng1_key, cb1, t1,
                    eng2_key, pair_sizes, cb2, t2, own_first):
        """Unique (helper, z) pair decode: helper candidates filtered by bin
        t1, each extended by z candidates filtered by bin t2; unique means one
        surviving pair overall. Everything is counted exactly.
        """
        n_el = len(own_idx)
        status = np.full(n_el, _ST_NONE, dtype=np.int8)
        rec_h = np.full(n_el, -1, dtype=np.int64)
        rec_z = np.full(n_el, -1, dtype=np.int64)
        # (helper bin, z bin) packs into one uint64 in lexicographic order
        z_bits = (cb2.num_bins - 1).bit_length()
        if (cb1.num_bins - 1).bit_length() + z_bits > 64:
            raise CapacityError(
                f"{cb1.num_bins} x {cb2.num_bins} bin pairs do not pack into 64 bits")
        shift = np.uint64(z_bits)
        order = np.argsort(own_idx, kind="stable")
        sorted_own = own_idx[order]
        for start, stop in _group_slices(sorted_own):
            members = order[start:stop]
            own = int(sorted_own[start])
            helpers = self._cands_single(eng1_key, own_size, own)
            if len(helpers) == 0:
                continue
            hbins = cb1.bins_of_indices(helpers)
            z_parts, hb_parts, hid_parts = [], [], []
            for hj, hb in zip(helpers.tolist(), hbins.tolist()):
                pair = (own, hj) if own_first else (hj, own)
                zc = self._cands_pair(eng2_key, pair_sizes, pair)
                if len(zc) == 0:
                    continue
                z_parts.append(zc)
                hb_parts.append(np.full(len(zc), hb, dtype=np.uint64))
                hid_parts.append(np.full(len(zc), hj, dtype=np.int64))
            if not z_parts:
                continue
            z_all = np.concatenate(z_parts)
            hb_all = np.concatenate(hb_parts)
            hid_all = np.concatenate(hid_parts)
            zb_all = cb2.bins_of_indices(z_all)
            code = (hb_all << shift) | zb_all
            so = np.argsort(code, kind="stable")
            code_s, h_s, z_s = code[so], hid_all[so], z_all[so]
            q = (t1[members].astype(np.uint64) << shift) | t2[members].astype(np.uint64)
            left = np.searchsorted(code_s, q, side="left")
            right = np.searchsorted(code_s, q, side="right")
            cnt = right - left
            status[members] = np.where(cnt == 0, _ST_NONE,
                                       np.where(cnt == 1, _ST_OK, _ST_AMB))
            safe = np.minimum(left, len(code_s) - 1)
            rec_h[members] = np.where(cnt == 1, h_s[safe], -1)
            rec_z[members] = np.where(cnt == 1, z_s[safe], -1)
        return status, rec_h, rec_z

    # -- law and mass helpers ----------------------------------------------

    def _mass(self, mask) -> float:
        # the memoryview yields Python floats one at a time, with no list
        return math.fsum(memoryview(self.enum.prob[mask]))

    def _status_mass(self, st) -> dict:
        return {name: self._mass(st == code) for code, name in _STATUS_NAMES.items()}

    def _law_entropy(self, cols, sizes) -> float:
        """Entropy in bits of the joint law of integer columns."""
        packed_limit = 2 ** 62
        span = 1
        for s in sizes:
            span *= int(s)
        if span < packed_limit:
            code = np.zeros(len(self.enum.prob), dtype=np.int64)
            for col, s in zip(cols, sizes):
                code = code * int(s) + col.astype(np.int64)
            _, inverse = np.unique(code, return_inverse=True)
        else:
            stacked = np.stack([c.astype(np.int64) for c in cols], axis=1)
            _, inverse = np.unique(stacked, axis=0, return_inverse=True)
        masses = np.bincount(inverse, weights=self.enum.prob)
        return _entropy_masses(masses)

    def _claim(self, sub_table_cb, rec, st, use_sub=True):
        safe = np.where(rec >= 0, rec, 0)
        vals = (sub_table_cb.sub_bins_of_indices(safe) if use_sub else safe)
        return np.where((rec >= 0) & (st == _ST_OK), vals.astype(np.int64), -1)

    # -- per-scheme evaluation ----------------------------------------------

    def _member_codebooks(self, k: int) -> dict:
        return _draw_member_codebooks(self.ctx, k)

    def _eval_one(self, cbs) -> CodebookExact:
        handler = {"PointP": self._eval_p, "PointQ": self._eval_q,
                   "PointT": self._eval_t, "PointE": self._eval_e}[self.ctx.scheme]
        stats = handler(cbs)
        if self.ctx.swapped:
            stats = self._relabel(stats)
        return stats

    def evaluate_native(self) -> CodebookExact:
        """Exact laws for the very codebooks the sampling runner uses, so
        Monte Carlo frequencies can be checked against exact masses.
        """
        if self.parts is not None:
            live = [p for p in self.parts if p is not None]
            stats = [p.evaluate_native() for p in live]
            if len(stats) == 1:
                return stats[0]
            na = live[0].config.n
            nb = live[1].config.n
            return _combine_parts(stats[0], stats[1], na, nb, self.config.n)
        return self._eval_one(self.ctx.codebooks)

    def evaluate(self, num_codebooks: int) -> ExactResult:
        if num_codebooks < 1:
            raise UsageError("exact evaluation needs at least one codebook")
        if self.parts is not None:
            return self._evaluate_time_share(num_codebooks)
        per = []
        for k in range(num_codebooks):
            per.append(self._eval_one(self._member_codebooks(k)))
        ks_size = self.ctx.codebooks["Z"].num_sub_bins if "Z" in self.ctx.codebooks else 1
        kp_size = self.ctx.codebooks["X"].num_sub_bins
        return ExactResult(scheme=self.ctx.scheme, redirected=self.ctx.redirected,
                           n=self.config.n, num_codebooks=num_codebooks,
                           ks_size=ks_size, kp_size=kp_size, rates=self.ctx.rates,
                           per_codebook=per, mean=_mean_stats(per))

    def _relabel(self, s: CodebookExact) -> CodebookExact:
        sw = RunContext._swap_terminal
        return CodebookExact(
            leak_ks=s.leak_ks, leak_kp=s.leak_kp, h_ks=s.h_ks, h_kp=s.h_kp,
            agree_ks=s.agree_ks, agree_kp=s.agree_kp,
            status_mass={sw(k): v for k, v in s.status_mass.items()},
            recovery_error={RunContext._swap_recovered_key(k): v
                            for k, v in s.recovery_error.items()})

    def _eval_p(self, cbs) -> CodebookExact:
        e = self.enum
        ax, ay, az = e.sizes
        cbz, cbx = cbs["Z"], cbs["X"]
        f = cbz.bins_of_indices(e.z_idx)
        phi = cbz.sub_bins_of_indices(e.z_idx).astype(np.int64)
        g = cbx.bins_of_indices(e.x_idx)
        psi = cbx.sub_bins_of_indices(e.x_idx).astype(np.int64)
        st_x, z_at_x = self._unique_exact("xz", ax, e.x_idx, cbz, f)
        st_y, x_at_y, z_at_y = self._pair_exact(
            e.y_idx, ay, "yx", cbx, g, "xyz", (ax, ay), cbz, f, own_first=False)
        ks_x = self._claim(cbz, z_at_x, st_x)
        ks_y = self._claim(cbz, z_at_y, st_y)
        kp_y = self._claim(cbx, x_at_y, st_y)
        n = float(e.n)
        h_f = self._law_entropy([f, g], [cbz.num_bins, cbx.num_bins])
        h_phi = self._law_entropy([phi], [cbz.num_sub_bins])
        h_psi = self._law_entropy([psi], [cbx.num_sub_bins])
        leak_ks = (h_phi + h_f - self._law_entropy(
            [phi, f, g], [cbz.num_sub_bins, cbz.num_bins, cbx.num_bins])) / n
        h_fz = self._law_entropy([f, g, e.z_idx],
                                 [cbz.num_bins, cbx.num_bins, az ** e.n])
        leak_kp = (h_psi + h_fz - self._law_entropy(
            [psi, f, g, e.z_idx],
            [cbx.num_sub_bins, cbz.num_bins, cbx.num_bins, az ** e.n])) / n
        agree_ks = self._mass((ks_x >= 0) & (ks_y >= 0)
                              & (ks_x == phi) & (ks_y == phi))
        agree_kp = self._mass((kp_y >= 0) & (kp_y == psi))
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_phi / n, h_kp=h_psi / n,
            agree_ks=agree_ks, agree_kp=agree_kp,
            status_mass={"Z": {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0},
                         "X": self._status_mass(st_x), "Y": self._status_mass(st_y)},
            recovery_error={
                "z_at_X": 1.0 - self._mass((st_x == _ST_OK) & (z_at_x == e.z_idx)),
                "z_at_Y": 1.0 - self._mass((st_y == _ST_OK) & (z_at_y == e.z_idx)),
                "x_at_Y": 1.0 - self._mass((st_y == _ST_OK) & (x_at_y == e.x_idx))})

    def _eval_q(self, cbs) -> CodebookExact:
        e = self.enum
        ax, ay, az = e.sizes
        cbz, cbx, cby = cbs["Z"], cbs["X"], cbs["Y"]
        f = cbz.bins_of_indices(e.z_idx)
        phi = cbz.sub_bins_of_indices(e.z_idx).astype(np.int64)
        g = cbx.bins_of_indices(e.x_idx)
        psi = cbx.sub_bins_of_indices(e.x_idx).astype(np.int64)
        ell = cby.bins_of_indices(e.y_idx)
        st_x, y_at_x, z_at_x = self._pair_exact(
            e.x_idx, ax, "xy", cby, ell, "xyz", (ax, ay), cbz, f, own_first=True)
        st_y, x_at_y, z_at_y = self._pair_exact(
            e.y_idx, ay, "yx", cbx, g, "xyz", (ax, ay), cbz, f, own_first=False)
        ks_x = self._claim(cbz, z_at_x, st_x)
        ks_y = self._claim(cbz, z_at_y, st_y)
        kp_y = self._claim(cbx, x_at_y, st_y)
        n = float(e.n)
        sizes_f = [cbz.num_bins, cbx.num_bins, cby.num_bins]
        h_f = self._law_entropy([f, g, ell], sizes_f)
        h_phi = self._law_entropy([phi], [cbz.num_sub_bins])
        h_psi = self._law_entropy([psi], [cbx.num_sub_bins])
        leak_ks = (h_phi + h_f - self._law_entropy(
            [phi, f, g, ell], [cbz.num_sub_bins] + sizes_f)) / n
        h_fz = self._law_entropy([f, g, ell, e.z_idx], sizes_f + [az ** e.n])
        leak_kp = (h_psi + h_fz - self._law_entropy(
            [psi, f, g, ell, e.z_idx],
            [cbx.num_sub_bins] + sizes_f + [az ** e.n])) / n
        agree_ks = self._mass((ks_x >= 0) & (ks_y >= 0)
                              & (ks_x == phi) & (ks_y == phi))
        agree_kp = self._mass((kp_y >= 0) & (kp_y == psi))
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_phi / n, h_kp=h_psi / n,
            agree_ks=agree_ks, agree_kp=agree_kp,
            status_mass={"Z": {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0},
                         "X": self._status_mass(st_x), "Y": self._status_mass(st_y)},
            recovery_error={
                "y_at_X": 1.0 - self._mass((st_x == _ST_OK) & (y_at_x == e.y_idx)),
                "z_at_X": 1.0 - self._mass((st_x == _ST_OK) & (z_at_x == e.z_idx)),
                "x_at_Y": 1.0 - self._mass((st_y == _ST_OK) & (x_at_y == e.x_idx)),
                "z_at_Y": 1.0 - self._mass((st_y == _ST_OK) & (z_at_y == e.z_idx))})

    def _eval_t(self, cbs) -> CodebookExact:
        e = self.enum
        ax, ay, az = e.sizes
        cbz, cbx = cbs["Z"], cbs["X"]
        f = cbz.bins_of_indices(e.z_idx)
        phi = cbz.sub_bins_of_indices(e.z_idx).astype(np.int64)
        g = cbx.bins_of_indices(e.x_idx)
        psi = cbx.sub_bins_of_indices(e.x_idx).astype(np.int64)
        st_x, z_at_x = self._unique_exact("xz", ax, e.x_idx, cbz, f)
        st_yz, z_at_y = self._unique_exact("yz", ay, e.y_idx, cbz, f)
        st_yx, x_at_y = self._unique_exact_pair_obs(
            "yzx", (ay, az), e.y_idx, z_at_y, st_yz == _ST_OK, cbx, g)
        st_y = np.where(st_yz != _ST_OK, st_yz, st_yx)
        ks_x = self._claim(cbz, z_at_x, st_x)
        ks_y = self._claim(cbz, z_at_y, st_yz)
        kp_y = self._claim(cbx, x_at_y, st_yx)
        n = float(e.n)
        h_f = self._law_entropy([f, g], [cbz.num_bins, cbx.num_bins])
        h_phi = self._law_entropy([phi], [cbz.num_sub_bins])
        h_psi = self._law_entropy([psi], [cbx.num_sub_bins])
        leak_ks = (h_phi + h_f - self._law_entropy(
            [phi, f, g], [cbz.num_sub_bins, cbz.num_bins, cbx.num_bins])) / n
        h_fz = self._law_entropy([f, g, e.z_idx],
                                 [cbz.num_bins, cbx.num_bins, az ** e.n])
        leak_kp = (h_psi + h_fz - self._law_entropy(
            [psi, f, g, e.z_idx],
            [cbx.num_sub_bins, cbz.num_bins, cbx.num_bins, az ** e.n])) / n
        agree_ks = self._mass((ks_x >= 0) & (ks_y >= 0)
                              & (ks_x == phi) & (ks_y == phi))
        agree_kp = self._mass((kp_y >= 0) & (kp_y == psi))
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_phi / n, h_kp=h_psi / n,
            agree_ks=agree_ks, agree_kp=agree_kp,
            status_mass={"Z": {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0},
                         "X": self._status_mass(st_x), "Y": self._status_mass(st_y)},
            recovery_error={
                "z_at_X": 1.0 - self._mass((st_x == _ST_OK) & (z_at_x == e.z_idx)),
                "z_at_Y": 1.0 - self._mass((st_yz == _ST_OK) & (z_at_y == e.z_idx)),
                "x_at_Y": 1.0 - self._mass((st_yx == _ST_OK) & (x_at_y == e.x_idx))})

    def _eval_e(self, cbs) -> CodebookExact:
        e = self.enum
        ax, ay, az = e.sizes
        cbx = cbs["X"]
        g = cbx.bins_of_indices(e.x_idx)
        psi = cbx.sub_bins_of_indices(e.x_idx).astype(np.int64)
        valid = np.ones(len(e.x_idx), dtype=bool)
        st_y, x_at_y = self._unique_exact_pair_obs(
            "yzx", (ay, az), e.y_idx, e.z_idx, valid, cbx, g)
        kp_y = self._claim(cbx, x_at_y, st_y)
        n = float(e.n)
        h_psi = self._law_entropy([psi], [cbx.num_sub_bins])
        h_fz = self._law_entropy([e.z_idx, g], [az ** e.n, cbx.num_bins])
        leak_kp = (h_psi + h_fz - self._law_entropy(
            [psi, e.z_idx, g], [cbx.num_sub_bins, az ** e.n, cbx.num_bins])) / n
        agree_kp = self._mass((kp_y >= 0) & (kp_y == psi))
        ok = {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0}
        return CodebookExact(
            leak_ks=None, leak_kp=leak_kp, h_ks=None, h_kp=h_psi / n,
            agree_ks=None, agree_kp=agree_kp,
            status_mass={"Z": dict(ok), "X": dict(ok), "Y": self._status_mass(st_y)},
            recovery_error={
                "z_at_X": 0.0, "z_at_Y": 0.0,
                "x_at_Y": 1.0 - self._mass((st_y == _ST_OK) & (x_at_y == e.x_idx))})

    # -- time sharing --------------------------------------------------------

    def _evaluate_time_share(self, num_codebooks: int) -> ExactResult:
        live = [(p, part) for p, part in zip(self.parts, self.ctx.parts)
                if p is not None]
        results = [p.evaluate(num_codebooks) for p, _ in live]
        if len(results) == 1:
            single = results[0]
            return ExactResult(scheme="TimeShare", redirected=False,
                               n=self.config.n, num_codebooks=num_codebooks,
                               ks_size=single.ks_size, kp_size=single.kp_size,
                               rates=single.rates, per_codebook=single.per_codebook,
                               mean=single.mean)
        ra, rb = results
        na, nb = ra.n, rb.n
        n = self.config.n
        per = [_combine_parts(a, b, na, nb, n)
               for a, b in zip(ra.per_codebook, rb.per_codebook)]
        return ExactResult(scheme="TimeShare", redirected=False, n=n,
                           num_codebooks=num_codebooks,
                           ks_size=ra.ks_size * rb.ks_size,
                           kp_size=ra.kp_size * rb.kp_size,
                           rates=ra.rates, per_codebook=per, mean=_mean_stats(per))


def _wavg(a, na, b, nb, n):
    if a is None and b is None:
        return None
    return ((a or 0.0) * na + (b or 0.0) * nb) / n


def _prod_or_none(a, b):
    if a is None and b is None:
        return None
    x = 1.0 if a is None else a
    y = 1.0 if b is None else b
    return x * y


def _combine_parts(a: CodebookExact, b: CodebookExact, na, nb, n) -> CodebookExact:
    status = {}
    for t in ("X", "Y", "Z"):
        ma = a.status_mass.get(t, {"OK": 1.0})
        mb = b.status_mass.get(t, {"OK": 1.0})
        names = set(ma) | set(mb)
        combined = {}
        for s in names:
            if s == "OK":
                combined[s] = ma.get("OK", 0.0) * mb.get("OK", 0.0)
            else:
                combined[s] = ma.get(s, 0.0) + ma.get("OK", 0.0) * mb.get(s, 0.0)
        status[t] = combined
    recovery = {}
    for key in set(a.recovery_error) | set(b.recovery_error):
        if key in a.recovery_error and key in b.recovery_error:
            ea, eb = a.recovery_error[key], b.recovery_error[key]
            recovery[key] = 1.0 - (1.0 - ea) * (1.0 - eb)
        else:
            recovery[key] = 1.0
    return CodebookExact(
        leak_ks=_wavg(a.leak_ks, na, b.leak_ks, nb, n),
        leak_kp=_wavg(a.leak_kp, na, b.leak_kp, nb, n),
        h_ks=_wavg(a.h_ks, na, b.h_ks, nb, n),
        h_kp=_wavg(a.h_kp, na, b.h_kp, nb, n),
        agree_ks=_prod_or_none(a.agree_ks, b.agree_ks),
        agree_kp=_prod_or_none(a.agree_kp, b.agree_kp),
        status_mass=status, recovery_error=recovery)


def _mean_field(values):
    present = [v for v in values if v is not None]
    if not present:
        return None
    return _fsum(present) / len(values) if len(present) == len(values) else (
        _fsum(present) / len(present))


def _mean_stats(per) -> CodebookExact:
    status = {}
    for t in per[0].status_mass:
        names = set()
        for s in per:
            names |= set(s.status_mass[t])
        status[t] = {name: _fsum(s.status_mass[t].get(name, 0.0) for s in per) / len(per)
                     for name in sorted(names)}
    recovery = {key: _fsum(s.recovery_error[key] for s in per) / len(per)
                for key in per[0].recovery_error}
    return CodebookExact(
        leak_ks=_mean_field([s.leak_ks for s in per]),
        leak_kp=_mean_field([s.leak_kp for s in per]),
        h_ks=_mean_field([s.h_ks for s in per]),
        h_kp=_mean_field([s.h_kp for s in per]),
        agree_ks=_mean_field([s.agree_ks for s in per]),
        agree_kp=_mean_field([s.agree_kp for s in per]),
        status_mass=status, recovery_error=recovery)


def exact_secrecy_stats(config: SchemeConfig, num_codebooks: int,
                        exact_cap: int = EXACT_PRODUCT_CAP) -> ExactResult:
    """Exact per-codebook and ensemble-mean quantities for a configuration."""
    if exact_cap > EXACT_PRODUCT_CAP:
        print(f"warning: exact-mode cap raised to {exact_cap}; expect long runtimes",
              file=sys.stderr)
    return ExactEvaluator(config, exact_cap).evaluate(num_codebooks)


# ---------------------------------------------------------------------------
# Brute-force oracle: a second, deliberately naive computation of the laws


class _Lookups(dict):
    """Sequence -> lookup result, computing each missing entry once."""

    def __init__(self, lookup):
        super().__init__()
        self._lookup = lookup

    def __missing__(self, seq):
        value = self[seq] = self._lookup(seq)
        return value


def oracle_secrecy(config: SchemeConfig, codebooks: dict,
                   full_alphabet: bool = False) -> dict:
    """Recompute leakage and key entropy by direct sequence iteration.

    Walks every source sequence triple in pure Python, calls the public
    bin_index / sub_bin_index once per distinct sequence and codebook,
    accumulates the joint laws in dictionaries, and takes entropies with
    compensated summation. Shares no law construction with ExactEvaluator,
    which is the point. Returns normalized {leak_ks, leak_kp, h_ks, h_kp}.

    full_alphabet iterates the whole alphabet cube including zero-probability
    atoms instead of just the support; triples of probability zero are
    skipped before any lookup.
    """
    ctx = RunContext(config)
    if ctx.scheme == "TimeShare":
        raise UsageError("the oracle covers one-shot schemes only")
    if ctx.swapped:
        raise UsageError("the oracle covers the canonical orientation only")
    dist = ctx.canonical_dist
    n = config.n
    ax, ay, az = dist.alphabet_sizes
    if full_alphabet:
        atoms = [(x, y, z) for x in range(ax) for y in range(ay) for z in range(az)]
    else:
        atoms = dist.support_atoms()
    pmf = {a: float(dist.pmf[a]) for a in atoms}
    scheme = ctx.scheme
    cbz = codebooks.get("Z")
    cbx = codebooks["X"]
    cby = codebooks.get("Y")

    def z_code(zs):
        code = 0
        for v in zs:
            code = code * az + v
        return code

    # one public lookup per distinct sequence and codebook
    x_keys = _Lookups(lambda xs: (cbx.bin_index(xs), cbx.sub_bin_index(xs)))
    if scheme == "PointE":
        z_keys = _Lookups(z_code)
    else:
        z_keys = _Lookups(lambda zs: (z_code(zs), cbz.bin_index(zs),
                                      cbz.sub_bin_index(zs)))
    y_keys = _Lookups(cby.bin_index) if scheme == "PointQ" else None
    x_of, y_of, z_of = (operator.itemgetter(i) for i in range(3))
    law_key_f = {}
    law_f = {}
    law_kp_fz = {}
    law_fz = {}
    law_phi = {}
    law_psi = {}
    for combo in itertools.product(atoms, repeat=n):
        prob = 1.0
        for a in combo:
            prob *= pmf[a]
        if prob <= 0.0:
            continue
        g, psi = x_keys[tuple(map(x_of, combo))]
        zs = tuple(map(z_of, combo))
        if scheme == "PointE":
            zc = z_keys[zs]
            f_tuple = (zc, g)
            phi = None
        else:
            zc, f, phi = z_keys[zs]
            if scheme == "PointQ":
                f_tuple = (f, g, y_keys[tuple(map(y_of, combo))])
            else:
                f_tuple = (f, g)
        fz_tuple = f_tuple + (zc,)
        law_f[f_tuple] = law_f.get(f_tuple, 0.0) + prob
        law_fz[fz_tuple] = law_fz.get(fz_tuple, 0.0) + prob
        law_psi[psi] = law_psi.get(psi, 0.0) + prob
        kp_key = (psi,) + fz_tuple
        law_kp_fz[kp_key] = law_kp_fz.get(kp_key, 0.0) + prob
        if phi is not None:
            law_phi[phi] = law_phi.get(phi, 0.0) + prob
            ks_key = (phi,) + f_tuple
            law_key_f[ks_key] = law_key_f.get(ks_key, 0.0) + prob

    def ent(d):
        return _entropy_masses(d.values())

    leak_ks = None
    h_ks = None
    if law_phi:
        leak_ks = (ent(law_phi) + ent(law_f) - ent(law_key_f)) / n
        h_ks = ent(law_phi) / n
    leak_kp = (ent(law_psi) + ent(law_fz) - ent(law_kp_fz)) / n
    return {"leak_ks": leak_ks, "leak_kp": leak_kp,
            "h_ks": h_ks, "h_kp": ent(law_psi) / n}


def oracle_codebooks(config: SchemeConfig, k: int) -> dict:
    """The k-th ensemble member's codebooks, as the evaluator draws them."""
    if config.codebook_mode != MODE_TABLE:
        raise UsageError("exact evaluation requires ExplicitTable codebooks")
    return _draw_member_codebooks(RunContext(config), k)


# ---------------------------------------------------------------------------
# Conditional-entropy verifier for the sub-bin construction


@dataclass
class Lemma1Stats:
    """Exact (1/n) H(Z^n | f, phi, C) per codebook against its target bound.

    f is the bin index at rate r_z, phi the sub-bin index at rate r_s. The
    diagnostics mirror the two bad events of the underlying argument:
    e1_atypical_mass is the probability that Z^n falls outside the typical
    set, and e2_fractions holds, per codebook, the fraction of (f, phi) cells
    whose typical-sequence occupancy reaches twice its expectation.
    """

    n: int
    r_s: float
    r_z: float
    delta: float
    epsilon: float
    h_z: float
    bound: float
    num_bins: int
    num_sub_bins: int
    per_codebook: tuple
    mean: float
    satisfied: bool
    e1_atypical_mass: float
    typical_count: int
    expected_occupancy: float
    e2_fractions: tuple
    e2_mean: float


def lemma1_check(z_pmf, n: int, r_s: float, r_z: float, codebook_count: int,
                 delta: float, seed: int, epsilon: float = 0.1,
                 cap: int = EXACT_PRODUCT_CAP) -> Lemma1Stats:
    """Exact H(Z^n | f, phi, C) for sampled explicit codebooks.

    Since (f, phi) is a deterministic function of z^n, the conditional
    entropy equals n H(Z) - H(f, phi), and H(f, phi) comes from exact cell
    masses over the full |Z|^n enumeration. epsilon only feeds the typicality
    diagnostics, not the entropy itself.
    """
    z_pmf = np.asarray(z_pmf, dtype=np.float64).ravel()
    if abs(float(z_pmf.sum()) - 1.0) > 1e-9 or z_pmf.min() < 0:
        raise UsageError("z marginal must be a pmf")
    az = len(z_pmf)
    h_z = _entropy_of(z_pmf)
    if not (r_s + r_z < h_z - 2 * delta):
        raise UsageError(
            f"precondition violated: R_S + R_Z = {r_s + r_z} is not below "
            f"H(Z) - 2*delta = {h_z - 2 * delta}")
    if r_s < 0 or r_z < 0:
        raise UsageError("rates must be >= 0")
    if codebook_count < 1:
        raise UsageError("codebook_count must be >= 1")
    if az ** n > cap:
        raise CapacityError(f"{az}**{n} sequences exceed the {cap} enumeration cap")

    total = az ** n
    codes = np.arange(total, dtype=np.int64)
    prob = np.ones(total, dtype=np.float64)
    sym_counts = np.zeros((total, az), dtype=np.int16)
    for t in range(n):
        d = (codes // (az ** (n - 1 - t))) % az
        prob = prob * z_pmf[d]
        sym_counts[np.arange(total), d] += 1
    lo, hi = count_windows(z_pmf, n, epsilon)
    typical = np.all((sym_counts >= lo) & (sym_counts <= hi), axis=1)
    typical_count = int(np.count_nonzero(typical))
    e1 = 1.0 - _fsum(prob[typical])
    expected_occupancy = typical_count * 2.0 ** (-n * (r_s + r_z))

    per = []
    e2 = []
    probe = make_codebook(MODE_TABLE, n, az, r_z, r_s, 0, purpose="Z", table_cap=cap)
    num_bins, num_sub = probe.num_bins, probe.num_sub_bins
    n_cells = num_bins * num_sub
    for k in range(codebook_count):
        cb_seed = int(np.random.SeedSequence(
            [int(seed), _LEMMA_TAG, k]).generate_state(1, np.uint64)[0])
        cb = make_codebook(MODE_TABLE, n, az, r_z, r_s, cb_seed, purpose="Z",
                           table_cap=cap)
        cells = (cb.bins_of_indices(codes).astype(np.int64) * num_sub
                 + cb.sub_bins_of_indices(codes).astype(np.int64))
        masses = np.bincount(cells, weights=prob, minlength=n_cells)
        h_cells = _entropy_masses(masses)
        per.append((n * h_z - h_cells) / n)
        occupancy = np.bincount(cells[typical], minlength=n_cells)
        e2.append(float(np.count_nonzero(occupancy >= 2.0 * expected_occupancy))
                  / n_cells)
    mean = _fsum(per) / len(per)
    bound = h_z - r_s - r_z + delta
    return Lemma1Stats(n=n, r_s=r_s, r_z=r_z, delta=delta, epsilon=epsilon,
                       h_z=h_z, bound=bound, num_bins=num_bins,
                       num_sub_bins=num_sub, per_codebook=tuple(per), mean=mean,
                       satisfied=bool(mean <= bound + 1e-12),
                       e1_atypical_mass=e1, typical_count=typical_count,
                       expected_occupancy=expected_occupancy,
                       e2_fractions=tuple(e2), e2_mean=_fsum(e2) / len(e2))
