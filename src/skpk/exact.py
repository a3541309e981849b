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
from dataclasses import dataclass

import numpy as np

from .binning import MODE_TABLE, child_seed, make_codebook, num_bins_for_rate, stream_tag
from .errors import CapacityError, UsageError
from .protocol import TERMINALS, RunContext, SchemeConfig
from .sources import (JointDistribution, _clamp_mi, _entropy_masses, _entropy_of,
                      code_digits)
from .typicality import TypicalityParams, count_windows

EXACT_PRODUCT_CAP = 2 ** 24

_ENSEMBLE_TAG = stream_tag("codebook-ensemble")
_LEMMA_TAG = stream_tag("lemma1-codebook")

_ST_OK, _ST_NONE, _ST_AMB = 0, 1, 2
_STATUS_NAMES = {_ST_OK: "OK", _ST_NONE: "NoCandidate", _ST_AMB: "Ambiguous"}


@dataclass
class CodebookExact:
    """Exact quantities for one ensemble member: a codebook draw, or one
    sampled trial (a law with mass 1 on what happened). Entropies and
    leakages are in bits per symbol; None marks a key the scheme does not
    assign, or a quantity one trial cannot estimate.
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
    codes (idx, keyed by lowercase letter) plus probabilities.

    Atoms are taken in lexicographic order of their coordinates listed in
    axes; the order fixes the summation order of every law.
    """

    def __init__(self, dist: JointDistribution, n: int, cap: int, axes=(0, 1, 2)):
        ax, ay, az = dist.alphabet_sizes
        if (ax * ay * az) ** n > cap:
            raise CapacityError(
                f"({ax}*{ay}*{az})**{n} sequence triples exceed the exact-mode "
                f"cap {cap}")
        atoms = sorted(dist.support_atoms(), key=lambda a: [a[i] for i in axes])
        m = len(atoms)
        if m == 0:
            raise UsageError("distribution has empty support")
        of = np.array(atoms, dtype=np.int64).T
        p_of = np.array([dist.pmf[a] for a in atoms], dtype=np.float64)
        total = m ** n
        codes = np.arange(total, dtype=np.int64)
        idx = np.zeros((3, total), dtype=np.int64)
        prob = np.ones(total, dtype=np.float64)
        for d in code_digits(codes, m, n):
            for v, size in enumerate(dist.alphabet_sizes):
                idx[v] = idx[v] * size + of[v][d]
            prob = prob * p_of[d]
        self.n = n
        self.size = dict(zip("xyz", dist.alphabet_sizes))
        self.idx = dict(zip("xyz", idx))
        self.prob = prob


@dataclass
class _DecodeTable:
    """One decode step's candidates for every observed sequence of the
    elements it runs on, in one flat table. It depends on the codebooks only
    through the observed sequences and the terminal's earlier statuses.

    members are the elements it runs on whose observed sequences admit a
    candidate, sorted by group: each one's observed sequences, numbered by
    ascending code. A candidate holds a sequence code per decoded letter:
    cands has one aligned code array per letter, and cand_group the group
    of each candidate. Index arrays use the narrowest integer type that
    holds them.
    """

    members: np.ndarray
    group: np.ndarray
    num_groups: int
    cand_group: np.ndarray
    cands: list


def _narrow(a, bound):
    """a as the narrowest unsigned integer type that holds 0..bound."""
    return a.astype(np.min_scalar_type(bound))


def _match(table, code, span, query):
    """Status of each member's query among its group's candidate codes (OK
    when exactly one equals it) and the index of that one candidate, -1
    elsewhere. Codes lie in range(span). One sort keys every candidate by
    (group, code) packed into a uint64, or by (group, dense rank of the
    code) where the pack leaves no room.
    """
    if len(code) == 0:     # then there are no members either
        return np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64)
    if table.num_groups * span >= 2 ** 64:
        ranks, code = np.unique(code, return_inverse=True)
        at = np.minimum(np.searchsorted(ranks, query), len(ranks) - 1)
        query = np.where(ranks[at] == query, at, len(ranks))
        span = len(ranks) + 1
    span = np.uint64(span)
    key = table.cand_group.astype(np.uint64) * span + code.astype(np.uint64)
    # a pick is read only where its key is unique, so any sort order serves
    so = np.argsort(key)
    key = key[so]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_key = key[starts]
    q = table.group.astype(np.uint64) * span + query.astype(np.uint64)
    run = np.minimum(np.searchsorted(run_key, q), len(starts) - 1)
    cnt = np.where(run_key[run] == q, np.diff(starts, append=len(key))[run], 0)
    status = np.where(cnt == 0, _ST_NONE, np.where(cnt == 1, _ST_OK, _ST_AMB))
    return status, np.where(cnt == 1, so[starts[run]], -1)


def _draw_member_codebooks(ctx: RunContext, k: int) -> dict:
    """Explicit-table codebooks of the k-th ensemble member: the native
    codebooks' shapes and rates, redrawn from a seed derived from k.
    """
    seed = child_seed(ctx.config.master_seed, _ENSEMBLE_TAG, int(k))
    return {terminal: make_codebook(MODE_TABLE, cb.n, cb.alphabet_size, cb.bin_rate,
                                    cb.sub_rate, seed, purpose=cb.purpose)
            for terminal, cb in ctx.codebooks.items()}


class ExactEvaluator:
    """Per-codebook exact laws for a one-shot scheme configuration, read off
    the scheme's description like the sampling runner does.
    """

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
        # the middle terminal's coordinate leads the atom order
        axes = (1, 0, 2) if self.ctx.desc.kp_owner == "Y" else (0, 1, 2)
        self.enum = _Enumeration(config.dist, config.n, exact_cap, axes)
        # decode tables of the steps whose observed sequences and earlier
        # statuses no codebook draw changes, by step index, built at first use
        self._tables = {}

    # -- exact decode tables -----------------------------------------------

    def _step_table(self, step, observed, prior) -> _DecodeTable:
        """A decode step's table over the elements whose terminal has not
        failed before it, grouped by the sequences the step observes
        (observed, one column per letter it does not decode). Each decoded
        letter in turn extends every candidate so far by its engine's
        candidates, from one batched candidate_indices call per letter.
        Members of a group without candidates are dropped: they stay
        NoCandidate.
        """
        e = self.enum
        letters = [v for v in step.observed if v not in step.decoded]
        members = np.arange(len(e.prob)) if prior is None else np.flatnonzero(prior == _ST_OK)
        code = np.zeros(len(members), dtype=np.int64)
        for col, v in zip(observed, letters):
            code = code * e.size[v] ** e.n + col[members]
        rest, group = np.unique(code, return_inverse=True)
        num_groups, rows = len(rest), {}
        for v in reversed(letters):
            rest, last = np.divmod(rest, e.size[v] ** e.n)
            rows[v] = np.stack(list(code_digits(last, e.size[v], e.n)), axis=-1)
        cand_group, cands = np.arange(num_groups), []
        for key in step.engine_keys():
            found, per_row = self.ctx.engines[key].candidate_indices(
                tuple(rows[v] for v in key[:-1]))
            at = np.repeat(np.arange(len(per_row)), per_row)
            cand_group, cands = cand_group[at], [c[at] for c in cands] + [found]
            rows = {v: s[at] for v, s in rows.items()}
            rows[key[-1]] = np.stack(list(code_digits(found, e.size[key[-1]], e.n)), axis=-1)
        # grouped members make the per-member searches nearly sorted
        order = np.argsort(group, kind="stable")
        order = order[np.bincount(cand_group, minlength=num_groups)[group[order]] > 0]
        return _DecodeTable(
            _narrow(members[order], members[-1] if len(members) else 0),
            _narrow(group[order], num_groups), num_groups,
            _narrow(cand_group, num_groups), cands)

    def _unique_exact(self, i, step, cbs, values, recovered, prior):
        """Decode step i of each enumerated element whose terminal has not
        failed before it (prior: the status after its earlier steps, None
        at its first). A candidate matches when every decoded letter's bin
        is the announced one; unique means one match overall. Returns the
        status, NoCandidate where the step did not run, and per decoded
        letter the recovered code, -1 where none.
        """
        # the decoded letters' bins pack into one uint64 in order
        bits = [(cbs[v.upper()].num_bins - 1).bit_length() for v in step.decoded]
        if sum(bits) > 64:
            raise CapacityError(" x ".join(str(cbs[v.upper()].num_bins) for v in step.decoded)
                                + " bins do not pack into 64 bits")
        t, own = step.terminal, step.terminal.lower()
        seen = [(None, self.enum.idx[v]) if v == own else recovered[f"{v}_at_{t}"]
                for v in step.observed if v not in step.decoded]
        # a first step that observes only the own sequence and verbatim
        # messages has the same table for every codebook
        fixed = prior is None and all(st is None for st, _ in seen)
        table = self._tables.get(i) if fixed else None
        if table is None:
            table = self._step_table(step, [col for _, col in seen], prior)
            if fixed:
                self._tables[i] = table
        status = np.full(len(self.enum.prob), _ST_NONE, dtype=np.int8)
        found = [np.full(len(status), -1, dtype=np.int64) for _ in table.cands]
        m = table.members
        code = query = top = 0
        for cand, v, b in zip(table.cands, step.decoded, bits):
            cb = cbs[v.upper()]
            code = (code << b) | cb.bins_of_indices(cand)
            query = (query << b) | values[v.upper()][m]
            top = (top << b) | (cb.num_bins - 1)
        status[m], pick = _match(table, code, top + 1, query)
        for rec, cand in zip(found, table.cands):
            rec[m] = np.where(pick >= 0, cand[pick], -1)
        return status, found

    # every decode step runs through _unique_exact; the benchmark's tracer
    # still wraps these two names
    _unique_exact_pair_obs = _pair_exact = _unique_exact

    # -- law and mass helpers ----------------------------------------------

    def _mass(self, mask) -> float:
        # the memoryview yields Python floats one at a time, with no list
        return math.fsum(memoryview(self.enum.prob[mask]))

    def _law_entropy(self, key, key_size, view, view_sizes):
        """Entropies in bits of the laws of the integer column key, of the
        view's columns, and of both jointly, from one sort of the joint code
        with the view leading: the view's runs in that order are unions of
        the joint runs. Masses are summed in element order.
        """
        prob = self.enum.prob
        cols, sizes = [*view, key], [*view_sizes, key_size]
        if math.prod(int(s) for s in sizes) < 2 ** 62:
            code = np.zeros(len(prob), dtype=np.int64)
            for col, s in zip(cols, sizes):
                code = code * int(s) + col.astype(np.int64)
            order = np.argsort(code)
            code = code[order]
            joint_new = code[1:] != code[:-1]
            view = code // int(key_size)
            view_new = view[1:] != view[:-1]
        else:
            stacked = np.stack([c.astype(np.int64) for c in cols], axis=1)
            order = np.lexsort(stacked.T[::-1])
            stacked = stacked[order]
            new = stacked[1:] != stacked[:-1]
            joint_new, view_new = new.any(axis=1), new[:, :-1].any(axis=1)

        def runs_entropy(new):
            labels = np.empty(len(prob), dtype=np.int64)
            labels[order] = np.concatenate(([0], np.cumsum(new)))
            return _entropy_masses(np.bincount(labels, weights=prob))

        # a key label per sub-bin, unless there are far more sub-bins than
        # elements
        labels = (key if key_size <= len(prob)
                  else np.unique(key, return_inverse=True)[1])
        return (_entropy_masses(np.bincount(labels, weights=prob)),
                runs_entropy(view_new), runs_entropy(joint_new))

    # -- evaluation ----------------------------------------------------------

    def _eval_one(self, cbs) -> CodebookExact:
        """Exact laws of one codebook draw, following the scheme's messages
        and decode steps over the whole enumeration at once.
        """
        e, desc = self.enum, self.ctx.desc
        n_el = len(e.prob)
        values, sizes = {}, []
        # "v_at_T" -> (status of the step that recovered it, recovered index);
        # the status of a copy sent verbatim is None
        recovered = {}
        for m in desc.messages:
            letter = m.sender.lower()
            if m.role:
                col, size = cbs[m.sender].bins_of_indices(e.idx[letter]), cbs[m.sender].num_bins
            else:
                col, size = e.idx[letter], e.size[letter] ** e.n
                recovered.update((f"{letter}_at_{t}", (None, col))
                                 for t in TERMINALS if t != m.sender)
            values[m.sender] = col
            sizes.append(size)
        cols = list(values.values())
        terminal_status = {}
        for i, step in enumerate(desc.decodes):
            t = step.terminal
            prior = terminal_status.get(t)
            # a terminal stops at its first failed step
            st, found = self._unique_exact(i, step, cbs, values, recovered, prior)
            terminal_status[t] = st if prior is None else np.where(prior != _ST_OK, prior, st)
            recovered.update((f"{v}_at_{t}", (st, rec)) for v, rec in zip(step.decoded, found))

        n = float(e.n)

        def key_laws(owner, view, view_sizes):
            """Leakage of the owner's sub-bin to one who sees the view, its
            entropy, and the mass on which every terminal that decoded the
            owner's sequence reads the same sub-bin.
            """
            cb = cbs[owner]
            key = cb.sub_bins_of_indices(e.idx[owner.lower()]).astype(np.int64)
            agree = np.ones(n_el, dtype=bool)
            for name, (st, rec) in recovered.items():
                if name[0] == owner.lower() and st is not None:
                    claim = np.where((rec >= 0) & (st == _ST_OK),
                                     cb.sub_bins_of_indices(np.where(rec >= 0, rec, 0))
                                     .astype(np.int64), -1)
                    agree &= (claim >= 0) & (claim == key)
            h, h_view, h_joint = self._law_entropy(key, cb.num_sub_bins, view, view_sizes)
            leak = h + h_view - h_joint
            # separately rounded entropies can land a hair below 0
            return _clamp_mi(leak) / n, _clamp_mi(h) / n, self._mass(agree)

        # K_S is kept from the eavesdropper, who sees the transcript; K_P
        # also from Z, who holds Z^n besides (in the transcript already when
        # Z has no codebook)
        leak_ks = h_ks = agree_ks = None
        if "Z" in cbs:
            leak_ks, h_ks, agree_ks = key_laws("Z", cols, sizes)
            cols, sizes = cols + [e.idx["z"]], sizes + [e.size["z"] ** e.n]
        leak_kp, h_kp, agree_kp = key_laws(desc.kp_owner, cols, sizes)
        ok = {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0}
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_ks, h_kp=h_kp,
            agree_ks=agree_ks, agree_kp=agree_kp,
            status_mass={t: {name: self._mass(terminal_status[t] == code)
                             for code, name in _STATUS_NAMES.items()}
                         if t in terminal_status else dict(ok) for t in TERMINALS},
            recovery_error={
                key: 0.0 if st is None else 1.0 - self._mass(
                    (st == _ST_OK) & (rec == e.idx[key[0]]))
                for key, (st, rec) in recovered.items()})

    def _member(self, k=None) -> CodebookExact:
        """Exact laws of the k-th ensemble member, or of the native codebooks
        when k is None. A time-shared config combines its parts' k-th
        members; a lone live part passes through unchanged.
        """
        if self.parts is not None:
            live = [p for p in self.parts if p is not None]
            stats = [p._member(k) for p in live]
            if len(stats) == 1:
                return stats[0]
            return _combine_parts(*stats, *(p.config.n for p in live), self.config.n)
        return self._eval_one(self.ctx.codebooks if k is None
                              else _draw_member_codebooks(self.ctx, k))

    def evaluate_native(self) -> CodebookExact:
        """Exact laws for the very codebooks the sampling runner uses, so
        Monte Carlo frequencies can be checked against exact masses.
        """
        return self._member()

    def evaluate(self, num_codebooks: int) -> ExactResult:
        if num_codebooks < 1:
            raise UsageError("exact evaluation needs at least one codebook")
        per = [self._member(k) for k in range(num_codebooks)]
        ctx = self.ctx
        return ExactResult(scheme=ctx.scheme, redirected=ctx.redirected, n=self.config.n,
                           num_codebooks=num_codebooks, ks_size=ctx.ks_size,
                           kp_size=ctx.kp_size, rates=ctx.rates, per_codebook=per,
                           mean=_mean_stats(per))


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
    """A time-shared member from its parts' members, of na and nb symbols."""
    status = {}
    for t, ma in a.status_mass.items():
        mb = b.status_mass[t]
        status[t] = {s: ma[s] * mb[s] if s == "OK" else ma[s] + ma["OK"] * mb[s]
                     for s in ma}
    recovery = {}
    for key in {**a.recovery_error, **b.recovery_error}:
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
    return math.fsum(present) / len(present)


def _mean_stats(per) -> CodebookExact:
    status = {}
    # every member holds every terminal and status name
    for t, names in per[0].status_mass.items():
        status[t] = {name: math.fsum(s.status_mass[t][name] for s in per) / len(per)
                     for name in sorted(names)}
    recovery = {key: math.fsum(s.recovery_error[key] for s in per) / len(per)
                for key in per[0].recovery_error}
    return CodebookExact(
        leak_ks=_mean_field([s.leak_ks for s in per]),
        leak_kp=_mean_field([s.leak_kp for s in per]),
        h_ks=_mean_field([s.h_ks for s in per]),
        h_kp=_mean_field([s.h_kp for s in per]),
        agree_ks=_mean_field([s.agree_ks for s in per]),
        agree_kp=_mean_field([s.agree_kp for s in per]),
        status_mass=status, recovery_error=recovery)


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


def oracle_secrecy(config: SchemeConfig, codebooks: dict) -> dict:
    """Recompute leakage and key entropy by direct sequence iteration.

    Walks every source sequence triple in pure Python, calls the public
    bin_index / sub_bin_index once per distinct sequence and codebook,
    accumulates the joint laws in dictionaries, and takes entropies with
    compensated summation. Shares no law construction with ExactEvaluator,
    which is the point. Returns normalized {leak_ks, leak_kp, h_ks, h_kp}.
    Only support atoms are iterated, so a zero-probability symbol is never
    looked up. In PointP's orientation Y the middle terminal is Y: its
    codebook is codebooks["Y"] and its symbol the atom's second coordinate.
    """
    ctx = RunContext(config)
    if ctx.scheme == "TimeShare":
        raise UsageError("the oracle covers one-shot schemes only")
    middle, middle_axis = ("Y", 1) if ctx.swapped else ("X", 0)
    dist = config.dist
    n = config.n
    az = dist.alphabet("Z")
    atoms = dist.support_atoms()
    pmf = {a: float(dist.pmf[a]) for a in atoms}
    scheme = ctx.scheme
    cbz = codebooks.get("Z")
    cbx = codebooks[middle]
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
    x_of, y_of, z_of = (operator.itemgetter(i) for i in (middle_axis, 1, 2))
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
                 delta: float, seed: int, epsilon: float = 0.1) -> Lemma1Stats:
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
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    TypicalityParams(epsilon, n)
    if az ** n > EXACT_PRODUCT_CAP:
        raise CapacityError(f"{az}**{n} sequences exceed the {EXACT_PRODUCT_CAP} enumeration cap")

    total = az ** n
    codes = np.arange(total, dtype=np.int64)
    prob = np.ones(total, dtype=np.float64)
    sym_counts = np.zeros((total, az), dtype=np.int16)
    for d in code_digits(codes, az, n):
        prob = prob * z_pmf[d]
        sym_counts[np.arange(total), d] += 1
    lo, hi = count_windows(z_pmf, n, epsilon)
    typical = np.all((sym_counts >= lo) & (sym_counts <= hi), axis=1)
    typical_count = int(np.count_nonzero(typical))
    e1 = 1.0 - math.fsum(prob[typical])
    expected_occupancy = typical_count * 2.0 ** (-n * (r_s + r_z))

    per = []
    e2 = []
    num_bins, num_sub = num_bins_for_rate(n, r_z), num_bins_for_rate(n, r_s)
    n_cells = num_bins * num_sub
    for k in range(codebook_count):
        cb_seed = child_seed(int(seed), _LEMMA_TAG, k)
        cb = make_codebook(MODE_TABLE, n, az, r_z, r_s, cb_seed, purpose="Z")
        cells = (cb.bins_of_indices(codes).astype(np.int64) * num_sub
                 + cb.sub_bins_of_indices(codes).astype(np.int64))
        masses = np.bincount(cells, weights=prob, minlength=n_cells)
        h_cells = _entropy_masses(masses)
        per.append((n * h_z - h_cells) / n)
        occupancy = np.bincount(cells[typical], minlength=n_cells)
        e2.append(float(np.count_nonzero(occupancy >= 2.0 * expected_occupancy))
                  / n_cells)
    mean = math.fsum(per) / len(per)
    bound = h_z - r_s - r_z + delta
    return Lemma1Stats(n=n, r_s=r_s, r_z=r_z, delta=delta, epsilon=epsilon,
                       h_z=h_z, bound=bound, num_bins=num_bins,
                       num_sub_bins=num_sub, per_codebook=tuple(per), mean=mean,
                       satisfied=bool(mean <= bound + 1e-12),
                       e1_atypical_mass=e1, typical_count=typical_count,
                       expected_occupancy=expected_occupancy,
                       e2_fractions=tuple(e2), e2_mean=math.fsum(e2) / len(e2))
