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

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .binning import MODE_TABLE, child_seed, make_codebook, num_bins_for_rate, stream_tag
from .errors import CapacityError, UsageError
from .protocol import TERMINALS, RunContext, SchemeConfig
from .sources import (JointDistribution, _clamp_mi, _entropy_masses, _entropy_of,
                      _integers, code_digits)
from .typicality import TypicalityParams, count_windows

EXACT_PRODUCT_CAP = 2 ** 24
# a count up to 2**27 times a 26-bit part of a probability is exact
_EXACT_COUNT_LIMIT = 2 ** 27

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
    axes; the order fixes the summation order of every law. At most 2**27
    triples are enumerated, so that masses can be summed exactly from counts.
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
        if total > _EXACT_COUNT_LIMIT:
            raise CapacityError(
                f"{m}**{n} support triples exceed 2**27, the most whose masses "
                f"are summed exactly")
        # each position appends one atom as the least significant digit, so
        # an element's index is its atom code and its probability the product
        # of its atoms' probabilities from the first
        idx, prob = {}, p_of
        for v, size, atom_col in zip("xyz", dist.alphabet_sizes, of):
            code = atom_col
            for _ in range(n - 1):
                code = (code[:, None] * size + atom_col[None, :]).ravel()
            idx[v] = code
        for _ in range(n - 1):
            prob = (prob[:, None] * p_of[None, :]).ravel()
        self.n = n
        self.size = dict(zip("xyz", dist.alphabet_sizes))
        self.idx = idx
        self.prob = prob

    @functools.cached_property
    def mass_classes(self):
        """Each triple's probability class (the rank of its probability among
        the distinct ones), and per class its probability as a high and a low
        part of at most 26 significant bits each, whose sum is exact. A count
        of at most 2**27 times either part is then exact too.
        """
        values, cls = np.unique(self.prob, return_inverse=True)
        mant, exp = np.frexp(values)
        high = np.ldexp(np.rint(np.ldexp(mant, 26)), exp - 26)
        return _narrow(cls, len(values) - 1), np.stack([high, values - high], axis=1)


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


def _match(table, code, span, query, dense_slots):
    """Status of each member's query among its group's candidate codes (OK
    when exactly one equals it) and the index of that one candidate, -1
    elsewhere. Codes lie in range(span). With at most dense_slots (group,
    code) keys, an int32 slot per key holds its candidate's index, or -2
    when several candidates share it. Otherwise one sort keys every
    candidate by (group, code) packed into a uint64, or by (group, dense
    rank of the code) where the pack leaves no room.
    """
    if len(code) == 0:     # then there are no members either
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if table.num_groups * span <= dense_slots and len(code) < 2 ** 31:
        key = table.cand_group.astype(np.intp) * span + code.astype(np.intp)
        slot = np.full(table.num_groups * span, -1, dtype=np.int32)
        own = np.arange(len(key), dtype=np.int32)
        # whichever candidate a shared key keeps, the others see it
        slot[key] = own
        slot[key[slot[key] != own]] = -2
        hit = slot[table.group.astype(np.intp) * span + query.astype(np.intp)]
        status = np.where(hit >= 0, _ST_OK, np.where(hit == -1, _ST_NONE, _ST_AMB))
        return status, np.maximum(hit, -1)
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


def _label_rows(cols, sizes, labels, num):
    """Labels in range(count) of the rows of the integer columns cols (column
    i in range(sizes[i])) within the given labelling of num labels, and their
    count. One column at a time, label * size + col is compacted by its
    present values, or by np.unique where those outnumber the rows; a column
    with more values than rows is ranked first, so no code reaches 2**63.
    """
    for col, size in zip(cols, sizes):
        size = int(size)
        if size == 1:
            continue
        if size > len(labels):
            ranks, col = np.unique(col, return_inverse=True)
            size = len(ranks)
        code = labels * size + col.astype(np.intp)
        if num * size <= len(labels):
            present = np.zeros(num * size, dtype=bool)
            present[code] = True
            rank = np.cumsum(present) - 1
            labels, num = rank[code], int(rank[-1]) + 1
        else:
            ranks, labels = np.unique(code, return_inverse=True)
            num = len(ranks)
    return labels, num


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
        status = np.full(len(self.enum.prob), _ST_NONE, dtype=np.uint8)
        found = [np.full(len(status), -1, dtype=np.int64) for _ in table.cands]
        m = table.members
        code = query = top = 0
        for cand, v, b in zip(table.cands, step.decoded, bits):
            cb = cbs[v.upper()]
            code = (code << b) | cb.bins_of_indices(cand)
            query = (query << b) | values[v.upper()][m]
            top = (top << b) | (cb.num_bins - 1)
        status[m], pick = _match(table, code, top + 1, query, 8 * len(status))
        for rec, cand in zip(found, table.cands):
            rec[m] = np.where(pick >= 0, cand[pick], -1)
        return status, found

    # every decode step runs through _unique_exact; the benchmark's tracer
    # still wraps these two names
    _unique_exact_pair_obs = _pair_exact = _unique_exact

    # -- law and mass helpers ----------------------------------------------

    def _mass(self, labels, num) -> list:
        """Probability mass of each label of each labelling: labels[i] is an
        unsigned or bool array with values in range(num[i]), and entry i of
        the result holds math.fsum(prob[labels[i] == j]) for each j, bit for
        bit. One bincount counts the elements per (joint label, probability
        class), where the joint label packs the labellings mixed-radix. The
        counts sum exactly down to each labelling, and each label's counts
        times its classes' two exact parts are fsummed. Where the joint count
        would hold more bins than there are elements, the labellings are
        packed first fit, most labels first, into counts that do not; one
        that does not fit alone is counted alone.
        """
        cls, parts = self.enum.mass_classes
        size, classes = len(cls), len(parts)
        groups = []     # [bins, labelling indices] per count
        for i in sorted(range(len(labels)), key=lambda i: -num[i]):
            fit = next((g for g in groups if g[0] * num[i] <= size), None)
            if fit is None:
                groups.append([num[i] * classes, [i]])
            else:
                fit[0] *= num[i]
                fit[1].append(i)
        masses = [None] * len(labels)
        for bins, group in groups:
            joint = labels[group[0]].astype(np.min_scalar_type(bins - 1))
            for i in group[1:]:
                joint *= num[i]
                joint += labels[i]
            if classes > 1:     # with one class the labels count alone
                joint *= classes
                joint += cls
            counts = np.bincount(joint, minlength=bins).reshape(
                *(num[i] for i in group), classes)
            for axis, i in enumerate(group):
                per = counts.sum(axis=tuple(a for a in range(len(group)) if a != axis))
                # the memoryview yields Python floats one at a time, with no list
                masses[i] = [math.fsum(memoryview(t.ravel())) for t in per[:, :, None] * parts]
        return masses

    def _law_entropy(self, key, key_size, view, cols, sizes, extend):
        """Entropy in bits of the law of the integer column key, the key's
        leakage I(key; view) to a view, and the view's labelling. The view
        extends the labelling view (labels and their count, from _label_rows)
        by the columns cols; the leakage is H(key) + H(view) - H(key, view).
        Each label's mass is summed in element order, so no entropy depends on
        how the labels are numbered. A key of one value (key_size 1) is not
        read: its law is the total mass, and it leaks its own entropy. Its
        view is labelled only to extend it further (extend), and is None
        otherwise.
        """
        prob = self.enum.prob

        def entropy(labels):
            return _entropy_masses(np.bincount(labels, weights=prob))

        if key_size == 1:
            view = _label_rows(cols, sizes, *view) if extend else None
            return self._one_value_entropy, self._one_value_entropy, view
        view = _label_rows(cols, sizes, *view)
        joint, _ = _label_rows([key], [key_size], *view)
        # a key label per sub-bin, unless there are far more sub-bins than
        # elements
        labels = (key if key_size <= len(prob)
                  else np.unique(key, return_inverse=True)[1])
        h = entropy(labels)
        return h, h + entropy(view[0]) - entropy(joint), view

    @functools.cached_property
    def _one_value_entropy(self):
        """Entropy of a one-valued key: of the total mass, summed like every law."""
        prob = self.enum.prob
        return _entropy_masses(np.bincount(np.zeros(len(prob), dtype=np.intp), weights=prob))

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
        terminal_status = {}
        for i, step in enumerate(desc.decodes):
            t = step.terminal
            prior = terminal_status.get(t)
            # a terminal stops at its first failed step
            st, found = self._unique_exact(i, step, cbs, values, recovered, prior)
            terminal_status[t] = st if prior is None else np.where(prior != _ST_OK, prior, st)
            recovered.update((f"{v}_at_{t}", (st, rec)) for v, rec in zip(step.decoded, found))

        n = float(e.n)

        def key_laws(owner, view, cols, sizes, extend=False):
            """Leakage of the owner's sub-bin to one who sees the view
            extended by the columns cols, and its entropy; the mask of the
            elements on which every terminal that decoded the owner's
            sequence reads the same sub-bin, which for a one-valued key is
            where those decodes succeeded; and the extended view's labelling
            (None for a one-valued key unless extend).
            """
            cb = cbs[owner]
            key = (None if cb.num_sub_bins == 1
                   else cb.sub_bins_of_indices(e.idx[owner.lower()]))
            agree = np.ones(n_el, dtype=bool)
            for name, (st, rec) in recovered.items():
                if name[0] == owner.lower() and st is not None:
                    # a failed decode's code -1 reads the table's last entry;
                    # its status excludes it
                    agree &= st == _ST_OK
                    if key is not None:
                        agree &= cb.sub_bins_of_indices(rec) == key
            h, leak, view = self._law_entropy(
                None if key is None else key.view(np.int64), cb.num_sub_bins, view, cols,
                sizes, extend)
            # separately rounded entropies can land a hair below 0
            return _clamp_mi(leak) / n, _clamp_mi(h) / n, agree, view

        # K_S is kept from the eavesdropper, who sees the transcript; K_P
        # also from Z, who holds Z^n besides (in the transcript already when
        # Z has no codebook), so K_P's view extends K_S's
        view, cols = (np.zeros(n_el, dtype=np.intp), 1), list(values.values())
        leak_ks = h_ks = agree_ks = None
        if "Z" in cbs:
            leak_ks, h_ks, agree_ks, view = key_laws(
                "Z", view, cols, sizes, extend=cbs[desc.kp_owner].num_sub_bins > 1)
            cols, sizes = [e.idx["z"]], [e.size["z"] ** e.n]
        leak_kp, h_kp, agree_kp, _ = key_laws(desc.kp_owner, view, cols, sizes)
        # one joint count for every status, agreement and recovery mass; a
        # recovered code is -1 unless its step decoded OK
        decoding = [t for t in TERMINALS if t in terminal_status]
        agreements = [a for a in (agree_ks, agree_kp) if a is not None]
        copies = [key for key, (st, _) in recovered.items() if st is not None]
        masses = iter(self._mass(
            [terminal_status[t] for t in decoding] + agreements
            + [recovered[key][1] == e.idx[key[0]] for key in copies],
            [3] * len(decoding) + [2] * (len(agreements) + len(copies))))
        status = {t: dict(zip(_STATUS_NAMES.values(), next(masses))) for t in decoding}
        agree_ks, agree_kp = (None if a is None else next(masses)[1] for a in (agree_ks, agree_kp))
        ok = {"OK": 1.0, "NoCandidate": 0.0, "Ambiguous": 0.0}
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_ks, h_kp=h_kp,
            agree_ks=agree_ks, agree_kp=agree_kp,
            status_mass={t: status[t] if t in status else dict(ok) for t in TERMINALS},
            recovery_error={key: 0.0 if st is None else 1.0 - next(masses)[1]
                            for key, (st, _) in recovered.items()})

    def member(self, k=None) -> CodebookExact:
        """Exact laws of the k-th ensemble member. With k None, the laws of
        the very codebooks the sampling runner uses, so Monte Carlo
        frequencies can be checked against exact masses. A time-shared config
        combines its parts' k-th members.
        """
        if self.parts is not None:
            live = [p for p in self.parts if p is not None]
            return _combine_parts([p.member(k) for p in live], [p.config.n for p in live])
        return self._eval_one(self.ctx.codebooks if k is None
                              else _draw_member_codebooks(self.ctx, k))

    def evaluate(self, num_codebooks: int) -> ExactResult:
        (num_codebooks,) = _integers("num_codebooks", (num_codebooks,))
        if num_codebooks < 1:
            raise UsageError("exact evaluation needs at least one codebook")
        per = [self.member(k) for k in range(num_codebooks)]
        ctx = self.ctx
        return ExactResult(scheme=ctx.scheme, redirected=ctx.redirected, n=self.config.n,
                           num_codebooks=num_codebooks, ks_size=ctx.ks_size,
                           kp_size=ctx.kp_size, rates=ctx.rates, per_codebook=per,
                           mean=_mean_stats(per))


def _combine_parts(members, lengths) -> CodebookExact:
    """A time-shared member (exact or sampled) from its live parts' members
    and blocklengths; a lone live part's member passes through unchanged.
    Each field combines by the rule its prefix names: leakages and entropies
    are per symbol and average by length; agreement, a decode and a recovery
    need both parts, and a copy only one part recovers counts as lost. A
    quantity neither part has stays None.
    """
    if len(members) == 1:
        return members[0]
    (a, b), (na, nb) = members, lengths

    def by_length(x, y):
        if x is None and y is None:
            return None
        return ((x or 0.0) * na + (y or 0.0) * nb) / (na + nb)

    def both(x, y):
        if x is None and y is None:
            return None
        return (1.0 if x is None else x) * (1.0 if y is None else y)

    def status(sa, sb):
        return {t: {s: ma[s] * sb[t][s] if s == "OK" else ma[s] + ma["OK"] * sb[t][s]
                    for s in ma} for t, ma in sa.items()}

    def recovery(ra, rb):
        return {key: 1.0 - (1.0 - ra.get(key, 1.0)) * (1.0 - rb.get(key, 1.0))
                for key in {**ra, **rb}}

    rules = {"leak": by_length, "h": by_length, "agree": both,
             "status": status, "recovery": recovery}
    return CodebookExact(**{f.name: rules[f.name.split("_")[0]](getattr(a, f.name),
                                                                getattr(b, f.name))
                            for f in fields(CodebookExact)})


def _mean_stats(per) -> CodebookExact:
    """The mean member: each quantity, nested dicts included, averaged over
    the members that have it (not None); None where no member has it. Every
    member holds the first one's dict keys.
    """
    def mean(values):
        if isinstance(values[0], dict):
            return {key: mean([v[key] for v in values]) for key in values[0]}
        present = [v for v in values if v is not None]
        return math.fsum(present) / len(present) if present else None

    return CodebookExact(**{f.name: mean([getattr(m, f.name) for m in per])
                            for f in fields(CodebookExact)})


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
    n, codebook_count, seed = _integers("n, codebook_count and seed",
                                        (n, codebook_count, seed))
    z_pmf = np.asarray(z_pmf, dtype=np.float64).ravel()
    az = len(z_pmf)
    dist = JointDistribution.create((1, 1, az), z_pmf)
    h_z = _entropy_of(z_pmf)
    if not 0.0 <= delta < math.inf:
        raise UsageError(f"delta must be a finite number >= 0, got {delta}")
    if r_s < 0 or r_z < 0:
        raise UsageError("rates must be >= 0")
    if codebook_count < 1:
        raise UsageError("codebook_count must be >= 1")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if not (r_s + r_z < h_z - 2 * delta):
        raise UsageError(
            f"precondition violated: R_S + R_Z = {r_s + r_z} is not below "
            f"H(Z) - 2*delta = {h_z - 2 * delta}")
    TypicalityParams(epsilon, n)

    enum = _Enumeration(dist, n, EXACT_PRODUCT_CAP)
    codes, prob = enum.idx["z"], enum.prob
    sym_counts = np.zeros((az, len(codes)), dtype=np.int16)
    for d in code_digits(codes, az, n):
        for sym, row in enumerate(sym_counts):
            row += d == sym
    lo, hi = count_windows(z_pmf, n, epsilon)
    typical = np.all((sym_counts >= lo[:, None]) & (sym_counts <= hi[:, None]), axis=0)
    typical_count = int(np.count_nonzero(typical))
    e1 = 1.0 - math.fsum(prob[typical])
    expected_occupancy = typical_count * 2.0 ** (-n * (r_s + r_z))

    per = []
    e2 = []
    num_bins, num_sub = num_bins_for_rate(n, r_z), num_bins_for_rate(n, r_s)
    n_cells = num_bins * num_sub
    for k in range(codebook_count):
        cb_seed = child_seed(seed, _LEMMA_TAG, k)
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
