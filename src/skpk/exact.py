"""Exact secrecy, uniformity, and agreement at small blocklength.

Instead of sampling, enumerate every source sequence triple with positive
probability, weight it by the product pmf, and push the enumeration through
the same codebooks and decode rules the protocol runners use. Joint laws of
keys against transcripts come out in closed form, so mutual information,
entropy, agreement, and recovery-error numbers are exact for each codebook.

Two layers, and lemma1_check (skpk.lemma1) reads this module's enumeration:

ExactEvaluator   vectorized path used by the harness; table codebooks only.
oracle_secrecy   deliberately independent brute-force path: its own
                 enumeration of the support triples, held for the last
                 source and n, one public bin_index / sub_bin_index call
                 per distinct sequence, and per law one bincount, in triple
                 order, over its columns' packed values or their ranks
                 from a presence bitmap or, for bins, a sort. Exists
                 to cross-check the vectorized path, so it shares nothing
                 with it but the entropy of a list of masses.
"""

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

# make_codebook as exact.make_codebook: the benchmark's tracer still wraps it
from .binning import MODE_TABLE, BinningCodebook, child_seed, make_codebook, stream_tag
from .errors import CapacityError, UsageError
from .protocol import STATUS_OK, STATUSES, TERMINALS, RunContext, SchemeConfig
from .sources import (JointDistribution, _clamp_mi, _entropy_masses, _integers, _split26,
                      code_digits)

EXACT_PRODUCT_CAP = 2 ** 24
# a count up to 2**27 times a 26-bit part of a probability is exact
_EXACT_COUNT_LIMIT = 2 ** 27

_ENSEMBLE_TAG = stream_tag("codebook-ensemble")

# a status code is its name's position in STATUSES; no exact decode overflows
_ST_OK, _ST_NONE, _ST_AMB = 0, 1, 2
_STATUS_NAMES = STATUSES[:3]


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
    codes (idx, keyed by lowercase letter, each in the narrowest unsigned
    type that holds the letter's codes) plus probabilities.

    Atoms are taken in lexicographic order of their coordinates listed in
    axes; the order fixes the summation order of every law. At most 2**27
    triples are enumerated, so that masses can be summed exactly from counts.
    """

    def __init__(self, dist: JointDistribution, n: int, cap: int, axes=(0, 1, 2)):
        atoms = sorted(self.support(dist, n, cap), key=lambda a: [a[i] for i in axes])
        of = np.array(atoms, dtype=np.int64).T
        p_of = np.array([dist.pmf[a] for a in atoms], dtype=np.float64)
        # each position appends one atom as the least significant digit, so
        # an element's index is its atom code and its probability the product
        # of its atoms' probabilities from the first
        idx, prob = {}, p_of
        for v, size, atom_col in zip("xyz", dist.alphabet_sizes, of):
            code = atom_col = _narrow(atom_col, size ** n - 1)
            for _ in range(n - 1):
                code = (code[:, None] * size + atom_col[None, :]).ravel()
            idx[v] = code
        for _ in range(n - 1):
            prob = (prob[:, None] * p_of[None, :]).ravel()
        self.n = n
        self.size = dict(zip("xyz", dist.alphabet_sizes))
        self.idx = idx
        self.prob = prob
        self._domains = {}

    @staticmethod
    def support(dist: JointDistribution, n: int, cap: int) -> list:
        """The support atoms, once the cap and the count limit let dist be
        enumerated at length n.
        """
        ax, ay, az = dist.alphabet_sizes
        if (ax * ay * az) ** n > cap:
            raise CapacityError(
                f"({ax}*{ay}*{az})**{n} sequence triples exceed the exact-mode "
                f"cap {cap}")
        atoms = dist.support_atoms()
        if not atoms:
            raise UsageError("distribution has empty support")
        if len(atoms) ** n > _EXACT_COUNT_LIMIT:
            raise CapacityError(
                f"{len(atoms)}**{n} support triples exceed 2**27, the most whose masses "
                f"are summed exactly")
        return atoms

    def domain(self, v):
        """The sequence codes letter v takes, in ascending order, and each
        element's position among them (_ranked). Where every code below
        size**n occurs, the position is the code.
        """
        if v not in self._domains:
            self._domains[v] = _ranked(self.idx[v], self.size[v] ** self.n)
        return self._domains[v]

    @functools.cached_property
    def mass_classes(self):
        """Each triple's probability class (the rank of its probability among
        the distinct ones), and per class its probability as a high and a low
        part of at most 26 significant bits each (sources._split26), whose
        sum is exact. A count of at most 2**27 times either part is then
        exact too.
        """
        values, cls = np.unique(self.prob, return_inverse=True)
        return _narrow(cls, len(values) - 1), np.stack(_split26(values), axis=1)


@dataclass
class _DecodeTable:
    """One decode step's candidates for every observed sequence of the
    elements it runs on, in one flat table, which no codebook draw changes.
    A member runs a later step with its own members and groups (_unique_exact).

    members are the rows it runs on (positions in its observed columns)
    whose observed sequences admit a candidate, sorted by group: each one's
    observed sequences, numbered in lexicographic order of their codes
    (_label_rows), or a given id. A candidate holds a sequence code per
    decoded letter: cands has one aligned code array per letter, and
    cand_group the group of each candidate. Code and index arrays use the
    narrowest integer type that holds them.
    """

    members: np.ndarray
    group: np.ndarray
    num_groups: int
    cand_group: np.ndarray
    cands: list


@dataclass
class _Picks:
    """A decode step's outcome: its status over the reach, and at its table's
    members (slots: their reach positions) the index of the candidate each
    picked (-1 where not OK) and of the true one (-1 where none is).
    """

    status: np.ndarray
    table: _DecodeTable
    slots: np.ndarray
    pick: np.ndarray
    truth: np.ndarray

    def right(self, j, same):
        """Over the reach, where the step decoded OK and, with same, letter
        j's picked code c passes same(c, at) at reach positions at: a true
        pick passes, so only the others are asked.
        """
        right = self.status == _ST_OK
        if same is not None:
            at = self.slots[self.wrong]
            right[at[~same(self.table.cands[j][self.pick[self.wrong]], at)]] = False
        return right

    @functools.cached_property
    def wrong(self):
        """The members that decoded OK to another candidate than the truth."""
        return np.flatnonzero((self.pick != self.truth) & (self.pick >= 0))


def _narrow(a, bound):
    """a as the narrowest unsigned integer type that holds 0..bound, a itself
    if it has that type.
    """
    return a.astype(np.min_scalar_type(max(bound, 0)), copy=False)


def _ranked(values, span):
    """np.unique's distinct values and inverse of a non-negative integer
    column with values in range(span), the inverse in the narrowest unsigned
    type. Where span is at most the column's length, a presence bitmap
    gives them: the inverse is its running count, or the values themselves
    when all of range(span) occurs. Past that, np.unique sorts.
    """
    if span > len(values):
        distinct, ranks = np.unique(values, return_inverse=True)
        return distinct, _narrow(ranks, len(distinct) - 1)
    # numpy indexes by intp about 3 times as fast as by uint16 (2-core x86-64)
    at = values.astype(np.intp, copy=False)
    present = np.zeros(span, dtype=bool)
    present[at] = True
    distinct = np.flatnonzero(present).astype(values.dtype, copy=False)
    if len(distinct) == span:
        return distinct, _narrow(values, span - 1)
    ranks = np.cumsum(present, dtype=np.min_scalar_type(span))[at]
    ranks -= 1
    return distinct, _narrow(ranks, len(distinct) - 1)


class _Slots:
    """Dense int32 slots for _match, for at most limit keys: one array kept
    across calls, grown to the largest key range asked for, -1 between calls.
    """

    def __init__(self, limit):
        self.limit, self.array = limit, np.zeros(0, dtype=np.int32)


def _match(table, cols, queries, spans, slots):
    """Status of each member's queries among its group's candidates (OK when
    exactly one has them as its columns cols, column i in range(spans[i])),
    as uint8, and the index of that one candidate, -1 elsewhere. Keys
    (group, columns) are packed mixed-radix below 2**64 keys, else labelled
    jointly for candidates and members (_label_rows). With at most
    slots.limit keys, a dense slot per key (_Slots) holds its candidate's
    index, or -2 when several candidates share it, and is reset to -1
    after, also when the match fails; otherwise one sort orders the keys.
    """
    if len(table.cand_group) == 0:
        return np.full(len(table.group), _ST_NONE, dtype=np.uint8), np.full(len(table.group), -1)
    key, q, total = table.cand_group, table.group, table.num_groups * math.prod(spans)
    if total >= 2 ** 64:
        labels, total = _label_rows(
            [np.concatenate(pair) for pair in [(key, q), *zip(cols, queries)]],
            [table.num_groups, *spans])
        key, q, cols, queries = labels[:len(key)], labels[len(key):], [], []
    dense = total <= slots.limit and len(key) < 2 ** 31
    # in place: fresh arrays of a step's members cost more than the arithmetic
    key, q = (a.astype(np.intp if dense else np.uint64) for a in (key, q))
    for col, query, span in zip(cols, queries, spans):
        for packed, column in ((key, col), (q, query)):
            packed *= span
            packed += column.astype(packed.dtype, copy=False)
    if dense:
        if len(slots.array) < total:
            slots.array = np.full(total, -1, dtype=np.int32)
        slot = slots.array
        own = np.arange(len(key), dtype=np.int32)
        try:
            # whichever candidate a shared key keeps, the others see it
            slot[key] = own
            slot[key[slot[key] != own]] = -2
            hit = slot[q]
        finally:
            # even after an error, no key of this match is left for the next
            slot[key] = -1
        # OK (0) at a slot's candidate, NoCandidate (1) at -1, Ambiguous (2) at -2
        status = (hit < 0).view(np.uint8) + (hit < -1).view(np.uint8)
        return status, np.maximum(hit, -1)
    # a pick is read only where its key is unique, so any sort order serves
    so = np.argsort(key)
    key = key[so]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_key = key[starts]
    run = np.minimum(np.searchsorted(run_key, q), len(starts) - 1)
    cnt = np.where(run_key[run] == q, np.diff(starts, append=len(key))[run], 0)
    status = np.array([_ST_NONE, _ST_OK, _ST_AMB], dtype=np.uint8)[np.minimum(cnt, 2)]
    return status, np.where(cnt == 1, so[starts[run]], -1)


def _label_rows(cols, sizes, labels=None, num=1):
    """Labels in range(count) of the rows of the integer columns cols (column
    i in range(sizes[i])) within the given labelling of num labels (by
    default, one label for every row), and their count, in the
    lexicographic order of (label, columns). One column at a time, label *
    size + col is ranked (_ranked), or col alone while num is 1; a column
    with more values than rows is ranked first, so no code reaches 2**63.
    """
    for col, size in zip(cols, sizes):
        size = int(size)
        if num == 1 or size > len(col):
            ranks, col = _ranked(col, size)
            size = len(ranks)
        if num > 1:
            code = labels.astype(np.intp) * size
            code += col.astype(np.intp, copy=False)
            ranks, col = _ranked(code, num * size)
        labels, num = col, len(ranks)
    return labels, num


def _held_property(build):
    """A property built once per signature: kept in the evaluator's held
    state (RunContext.held), which every evaluator of the signature reads.
    """
    def get(self):
        if build.__name__ not in self._held:
            self._held[build.__name__] = build(self)
        return self._held[build.__name__]

    return property(get, doc=build.__doc__)


def _member_seed(config: SchemeConfig, k) -> int:
    """The seed of the k-th ensemble member's codebooks; k is an integer >= 0."""
    (k,) = _integers("the member index", (k,))
    if k < 0:
        raise UsageError(f"the member index must be >= 0, got {k}")
    return child_seed(config.master_seed, _ENSEMBLE_TAG, k)


class ExactEvaluator:
    """Per-codebook exact laws for a one-shot scheme configuration, read off
    the scheme's description like the sampling runner does.
    """

    def __init__(self, config: SchemeConfig, exact_cap: int = EXACT_PRODUCT_CAP):
        if config.codebook_mode != MODE_TABLE:
            raise UsageError("exact evaluation requires ExplicitTable codebooks")
        (exact_cap,) = _integers("exact_cap", (exact_cap,))
        if exact_cap < 1:
            raise UsageError(f"exact_cap must be >= 1, got {exact_cap}")
        self._bind(RunContext(config), exact_cap)

    def _bind(self, ctx: RunContext, exact_cap):
        """Evaluates ctx, and returns self; a time share evaluates the part
        contexts ctx holds, each by an evaluator built around it.
        """
        self.config, self.ctx = ctx.config, ctx
        if ctx.scheme == "TimeShare":
            new = ExactEvaluator.__new__
            self.parts = [None if p is None else new(ExactEvaluator)._bind(p, exact_cap)
                          for p in ctx.parts]
            self.enum = None
            return self
        self.parts = None
        dist, n = self.config.dist, self.config.n
        # the middle terminal's coordinate leads the atom order
        axes = (1, 0, 2) if ctx.desc.kp_owner == "Y" else (0, 1, 2)
        # the limits come first, so no held state skips them
        _Enumeration.support(dist, n, exact_cap)
        # what no seed changes is built once per signature (RunContext.held)
        self._held = ctx.held("exact", lambda: {"enum": _Enumeration(dist, n, exact_cap, axes)},
                              exact_cap)
        self.enum = self._held["enum"]
        # the entropies of the views no codebook draw changes
        self._view_entropy = self._held.setdefault("view_entropy", {})
        return self

    @_held_property
    def _slots(self):
        """The dense slots every _match of the evaluator uses."""
        return _Slots(8 * len(self.enum.prob))

    # -- exact decode tables -----------------------------------------------

    def _step_table(self, step, observed, group=None) -> _DecodeTable:
        """A decode step's table over the rows it runs on, grouped by the
        sequences the step observes (observed, one code column per letter it
        does not decode), or by the given group ids, one distinct id per
        row. Each decoded letter in turn extends every candidate so far by
        its engine's candidates, from one batched candidate_indices call per
        letter. Rows of a group without candidates are dropped: they stay
        NoCandidate.
        """
        e = self.enum
        letters = [v for v in step.observed if v not in step.decoded]
        group, num_groups = (_label_rows(observed, [e.size[v] ** e.n for v in letters])
                             if group is None else (group, len(group)))
        # numpy indexes by intp about 3 times as fast as by a narrow type
        ids = group.astype(np.intp)
        rows = {}       # each group's observed sequences, scattered from its rows
        for v, col in zip(letters, observed):
            codes = np.empty(num_groups, dtype=col.dtype)
            codes[ids] = col
            rows[v] = np.stack(list(code_digits(codes, e.size[v], e.n)), axis=-1)
        cand_group, cands = np.arange(num_groups), []
        for key in step.engine_keys():
            # an engine observes its candidates' groups and earlier decoded letters
            found, per_row = self.ctx.engines[key].candidate_indices(tuple(
                rows[v][cand_group] if v in rows else np.stack(list(code_digits(
                    cands[step.decoded.index(v)], e.size[v], e.n)), axis=-1)
                for v in key[:-1]))
            at = np.repeat(np.arange(len(per_row)), per_row)
            cand_group, cands = cand_group[at], [c[at] for c in cands] + [found]
        # grouped members make the per-member searches nearly sorted; group
        # ids are narrow, which numpy's stable sort radix-sorts up to 16 bits
        order = np.flatnonzero((np.bincount(cand_group, minlength=num_groups) > 0)[ids])
        order = order[np.argsort(group[order], kind="stable")]
        return _DecodeTable(
            _narrow(order, len(group)), _narrow(group[order], num_groups), num_groups,
            _narrow(cand_group, num_groups),
            [_narrow(c, e.size[v] ** e.n - 1) for c, v in zip(cands, step.decoded)])

    @_held_property
    def _reach(self):
        """The elements some terminal's first decode step can decode, its
        table's members, in ascending order; and per decode step its table,
        with a first step's members' positions among them and their truths
        (_truths), else None: none of which a codebook draw changes. A later
        step's groups are its first step's candidates, whose decoded codes
        and whose group's observed ones (read at its first member) it
        observes. Outside the reach every decoding terminal stays
        NoCandidate and recovers nothing, so every decode-dependent
        labelling is constant there.
        """
        e, first, built = self.enum, {}, {}
        # the mass classes first: their np.unique's temporaries, taken before
        # the tables and truths are held, then stay below the member's peak
        e.mass_classes
        inside = np.zeros(len(e.prob), dtype=bool)
        for i, step in enumerate(self.ctx.desc.decodes):
            letters = [v for v in step.observed if v not in step.decoded]
            j = first.setdefault(step.terminal, i)
            if j < i:
                earlier, f, _ = built[j]
                at = f.members[np.searchsorted(f.group, f.cand_group)]
                built[i] = step, self._step_table(step, [
                    f.cands[earlier.decoded.index(v)] if v in earlier.decoded else e.idx[v][at]
                    for v in letters], np.arange(len(f.cand_group))), None
            else:
                table = self._step_table(step, [e.idx[v] for v in letters])
                built[i] = step, table, table.members.astype(np.intp)
                inside[built[i][2]] = True
        slot = np.cumsum(inside)
        return np.flatnonzero(inside), {
            i: (t, None, None, None) if rows is None else
            (t, slot[rows] - 1, *self._truths(step, t, rows))
            for i, (step, t, rows) in built.items()}

    def _truths(self, step, table, rows):
        """Per decoded letter, the true sequences' domain positions at a
        step's table members (rows: their elements); and per member, the
        index of its group's candidate with the true codes (candidates are
        distinct), -1 where none has them.
        """
        e = self.enum
        return [e.domain(v)[1][rows] for v in step.decoded], _match(
            table, table.cands, [e.idx[v][rows] for v in step.decoded],
            [e.size[v] ** e.n for v in step.decoded], self._slots)[1]

    def _unique_exact(self, i, step, cbs, values, earlier):
        """Decode step i: a first step (earlier None) at its table's members,
        a later one where its terminal's first step (earlier: its picks)
        picked a candidate, which is the element's group. A candidate
        matches when every decoded letter's bin is the announced one
        (values: a binned sender's bins over its letter's domain); unique
        means one match overall. Returns its picks over the reach, with the
        status NoCandidate where the step did not run.
        """
        # a decoded letter of one bin matches every candidate and is left out
        binned = [(j, v.upper()) for j, v in enumerate(step.decoded)
                  if cbs[v.upper()].num_bins > 1]
        elements, steps = self._reach
        table, slots, truth, truth_pick = steps[i]
        if earlier is not None:
            ran = earlier.pick >= 0
            slots = earlier.slots[ran]
            table = replace(table, members=slots, group=earlier.pick[ran])
            truth, truth_pick = self._truths(step, table, elements[slots])
        status = np.full(len(elements), _ST_NONE, dtype=np.uint8)
        status[slots], pick = _match(
            table, [cbs[v].bins_of_indices(table.cands[j]) for j, v in binned],
            [np.take(values[v], truth[j]) for j, v in binned],
            [cbs[v].num_bins for _, v in binned], self._slots)
        return _Picks(status, table, slots, pick, truth_pick)

    # every decode step runs through _unique_exact; the benchmark's tracer
    # still wraps these two names
    _unique_exact_pair_obs = _pair_exact = _unique_exact

    # -- law and mass helpers ----------------------------------------------

    @_held_property
    def _reach_classes(self):
        """The reach elements' probability classes, and per class the count
        of the elements outside the reach.
        """
        cls, parts = self.enum.mass_classes
        inside = cls[self._reach[0]]
        outside = (np.bincount(cls, minlength=len(parts))
                   - np.bincount(inside, minlength=len(parts)))
        return inside, outside

    def _mass(self, labels, num, rest=None) -> list:
        """Probability mass of each label of each labelling: labels[i] is an
        unsigned or bool array with values in range(num[i]), and entry i of
        the result holds math.fsum(prob[labels[i] == j]) for each j, bit for
        bit. With rest, labels[i] holds only the reach elements' labels
        (_reach) and rest[i] is the label of every other element. One
        bincount counts the elements per (joint label, probability class),
        where the joint label packs the labellings mixed-radix, and the
        elements outside the reach join the count at their labels' cell as
        one block per class. The counts sum exactly down to each labelling,
        and each label's counts times its classes' two exact parts are
        fsummed. Where the joint count would hold more bins than there are
        labelled elements, the labellings are packed first fit, most labels
        first, into counts that do not; one that does not fit alone is
        counted alone.
        """
        cls, parts = self.enum.mass_classes
        if rest is not None:
            cls, outside = self._reach_classes
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
            if rest is not None:
                counts[tuple(rest[i] for i in group)] += outside
            for axis, i in enumerate(group):
                per = counts.sum(axis=tuple(a for a in range(len(group)) if a != axis))
                # the memoryview yields Python floats one at a time, with no list
                masses[i] = [math.fsum(memoryview(t.ravel())) for t in per[:, :, None] * parts]
        return masses

    def _labels(self, view):
        """Labels of the enumerated elements under a view: per letter, the
        columns it reads of that letter's sequence, each a labelling of the
        letter's domain (enum.domain) with its size, or None for the
        sequence itself. Each letter's columns are labelled once on its
        domain; an element's label packs its letters' labels mixed-radix,
        one gather per letter, or is ranked by _label_rows where the packed
        labels would outnumber the elements. Two elements share a label
        exactly when they share every column.
        """
        e = self.enum
        parts = []      # (labels over the domain or None for the code, count, positions)
        for v, cols in view.items():
            codes, at = e.domain(v)
            if any(col is None for col, _ in cols):
                parts.append((None, len(codes), at))
                continue
            lab, num = _label_rows([c for c, _ in cols], [s for _, s in cols])
            if num > 1:
                parts.append((lab, num, at))
        # a sequence itself goes last, where its position is its label
        parts.sort(key=lambda p: p[0] is None)
        total = math.prod(num for _, num, _ in parts)
        if total > len(e.prob):
            return _label_rows([at if lab is None else lab[at] for lab, _, at in parts],
                               [num for _, num, _ in parts])[0]
        dtype, labels, radix = np.min_scalar_type(total - 1), None, total
        for lab, num, at in parts:
            radix //= num
            if lab is None and radix == 1:
                term = at
            else:
                lab = np.arange(num) if lab is None else lab.astype(np.intp)
                # np.take gathers by narrow positions faster than indexing
                term = np.take((lab * radix).astype(dtype), at)
            labels = term if labels is None else np.add(labels, term, out=labels)
        return np.zeros(len(e.prob), dtype=np.uint8) if labels is None else labels

    def _law_entropy(self, letter, key, key_size, view):
        """Entropy in bits of the law of a key, a function of one letter's
        sequence given as a column over that letter's domain with key_size
        values, and its leakage I(key; view) = H(key) + H(view) - H(key, view)
        to a view (as in _labels). Each label's mass is summed in element
        order by one bincount, so no entropy depends on how the labels are
        numbered, only on which elements share one. A key of one value is
        not read: its law is the total mass, and it leaks its own entropy.
        A law that reads each letter verbatim or only through one-valued
        columns labels the elements alike for every codebook draw, so its
        entropy is computed once per signature (RunContext.held).
        """
        def entropy(view):
            verbatim = frozenset(v for v, cols in view.items() if any(c is None for c, _ in cols))
            fixed = all(size == 1 for v, cols in view.items() if v not in verbatim
                        for _, size in cols)
            if not (fixed and verbatim in self._view_entropy):
                h = _entropy_masses(np.bincount(self._labels(view), weights=self.enum.prob))
                if not fixed:
                    return h
                self._view_entropy[verbatim] = h
            return self._view_entropy[verbatim]

        if key_size == 1:
            return entropy({}), entropy({})
        h = entropy({letter: [(key, key_size)]})
        joint = {**view, letter: [*view.get(letter, ()), (key, key_size)]}
        return h, h + entropy(view) - entropy(joint)

    # -- evaluation ----------------------------------------------------------

    def _eval_one(self, cbs) -> CodebookExact:
        """Exact laws of one codebook draw, following the scheme's messages
        and decode steps. Every law column is a function of one letter's
        sequence, so the laws label each letter's domain; the decode steps
        run over the reach elements only.
        """
        e, desc = self.enum, self.ctx.desc
        # per letter, the transcript's columns of its sequence (None: the
        # sequence itself); per binned sender, its bins over its domain
        transcript, values = {}, {}
        # "v_at_T" -> (picks of the step that recovered it, v's place among
        # its decoded letters); a copy sent verbatim has no picks
        recovered = {}
        for m in desc.messages:
            letter = m.sender.lower()
            if m.role:
                cb = cbs[m.sender]
                values[m.sender] = cb.bins_of_indices(e.domain(letter)[0])
                transcript.setdefault(letter, []).append((values[m.sender], cb.num_bins))
            else:
                transcript.setdefault(letter, []).append((None, None))
                recovered.update((f"{letter}_at_{t}", (None, 0))
                                 for t in TERMINALS if t != m.sender)
        terminal_status, first = {}, {}
        for i, step in enumerate(desc.decodes):
            t = step.terminal
            earlier = first.get(t)
            picks = self._unique_exact(i, step, cbs, values, earlier)
            # a terminal stops at its first failed step
            terminal_status[t] = picks.status if earlier is None else np.where(
                earlier.status != _ST_OK, earlier.status, picks.status)
            first.setdefault(t, picks)
            recovered.update((f"{v}_at_{t}", (picks, j)) for j, v in enumerate(step.decoded))

        n, elements = float(e.n), self._reach[0]

        def key_laws(owner, view):
            """Leakage of the owner's sub-bin to one who sees the view, and
            its entropy; and over the reach, the mask of the elements on
            which every terminal that decoded the owner's sequence reads the
            same sub-bin, which for a one-valued key is where those decodes
            succeeded, with the mask's value elsewhere.
            """
            cb, letter = cbs[owner], owner.lower()
            key = cb.sub_bins_of_indices(e.domain(letter)[0])

            def same(c, at):
                return cb.sub_bins_of_indices(c) == key[e.domain(letter)[1][elements[at]]]

            agree, decoded = np.ones(len(elements), dtype=bool), False
            for name, (picks, j) in recovered.items():
                if name[0] == letter and picks is not None:
                    agree &= picks.right(j, same if cb.num_sub_bins > 1 else None)
                    decoded = True
            h, leak = self._law_entropy(letter, key, cb.num_sub_bins, view)
            # separately rounded entropies can land a hair below 0
            return _clamp_mi(leak) / n, _clamp_mi(h) / n, (agree, int(not decoded))

        # K_S is kept from the eavesdropper, who sees the transcript; K_P
        # also from Z, who holds Z^n besides
        leak_ks = h_ks = agree_ks = None
        if "Z" in cbs:
            leak_ks, h_ks, agree_ks = key_laws("Z", transcript)
        leak_kp, h_kp, agree_kp = key_laws(desc.kp_owner, {**transcript, "z": [(None, None)]})
        # one joint count for every status, agreement and recovery mass; a
        # recovered code counts where its step decoded OK
        decoding = [t for t in TERMINALS if t in terminal_status]
        agreements = [a for a in (agree_ks, agree_kp) if a is not None]
        copies = [(key[0], *copy) for key, copy in recovered.items() if copy[0] is not None]
        masses = iter(self._mass(
            [terminal_status[t] for t in decoding] + [a for a, _ in agreements]
            + [picks.right(j, lambda c, at, v=v: c == e.idx[v][elements[at]])
               for v, picks, j in copies],
            [3] * len(decoding) + [2] * (len(agreements) + len(copies)),
            [_ST_NONE] * len(decoding) + [r for _, r in agreements] + [0] * len(copies)))
        # a terminal that decodes nothing is OK
        status = {t: dict(zip(_STATUS_NAMES, next(masses) if t in terminal_status
                              else (1.0, 0.0, 0.0))) for t in TERMINALS}
        agree_ks, agree_kp = (None if a is None else next(masses)[1] for a in (agree_ks, agree_kp))
        return CodebookExact(
            leak_ks=leak_ks, leak_kp=leak_kp, h_ks=h_ks, h_kp=h_kp,
            agree_ks=agree_ks, agree_kp=agree_kp, status_mass=status,
            recovery_error={key: 0.0 if picks is None else 1.0 - next(masses)[1]
                            for key, (picks, _) in recovered.items()})

    def member(self, k=None) -> CodebookExact:
        """Exact laws of the k-th ensemble member. With k None, the laws of
        the very codebooks the sampling runner uses, so Monte Carlo
        frequencies can be checked against exact masses. A time-shared config
        combines its parts' k-th members.
        """
        if self.parts is not None:
            live = [p for p in self.parts if p is not None]
            return _combine_parts([p.member(k) for p in live], [p.config.n for p in live])
        return self._eval_one(self.ctx.codebooks if k is None else
                              self.ctx.draw_codebooks(MODE_TABLE, _member_seed(self.config, k)))

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
        return {t: {s: ma[s] * sb[t][s] if s == STATUS_OK else ma[s] + ma[STATUS_OK] * sb[t][s]
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


# columns whose values stay below this many times their length are ranked by
# a bitmap. On 2**10-2**18 uniform int32 values (2-core x86-64) a bitmap took
# 0.4-0.7x a sort's time at 4 times the length and 0.8-1.7x at 8
_BITMAP_SPAN = 4


def _distinct(values):
    """np.unique's distinct values of a non-negative integer column and their
    ranks, in the narrowest unsigned type: from a presence bitmap's running
    count, or past _BITMAP_SPAN (bins reach 2**63 - 1) from np.unique.
    """
    bound = int(values.max()) + 1
    if bound > _BITMAP_SPAN * len(values):
        distinct, ranks = np.unique(values, return_inverse=True)
    else:
        present = np.zeros(bound, dtype=bool)
        present[values] = True
        distinct = np.flatnonzero(present).astype(values.dtype)
        ranks = np.cumsum(present, dtype=_sortable(bound))[values] - 1
    return distinct, ranks.reshape(-1).astype(np.min_scalar_type(len(distinct) - 1))


def _sortable(bound):
    """int32, or int64 if bound needs it: numpy sorts 8- and 16-bit integers
    several times slower.
    """
    return np.int32 if bound < 2 ** 31 else np.int64


def _pair(a, b, ranked=True) -> np.ndarray:
    """Ranks of the pairs of two rank columns, or with ranked False the
    packed pairs. Ranks stay below 2**24, so a packed pair fits in 48 bits;
    packed raw bins (to 2**63 - 1) would not.
    """
    size = int(b.max()) + 1
    packed = a.astype(_sortable((int(a.max()) + 1) * size))
    packed *= size
    packed += b
    return _distinct(packed)[1] if ranked else packed


@functools.lru_cache(maxsize=1)
def _support(sizes, pmf, n):
    """The oracle's enumeration of a source's support triples at length n,
    held for the last (alphabet sizes, pmf bytes, n) only, as read-only
    arrays: the live triples' probabilities in triple order and, per letter,
    its support symbols, the codes of its distinct support sequences and
    each live triple's rank among them (_distinct).
    """
    dist = JointDistribution(sizes, np.frombuffer(pmf).reshape(sizes))
    atoms = dist.support_atoms()
    # per letter, its support symbols; a code's digits index them, so codes
    # stay below the number of support triples
    symbols = [sorted({a[axis] for a in atoms}) for axis in range(3)]
    digits = [np.array([syms.index(a[axis]) for a in atoms], dtype=_sortable(len(syms) ** n))
              for axis, syms in enumerate(symbols)]
    p = np.array([float(dist.pmf[a]) for a in atoms])
    prob, codes = np.ones(1), [np.zeros(1, d.dtype) for d in digits]
    for _ in range(n):
        prob = np.multiply.outer(prob, p).ravel()
        codes = [np.add.outer(c * len(syms), d).ravel()
                 for c, syms, d in zip(codes, symbols, digits)]
    live = prob > 0
    letters = tuple((np.array(syms, dtype=np.int64), *_distinct(c[live]))
                    for syms, c in zip(symbols, codes))
    prob = prob[live]
    for a in (prob, *(a for letter in letters for a in letter)):
        a.flags.writeable = False
    return prob, letters


def oracle_secrecy(config: SchemeConfig, codebooks: dict) -> dict:
    """Recompute leakage and key entropy from every support triple.

    Triples come in itertools.product(atoms, repeat=n) order, one outer
    product per position, so a probability is the left-to-right product of
    its atoms'; triples of probability 0 are dropped. That enumeration
    depends on the source and n alone, so the last one is held (_support).
    Each distinct support sequence of a letter the scheme reads is spelled
    out from its code's digits and passed to the public bin_index /
    sub_bin_index once, as an int64 row. A law's masses are one np.bincount
    over its column: a pair's packed values where they stay below the
    column's length, else ranks, np.unique's, read off a presence bitmap
    for small values (codes, packed rank pairs) and a sort for bins. It adds
    each cell's probabilities in triple order from 0.0, as a dict
    accumulation does, so every mass is the same float whatever the labels.
    Nothing is shared with ExactEvaluator but _entropy_masses: not its
    enumeration, digits, vectorized bins_of_indices / sub_bins_of_indices
    or labels, which is the point.
    Returns normalized {leak_ks, leak_kp, h_ks, h_kp}. The transcript and
    the key owners are read off the codebook set, not off a run context:
    the transcript is every codebook's bin, and Z^n without a Z codebook;
    K_S is Z's sub-bin and K_P X's, or Y's without an X codebook. Codebooks
    keyed other than X, Y or Z, or not drawn for the source's alphabet at
    n, are refused. More support triples than EXACT_PRODUCT_CAP, which
    bounds the evaluator's default cube too, are refused before anything is
    allocated.
    """
    dist, n = config.dist, config.n
    atoms = dist.support_atoms()
    if len(atoms) ** n > EXACT_PRODUCT_CAP:
        raise CapacityError(f"the oracle's {len(atoms)}**{n} support triples exceed "
                            f"the {EXACT_PRODUCT_CAP} cap")
    if config.scheme == "TimeShare":
        raise UsageError("the oracle covers one-shot schemes only")
    for v, cb in codebooks.items():
        if v not in TERMINALS:
            raise UsageError(f"the oracle reads codebooks keyed X, Y or Z, got {v!r}")
        if not isinstance(cb, BinningCodebook):
            raise UsageError(f"codebook {v} is a {type(cb).__name__}, not a BinningCodebook")
        if (cb.n, cb.alphabet_size) != (n, dist.alphabet(v)):
            raise UsageError(f"{v}^n, at n={n} over {dist.alphabet(v)} letters, does not "
                             f"match n={cb.n} over {cb.alphabet_size} letters of codebook {v}")
    if not {"X", "Y"} & set(codebooks):
        raise UsageError(f"the oracle reads K_P off an X or a Y codebook, got {sorted(codebooks)}")
    kp_owner = "X" if "X" in codebooks else "Y"
    prob, letters = _support(dist.alphabet_sizes, dist.pmf.tobytes(), n)

    def looked_up(axis, *lookups):
        """Each triple's rank of its sequence, then of each lookup's result."""
        syms, seqs, at = letters[axis]
        places, results = len(syms) ** np.arange(n - 1, -1, -1), []
        # by blocks of sequences, so no (sequences, n) symbol table outgrows the laws
        for block in np.split(seqs, range(4096, len(seqs), 4096)):
            results += ([lookup(seq) for lookup in lookups]
                        for seq in syms[block[:, None] // places % len(syms)])
        return [at] + [_distinct(np.array(col, dtype=np.uint64))[1][at]
                       for col in zip(*results)]

    # the letters read and their axes, Z always: Z^n is in K_P's view
    axis_of = {v: "XYZ".index(v) for v in "ZXY" if v == "Z" or v in codebooks}
    # per letter read, the ranks of its sequence, its bin and a key's sub-bin
    ranks = {}
    for v, axis in axis_of.items():
        cb, lookups = codebooks.get(v), []
        if cb is not None:
            lookups = [cb.bin_index] + ([cb.sub_bin_index] if v in ("Z", kp_owner) else [])
        ranks[v] = looked_up(axis, *lookups)
    zc = ranks["Z"][0]
    # the transcript F: Z^n without a Z codebook, then the bins in Z, X, Y order
    bins = [ranks[v][1] for v in axis_of if v in codebooks]
    f = functools.reduce(_pair, bins if "Z" in codebooks else [zc] + bins)
    fz = _pair(f, zc)
    psi = ranks[kp_owner][2]
    phi = ranks["Z"][2] if "Z" in codebooks else None

    def ent(label):
        # a column with values past its length is ranked: no count outgrows prob
        if int(label.max()) >= len(label):
            label = _distinct(label)[1]
        return _entropy_masses(np.bincount(label, weights=prob))

    h_kp = ent(psi)
    leak_kp = (h_kp + ent(fz) - ent(_pair(psi, fz, ranked=False))) / n
    leak_ks = h_ks = None
    if phi is not None:
        h_ks = ent(phi)
        leak_ks = (h_ks + ent(f) - ent(_pair(phi, f, ranked=False))) / n
        h_ks /= n
    return {"leak_ks": leak_ks, "leak_kp": leak_kp, "h_ks": h_ks, "h_kp": h_kp / n}


def oracle_codebooks(config: SchemeConfig, k: int) -> dict:
    """The k-th ensemble member's codebooks, as the evaluator draws them."""
    if config.codebook_mode != MODE_TABLE:
        raise UsageError("exact evaluation requires ExplicitTable codebooks")
    if config.scheme == "TimeShare":
        raise UsageError("the oracle covers one-shot schemes only")
    seed = _member_seed(config, k)
    return RunContext(config).draw_codebooks(MODE_TABLE, seed)
