"""Robust typicality and typical-candidate enumeration.

A length-n sequence (or aligned tuple of sequences) is typical for a pmf P
when every cell a of P satisfies |count(a)/n - P(a)| <= epsilon * P(a), and
count(a) = 0 wherever P(a) is a structural zero. The relative form makes the
test scale with each cell's own mass, so rare symbols get proportionally
tight windows.

The rest of the module turns that rule into machinery that never materializes
the alphabet**n sequence space. Fix observed sequences and one unknown
variable (the last pmf axis). Positions group into classes by their observed
cell, and the typicality rule constrains only the per-class symbol counts of
the unknown: each class's count vector must fit the joint windows of its row
and sum to the class size. Candidates therefore factorize into a cross
product of per-class arrangements, which supports counting, lazy iteration,
and vectorized bin-filter scans with the same bookkeeping.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .binning import MODE_HASH
from .errors import CapacityError, SearchOverflowError, UsageError
from .sources import STRUCTURAL_ZERO, place_values

# absorbs float rounding in window boundaries; deviations of interest are
# at least one count, i.e. 1/n, many orders of magnitude larger
BOUNDARY_FUZZ = 1e-12

DEFAULT_SEARCH_CAP = 2 ** 26
DEFAULT_ENUM_CAP = 2 ** 24
# guard on any single class's arrangements-table cells (rows x positions)
ARRANGE_CELL_CAP = 2 ** 27
# largest array a scan forms at once, in entries
_SCAN_CHUNK = 1 << 20
# KeyedHash spaces at least this large are decoded by the residue join.
# On a 2-core x86-64 Xeon the join cost about 0.1 ms plus a little per
# candidate and checking every pair about 10 ns a candidate; the two met
# near 3e4 candidates
JOIN_MIN_CANDIDATES = 2 ** 15
# with fewer bins the join would re-check at least 1/8 of all pairs, while
# checking every pair can stop at the second match (a rate clamped to 0
# gives one bin)
JOIN_MIN_BINS = 16


@dataclass(frozen=True)
class TypicalityParams:
    """Tolerance and blocklength for the membership rule."""

    epsilon: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise UsageError(f"epsilon must lie strictly in (0, 1), got {self.epsilon}")
        if self.n < 1:
            raise UsageError(f"n must be >= 1, got {self.n}")


def count_window(n: int, p: float, epsilon: float):
    """Integer counts k admissible for a cell of mass p: the k with
    |k/n - p| <= epsilon * p. Structural zeros admit only k = 0.
    """
    if p <= STRUCTURAL_ZERO:
        return (0, 0)
    lo = math.ceil(n * p * (1.0 - epsilon) - BOUNDARY_FUZZ)
    hi = math.floor(n * p * (1.0 + epsilon) + BOUNDARY_FUZZ)
    return (max(lo, 0), min(hi, n))


def count_windows(pmf: np.ndarray, n: int, epsilon: float):
    """Per-cell windows as two integer arrays shaped like pmf."""
    flat = np.asarray(pmf, dtype=np.float64).ravel()
    lo = np.empty(len(flat), dtype=np.int64)
    hi = np.empty(len(flat), dtype=np.int64)
    for i, p in enumerate(flat):
        lo[i], hi[i] = count_window(n, float(p), epsilon)
    return lo.reshape(pmf.shape), hi.reshape(pmf.shape)


def _as_seq_tuple(seqs):
    if isinstance(seqs, (list, tuple)):
        return tuple(np.asarray(s, dtype=np.int64) for s in seqs)
    return (np.asarray(seqs, dtype=np.int64),)


def _cell_codes(seqs, shape, n) -> np.ndarray:
    """Row-major cell code, against pmf axes of the given shape, of each
    position of aligned length-n int64 sequences (one per axis). An axis may
    also be given as a (rows, n) array, one sequence per row, which makes the
    codes (rows, n). Raises UsageError on a count, length or symbol mismatch.
    """
    if len(seqs) != len(shape):
        raise UsageError(f"{len(seqs)} sequences against {len(shape)} pmf axes")
    code = np.zeros(n, dtype=np.int64)
    for s, size in zip(seqs, shape):
        if s.shape[-1:] != (n,):
            raise UsageError(f"sequence shape {s.shape} does not end in n={n}")
        # negative symbols wrap to huge unsigned values
        if s.size and s.view(np.uint64).max() >= size:
            raise UsageError("sequence symbol outside the pmf alphabet")
        code = code * size + s
    return code


def joint_counts(seqs, shape) -> np.ndarray:
    """Empirical cell counts of aligned sequences against a pmf shape."""
    seqs = _as_seq_tuple(seqs)
    code = _cell_codes(seqs, shape, len(seqs[0]))
    return np.bincount(code, minlength=math.prod(shape)).reshape(shape)


def is_strongly_typical(seqs, pmf: np.ndarray, params: TypicalityParams) -> bool:
    """Membership test. seqs is one array or an aligned tuple; pmf must have
    one axis per sequence. Length must equal params.n.
    """
    seqs = _as_seq_tuple(seqs)
    pmf = np.asarray(pmf, dtype=np.float64)
    if len(seqs[0]) != params.n:
        raise UsageError(f"sequence length {len(seqs[0])} differs from params.n={params.n}")
    counts = joint_counts(seqs, pmf.shape)
    lo, hi = count_windows(pmf, params.n, params.epsilon)
    return bool(np.all((counts >= lo) & (counts <= hi)))


def _count_vectors(m, lo, hi):
    """Integer vectors k with lo <= k <= hi elementwise and sum(k) = m,
    lexicographic order.
    """
    q = len(lo)
    suf_lo = [0] * (q + 1)
    suf_hi = [0] * (q + 1)
    for b in range(q - 1, -1, -1):
        suf_lo[b] = suf_lo[b + 1] + lo[b]
        suf_hi[b] = suf_hi[b + 1] + hi[b]
    vec = [0] * q
    out = []

    def rec(b, rem):
        if b == q - 1:
            if lo[b] <= rem <= hi[b]:
                vec[b] = rem
                out.append(tuple(vec))
            return
        k_min = max(lo[b], rem - suf_hi[b + 1])
        k_max = min(hi[b], rem - suf_lo[b + 1])
        for k in range(k_min, k_max + 1):
            vec[b] = k
            rec(b + 1, rem - k)

    rec(0, m)
    return out


def _multinomial(m, counts) -> int:
    out = 1
    rem = m
    for k in counts:
        out *= math.comb(rem, k)
        rem -= k
    return out


@functools.lru_cache(maxsize=64)
def _combination_tables(size, k):
    """The k-subsets of range(size) in itertools.combinations order, and each
    subset's complement in ascending order, as two read-only (C(size, k), .)
    int16 arrays. Class sizes stay far below 2**15: ARRANGE_CELL_CAP bounds
    C(m, k) * m.
    """
    count = math.comb(size, k)
    chosen = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(size), k)),
        dtype=np.int16, count=count * k).reshape(count, k)
    keep = np.ones((count, size), dtype=bool)
    row = np.arange(count)
    for col in chosen.T:        # one column at a time bounds the index copies
        keep[row, col] = False
    slots = np.broadcast_to(np.arange(size, dtype=np.int16), keep.shape)
    rest = slots[keep].reshape(count, size - k)
    chosen.flags.writeable = False
    rest.flags.writeable = False
    return chosen, rest


def _arrangement_matrix(m, vectors, q) -> np.ndarray:
    """All symbol assignments to m slots realizing each count vector, as one
    (A, m) int8 matrix. Within a vector, symbols are placed in ascending
    order, each into lexicographic combinations of the slots still free, so
    the row order is deterministic: earlier symbols' choices vary slowest.
    """
    blocks = []
    for counts in vectors:
        syms = [s for s in range(q) if counts[s] > 0]
        # the last symbol present takes whatever slots the others leave
        rows = np.full((1, m), syms[-1] if syms else 0, dtype=np.int8)
        free = np.arange(m, dtype=np.int16)[None, :]
        for s in syms[:-1]:
            chosen, rest = _combination_tables(free.shape[1], counts[s])
            taken = free[:, chosen].reshape(len(rows) * len(chosen), -1)
            free = free[:, rest].reshape(len(taken), -1)
            rows = np.repeat(rows, len(chosen), axis=0)
            row = np.arange(len(rows))
            for col in taken.T:
                rows[row, col] = s
        blocks.append(rows)
    if not blocks:
        return np.zeros((0, m), dtype=np.int8)
    return np.concatenate(blocks)


def _class_positions(codes, sizes) -> list:
    """Positions of each present class along the last axis of codes, by
    ascending cell code and ascending within a class. codes may be (rows, n)
    when every row has the given class sizes; each class is then (rows, m).
    """
    order = np.argsort(codes, axis=-1, kind="stable")
    starts = itertools.accumulate(sizes, initial=0)
    return [order[..., start:start + m] for start, m in zip(starts, sizes) if m]


def _class_sums(tables, contrib) -> list:
    """Per class, the uint64 sum of contrib[t, seq_t] over the class's
    positions for each of its arrangements: (A,) per class, or (rows, A)
    when the positions are (rows, m).
    """
    return [np.add.reduce(contrib[pos[..., None, :], mat], axis=-1, dtype=np.uint64)
            for pos, mat in tables]


def _group_sums(vals_list) -> np.ndarray:
    """uint64 sums over the cross product of per-class value vectors, flat in
    C order along the last axis: the first class varies slowest, as in
    candidate order. Leading axes (rows) pass through.
    """
    if not vals_list:
        return np.zeros(1, dtype=np.uint64)
    acc = vals_list[0]
    for vals in vals_list[1:]:
        acc = (acc[..., :, None] + vals[..., None, :]).reshape(*acc.shape[:-1], -1)
    return acc


def _joins(codebook, total) -> bool:
    """Whether a space of total candidates is decoded by the residue join."""
    return (codebook.mode == MODE_HASH and total >= JOIN_MIN_CANDIDATES
            and codebook.num_bins >= JOIN_MIN_BINS)


def _split_sums(vals_list):
    """Group sums of the class prefix and suffix whose products are closest
    to balanced; candidate j pairs left[j // len(right)] with
    right[j % len(right)].
    """
    sizes = [len(v) for v in vals_list]
    total = math.prod(sizes)
    best, split, prefix = total, 0, 1
    for p, a in enumerate(sizes, 1):
        prefix *= a
        worst = max(prefix, total // prefix)
        if worst < best:
            best, split = worst, p
    return _group_sums(vals_list[:split]), _group_sums(vals_list[split:])


def _full_product(vals_list, finalize, target, limit):
    """Candidate indices whose bin finalize(sum) is target, ascending. Works
    in blocks of about _SCAN_CHUNK candidates and stops after the block that
    reaches limit matches (None: no limit).
    """
    if math.prod(len(v) for v in vals_list) <= _SCAN_CHUNK:
        return np.flatnonzero(finalize(_group_sums(vals_list)) == target).tolist()
    left, right = _split_sums(vals_list)
    n_right = len(right)
    rows = max(1, _SCAN_CHUNK // n_right)
    cols = min(n_right, _SCAN_CHUNK)
    hits = []
    for r0 in range(0, len(left), rows):
        r1 = min(r0 + rows, len(left))
        for c0 in range(0, n_right, cols):
            c1 = min(c0 + cols, n_right)
            bins = finalize(np.add.outer(left[r0:r1], right[c0:c1]).ravel())
            local = np.flatnonzero(bins == target)
            if len(local):
                width = c1 - c0
                hits.extend(((r0 + local // width) * n_right + c0 + local % width).tolist())
                if limit is not None and len(hits) >= limit:
                    return hits
    return hits


def _expand_ranges(lo, cnt):
    """Pairs (i, lo[i] + k) for 0 <= k < cnt[i], in pieces of about
    _SCAN_CHUNK pairs (one i alone may exceed that).
    """
    ends = np.cumsum(cnt)
    start = 0
    while start < len(cnt):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _SCAN_CHUNK, side="right")))
        size = int(ends[stop - 1]) - base
        if size:
            c = cnt[start:stop]
            idx = np.repeat(np.arange(start, stop), c)
            offset = np.arange(size) - np.repeat(ends[start:stop] - c - base, c)
            yield idx, lo[idx] + offset
        start = stop


def _residue_join(vals_list, codebook, target, limit):
    """Candidate indices whose KeyedHash bin is target, ascending, found
    without forming the cross product of the two class groups' sums. Only
    the limit smallest are kept (None: all).

    A pair's bin is ((l + r) mod 2**64) mod M, so r mod M must equal
    (target - l mod M) mod M, or that plus 2**64 mod M when l + r wraps.
    The smaller side's residues are sorted once and each element of the
    larger side looks up its two target residues. The join only prunes:
    every pair it finds is re-checked with the codebook's own finalize_bins.
    """
    left, right = _split_sums(vals_list)
    m = np.uint64(codebook.num_bins)
    wrap = np.uint64((1 << 64) % codebook.num_bins)
    t = np.uint64(target)
    small_is_right = len(right) <= len(left)
    small, large = (right, left) if small_is_right else (left, right)
    residues = small % m
    order = np.argsort(residues, kind="stable")
    residues = residues[order]
    small = small[order]
    found = []
    for s0 in range(0, len(large), _SCAN_CHUNK):
        part = large[s0:s0 + _SCAN_CHUNK]
        # t + (m - r) < 2m <= 2**64 never overflows, nor does need + wrap
        need = (t + (m - part % m)) % m
        for residue in ((need,) if wrap == 0 else (need, (need + wrap) % m)):
            lo = np.searchsorted(residues, residue, side="left")
            cnt = np.searchsorted(residues, residue, side="right") - lo
            for li, si in _expand_ranges(lo, cnt):
                ok = codebook.finalize_bins(part[li] + small[si]) == t
                li = li[ok] + s0
                si = order[si[ok]]
                found.append(li * len(right) + si if small_is_right
                             else si * len(right) + li)
                if limit is not None:
                    found = [np.sort(np.concatenate(found))[:limit]]
    if not found:
        return []
    return np.sort(np.concatenate(found))[:limit].tolist()


class _ClassBlock:
    """Cached per-(observed cell, class size) arrangement data."""

    __slots__ = ("vectors", "total", "matrix")

    def __init__(self, m, lo_row, hi_row):
        self.vectors = _count_vectors(m, list(lo_row), list(hi_row))
        self.total = sum(_multinomial(m, v) for v in self.vectors)
        self.matrix = None  # materialized on demand

    def materialize(self, m, q):
        if self.matrix is None:
            if self.total * max(m, 1) > ARRANGE_CELL_CAP:
                raise SearchOverflowError(
                    f"arrangement table for one class would hold {self.total} x {m} "
                    f"cells, over the {ARRANGE_CELL_CAP} materialization guard")
            self.matrix = _arrangement_matrix(m, self.vectors, q)
        return self.matrix


class CandidateEngine:
    """Typical-candidate enumeration for one unknown variable.

    joint_pmf has the observed variables' axes first (in the order observed
    sequences will be passed) and the unknown variable's axis last. The
    engine caches per-class arrangement tables, so reuse one instance across
    trials that share (pmf, params).
    """

    def __init__(self, joint_pmf: np.ndarray, params: TypicalityParams,
                 cap: int = DEFAULT_SEARCH_CAP):
        pmf = np.asarray(joint_pmf, dtype=np.float64)
        if pmf.ndim < 1:
            raise UsageError("joint pmf needs at least the unknown variable's axis")
        self.params = params
        self.cap = int(cap)
        self.q = pmf.shape[-1]
        self.obs_shape = pmf.shape[:-1]
        self.obs_cells = int(np.prod(self.obs_shape)) if self.obs_shape else 1
        flat = pmf.reshape(self.obs_cells, self.q)
        self.lo, self.hi = count_windows(flat, params.n, params.epsilon)
        # cells whose windows forbid a zero count: absent, they rule out
        # every candidate
        self._must_occur = np.flatnonzero(self.lo.max(axis=1) > 0).tolist()
        self._blocks = {}

    # -- class bookkeeping ------------------------------------------------

    def _block(self, cell, m) -> _ClassBlock:
        key = (cell, m)
        block = self._blocks.get(key)
        if block is None:
            block = _ClassBlock(m, self.lo[cell], self.hi[cell])
            self._blocks[key] = block
        return block

    def _size_tables(self, sizes):
        """Arrangement tables of the classes of the given per-cell sizes,
        present cells by ascending cell code, and the candidate count;
        (None, 0) when there is no candidate. The search cap is checked
        before any arrangement table is built.
        """
        # an absent cell whose windows forbid a zero count rules out everything
        if any(sizes[cell] == 0 for cell in self._must_occur):
            return None, 0
        classes = [(m, self._block(cell, m)) for cell, m in enumerate(sizes) if m]
        total = math.prod(block.total for _, block in classes)
        if total > self.cap:
            raise SearchOverflowError(
                f"{total} candidates exceed the search cap {self.cap}")
        if total == 0:
            return None, 0
        return [block.materialize(m, self.q) for m, block in classes], total

    def _class_tables(self, observed):
        """[(positions, arrangement table), ...] per class, by ascending
        observed cell code with positions ascending, and the candidate count;
        (None, 0) when there is no candidate.
        """
        if observed is None or (isinstance(observed, (tuple, list)) and not len(observed)):
            observed = ()
        else:
            observed = _as_seq_tuple(observed)
        codes = _cell_codes(observed, self.obs_shape, self.params.n)
        sizes = np.bincount(codes, minlength=self.obs_cells).tolist()
        mats, total = self._size_tables(sizes)
        if mats is None:
            return None, 0
        return list(zip(_class_positions(codes, sizes), mats)), total

    def _reconstruct(self, hits, tables) -> np.ndarray:
        """Candidates of the given indices as the rows of an (H, n) int64
        array: the first class's arrangement varies slowest.
        """
        j = np.asarray(hits, dtype=np.int64)
        seqs = np.empty((len(j), self.params.n), dtype=np.int64)
        for pos, mat in reversed(tables):
            j, i = np.divmod(j, len(mat))
            seqs[:, pos] = mat[i]
        return seqs

    # -- enumeration ------------------------------------------------------

    def iter_candidates(self, observed):
        """Yield each typical unknown sequence as an int64 array. Candidate
        order is the cross product of per-class arrangement orders, first
        class slowest. Raises SearchOverflowError beyond the cap before
        yielding anything.
        """
        tables, total = self._class_tables(observed)
        for j in range(total):
            yield self._reconstruct([j], tables)[0]

    def candidate_indices(self, observed) -> np.ndarray:
        """Sequence codes (sources.sequence_code) of all candidates in
        candidate order. Requires q**n to fit comfortably in int64.
        """
        if self.q ** self.params.n >= 2 ** 62:
            raise CapacityError(
                f"{self.q}**{self.params.n} sequence codes overflow the index space")
        tables, _ = self._class_tables(observed)
        if tables is None:
            return np.zeros(0, dtype=np.int64)
        places = place_values(self.q, self.params.n)
        return _group_sums(_class_sums(tables, places)).astype(np.int64)

    # -- vectorized scans -------------------------------------------------

    def scan_bin_filter(self, observed, codebook, target, want="unique"):
        """Candidates whose bin under codebook (a BinningCodebook) is target.

        want="unique" returns (n_matches capped at 2, first match or None);
        want="all" returns every match, as the rows of an (H, n) int64 array.
        Candidate order is identical to iter_candidates. The classes split
        into two groups whose partial sums pair up into candidates; large
        KeyedHash spaces are decoded by a residue join of the two groups,
        everything else by checking every pair.
        """
        tables, total = self._class_tables(observed)
        if tables is None:
            return (0, None) if want == "unique" else np.empty((0, self.params.n), np.int64)
        vals = _class_sums(tables, codebook.contribution_table())
        limit = 2 if want == "unique" else None
        if _joins(codebook, total):
            hits = _residue_join(vals, codebook, target, limit)
        else:
            hits = _full_product(vals, codebook.finalize_bins, np.uint64(target), limit)
        if want == "unique":
            first = self._reconstruct(hits[:1], tables)[0] if hits else None
            return (min(len(hits), 2), first)
        return self._reconstruct(hits, tables)

    def scan_bin_filter_rows(self, helpers, own, own_first, codebook, target):
        """scan_bin_filter(observed, codebook, target) for every row of the
        (S, n) helpers array, with observed = (own, row) if own_first else
        (row, own), for an engine with two observed axes.

        Returns (counts, first): per row the match count capped at 2, or None
        where scan_bin_filter would raise SearchOverflowError; and the first
        match of the first row with exactly one (None without such a row).
        Rows with equal class sizes share their arrangement tables and are
        scanned in one vectorized pass. A group whose rows times candidates
        (or arrangement cells) exceed _SCAN_CHUNK, or whose candidates are
        decoded by the residue join, is scanned row by row by scan_bin_filter.
        """
        helpers = np.asarray(helpers, dtype=np.int64)
        own = np.asarray(own, dtype=np.int64)
        rows, cells = len(helpers), self.obs_cells
        if not rows:
            return [], None
        observed = (own, helpers) if own_first else (helpers, own)
        codes = _cell_codes(observed, self.obs_shape, self.params.n)
        offsets = np.arange(rows)[:, None] * cells
        sizes = np.bincount((codes + offsets).ravel(),
                            minlength=rows * cells).reshape(rows, cells)
        # rows with equal class sizes are adjacent in order, ascending within
        order = np.lexsort(sizes.T)
        ranked = sizes[order]
        starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
        counts = np.zeros(rows, dtype=np.int64)     # -1: over the search cap
        first_hit = np.zeros(rows, dtype=np.int64)  # candidate index of a row's first match
        scanned = {}    # row -> first match, for rows scanned one by one

        def row_observed(r):
            return (own, helpers[r]) if own_first else (helpers[r], own)

        for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), rows]):
            members = order[start:stop]
            shape = ranked[start].tolist()
            try:
                mats, total = self._size_tables(shape)
            except SearchOverflowError:
                counts[members] = -1
                continue
            if mats is None:
                continue
            widest = max(total, max(mat.size for mat in mats))
            if len(members) * widest > _SCAN_CHUNK or _joins(codebook, total):
                for r in members.tolist():
                    counts[r], scanned[r] = self.scan_bin_filter(
                        row_observed(r), codebook, target)
                continue
            tables = zip(_class_positions(codes[members], shape), mats)
            sums = _group_sums(_class_sums(tables, codebook.contribution_table()))
            hit = codebook.finalize_bins(sums) == np.uint64(target)
            counts[members] = np.minimum(hit.sum(axis=1), 2)
            first_hit[members] = hit.argmax(axis=1)
        counts = [None if c < 0 else c for c in counts.tolist()]
        row = next((r for r, c in enumerate(counts) if c == 1), None)
        if row is None:
            return counts, None
        if row in scanned:
            return counts, scanned[row]
        # only this row's match is rebuilt as a sequence
        tables, _ = self._class_tables(row_observed(row))
        return counts, self._reconstruct(first_hit[row:row + 1], tables)[0]


def conditional_candidates(observed, joint_pmf, params: TypicalityParams):
    """Sequences of the last pmf axis jointly typical with the observed
    sequences (earlier axes, in order). Returns a list; deterministic order.
    Raises SearchOverflowError past DEFAULT_SEARCH_CAP candidates.
    """
    return list(CandidateEngine(joint_pmf, params).iter_candidates(observed))


def enumerate_typical(pmf, params: TypicalityParams, cap: int = DEFAULT_ENUM_CAP):
    """All typical sequences for a marginal, or aligned sequence tuples for a
    joint pmf. Raises CapacityError when the typical set exceeds the cap.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    flat = pmf.ravel()
    engine = CandidateEngine(flat, params, cap=cap)
    try:
        atoms = list(engine.iter_candidates(()))
    except SearchOverflowError as exc:
        raise CapacityError(
            f"typical set exceeds the {cap} enumeration cap") from exc
    if pmf.ndim == 1:
        return atoms
    return [np.unravel_index(a, pmf.shape) for a in atoms]
