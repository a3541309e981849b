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
product of per-class arrangements, which supports counting, listing and
vectorized bin-filter scans with the same bookkeeping.

A cell is forced when its window row admits at most one symbol s*: every
other symbol's window is [0, 0]. Its class of size m then has the single
arrangement s* * m when lo[s*] <= m <= hi[s*], and none otherwise. Forced
classes build no arrangement table; their positions only add a per-row base
to every candidate's sum, a factor of one that moves no candidate index.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .binning import MODE_HASH
from .errors import CapacityError, SearchOverflowError, UsageError
from .sources import STRUCTURAL_ZERO, _integer, _real, place_values

# absorbs float rounding in window boundaries; deviations of interest are
# at least one count, i.e. 1/n, many orders of magnitude larger
BOUNDARY_FUZZ = 1e-12

DEFAULT_SEARCH_CAP = 2 ** 26
# guard on any single class's arrangements-table cells (rows x positions)
ARRANGE_CELL_CAP = 2 ** 27
# largest array a scan forms at once, in entries
_SCAN_CHUNK = 1 << 20
# KeyedHash spaces at least this large are decoded by the residue join.
# On a 2-core x86-64 AMD EPYC, over the scans of PointT, PointE and PointQ
# trials on xor at n = 13-18, the join cost about 30 us and checking every
# pair about 3 ns a candidate; the two met near 2**13 candidates
JOIN_MIN_CANDIDATES = 2 ** 13
# with fewer bins the join would re-check at least 1/8 of all pairs, while
# checking every pair can stop at the second match (a rate clamped to 0
# gives one bin)
JOIN_MIN_BINS = 16
# classes with at least this many gathered cells per non-zero symbol
# (rows x arrangements x positions x (q - 1)) sum by matrix products. On a
# 2-core x86-64 AMD EPYC the gather cost about 1.7 us plus 3.1 ns a cell and
# the products about 2 us more set-up plus 0.6 ns a cell per symbol; the
# two met near 800 cells at q = 2 and 2,000 at q = 3
MATMUL_MIN_CELLS = 1000


@dataclass(frozen=True)
class TypicalityParams:
    """Tolerance and blocklength for the membership rule."""

    epsilon: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon, "(0, 1)"))
        object.__setattr__(self, "n", _integer("n", self.n, 1))


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
    """Sequences as int64 arrays; UsageError unless each is integers along an axis."""
    out = []
    for s in seqs if isinstance(seqs, (list, tuple)) else (seqs,):
        s = np.asarray(s)
        if s.dtype.kind not in "biu" or s.ndim < 1:
            raise UsageError(f"sequences are integers along an axis, not {s.dtype} {s.shape}")
        out.append(s if s.dtype == np.int64 else s.astype(np.int64))
    return tuple(out)


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


def _class_positions(keys, sizes) -> list:
    """Positions of each present class along the last axis of keys, by
    ascending key and ascending within a class; sizes are those of the
    smallest keys, and positions of larger keys are left out. keys may be
    (rows, n) when every row has the given class sizes; each class is then
    (rows, m).
    """
    if not any(sizes):
        return []
    order = np.argsort(keys, axis=-1, kind="stable")
    starts = itertools.accumulate(sizes, initial=0)
    return [order[..., start:start + m] for start, m in zip(starts, sizes) if m]


def _class_sums(tables, contrib) -> list:
    """Per class, the uint64 sum of contrib[t, seq_t] over the class's
    positions for each of its arrangements: (A,) per class, or (rows, A)
    when the positions are (rows, m).

    A small class gathers its (rows, A, m) contributions and adds them up.
    A larger one forms the sums as matrix products: with c = contrib[pos],
    every arrangement starts from the all-zero-symbol sum of c[..., 0], and
    symbol s >= 1 adds (c[..., s] - c[..., 0]) @ (mat == s).T. uint64
    products and sums wrap mod 2**64 as the gather's sums do, so both give
    the same bits.
    """
    q = contrib.shape[-1]
    out = []
    for pos, mat in tables:
        if pos.size * len(mat) * (q - 1) < MATMUL_MIN_CELLS:
            sums = np.add.reduce(contrib[pos[..., None, :], mat], axis=-1, dtype=np.uint64)
        else:
            c = contrib[pos]
            sums = c[..., 0].sum(axis=-1)[..., None]
            for s in range(1, q):
                sums = sums + (c[..., s] - c[..., 0]) @ (mat == s).T.astype(np.uint64)
        out.append(sums)
    return out


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


def _row_slices(members, mats, total) -> list:
    """Consecutive slices of a group's rows, each small enough that its
    (rows, candidates) sums and its rows x arrangement-table cells stay
    within _SCAN_CHUNK entries; a row wider than that is a slice alone. The
    latter bounds each class's (rows, positions) contribution rows and
    (rows, arrangements) products, and any gather _class_sums makes.
    """
    step = max(1, _SCAN_CHUNK // max(total, max((mat.size for mat in mats), default=0)))
    return [members[a:a + step] for a in range(0, len(members), step)]


def _sums_at(vals_list, hits) -> np.ndarray:
    """The _group_sums entries of the given candidate indices alone."""
    j, acc = np.asarray(hits, dtype=np.int64), np.uint64(0)
    for vals in reversed(vals_list):
        j, i = np.divmod(j, len(vals))
        acc = acc + vals[i]
    return acc


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
    The smaller side's residues are sorted once, and a bitmap of their low
    bits drops the larger side's elements whose target residue cannot
    occur. Each survivor finds the run of its target residue by binary
    search. The join only prunes: every pair it finds is re-checked with the
    codebook's own finalize_bins.
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
    # about 64 bits per small-side element, so a random residue passes with
    # chance under 1/64. The balanced split keeps the small side within
    # sqrt(search cap) = 2**13 elements, so this is at most 2**19 entries;
    # the clamp holds the bitmap to 2**20 entries under any cap
    mask = np.uint64((1 << min(20, (64 * len(residues) - 1).bit_length())) - 1)
    seen = np.zeros(int(mask) + 1, dtype=bool)
    seen[residues & mask] = True
    found = []
    for s0 in range(0, len(large), _SCAN_CHUNK):
        part = large[s0:s0 + _SCAN_CHUNK]
        # t + (m - r) < 2m <= 2**64 never overflows, nor does need + wrap
        need = (t + (m - part % m)) % m
        for residue in ((need,) if wrap == 0 else (need, (need + wrap) % m)):
            keep = np.flatnonzero(seen[residue & mask])
            residue = residue[keep]
            lo = np.searchsorted(residues, residue)
            cnt = np.searchsorted(residues, residue, side="right") - lo
            for li, si in _expand_ranges(lo, cnt):
                li = keep[li]
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
    """Cached per-(window row, class size) arrangement data."""

    __slots__ = ("vectors", "total", "matrix")

    def __init__(self, m, lo_row, hi_row):
        self.vectors = _count_vectors(m, list(lo_row), list(hi_row))
        self.total = sum(_multinomial(m, v) for v in self.vectors)
        self.matrix = None  # materialized on demand

    def materialize(self, m, q):
        # checked on every call, so a table built earlier never skips the guard
        if self.total * max(m, 1) > ARRANGE_CELL_CAP:
            raise SearchOverflowError(
                f"arrangement table for one class would hold {self.total} x {m} "
                f"cells, over the {ARRANGE_CELL_CAP} materialization guard")
        if self.matrix is None:
            self.matrix = _arrangement_matrix(m, self.vectors, q)
        return self.matrix


class CandidateEngine:
    """Typical-candidate enumeration for one unknown variable.

    joint_pmf has the observed variables' axes first (in the order observed
    sequences will be passed) and the unknown variable's axis last. The
    engine caches an arrangement table per (window row, class size) of its
    free (not forced) cells, so reuse one instance across trials that share
    (pmf, params).
    """

    def __init__(self, joint_pmf: np.ndarray, params: TypicalityParams,
                 cap: int = DEFAULT_SEARCH_CAP):
        pmf = np.asarray(joint_pmf, dtype=np.float64)
        if pmf.ndim < 1:
            raise UsageError("joint pmf needs at least the unknown variable's axis")
        self.params = params
        self.cap = _integer("cap", cap)
        self.q = pmf.shape[-1]
        self.obs_shape = pmf.shape[:-1]
        self.obs_cells = int(np.prod(self.obs_shape)) if self.obs_shape else 1
        flat = pmf.reshape(self.obs_cells, self.q)
        self.lo, self.hi = count_windows(flat, params.n, params.epsilon)
        # a forced cell admits at most one symbol, its fill: every other
        # symbol's window is [0, 0]
        admitted = (self.lo != 0) | (self.hi != 0)
        self._forced = admitted.sum(axis=1) <= 1
        self._fill = admitted.argmax(axis=1)
        self._forced_cells = cells = np.flatnonzero(self._forced)
        self._forced_lo = self.lo[cells, self._fill[cells]]
        self._forced_hi = self.hi[cells, self._fill[cells]]
        self._free_cells = np.flatnonzero(~self._forced).tolist()
        # free cells sort by cell code, every forced position after them
        self._rank = np.where(self._forced, self.obs_cells, np.arange(self.obs_cells))
        # free cells (by their place among the free cells) whose windows
        # forbid a zero count: absent, they rule out every candidate
        self._must_occur = np.flatnonzero(self.lo[self._free_cells].max(axis=1) > 0).tolist()
        # a block depends on a cell only through its windows, so cells with
        # equal windows share their blocks
        _, window = np.unique(np.hstack([self.lo, self.hi]), axis=0, return_inverse=True)
        self._window = window.ravel().tolist()
        self._blocks = {}
        self.forced_only = not self._free_cells
        self._folds = {}    # _fold per (stage-2 engine, own_first)

    # -- class bookkeeping ------------------------------------------------

    def _block(self, cell, m) -> _ClassBlock:
        key = (self._window[cell], m)
        block = self._blocks.get(key)
        if block is None:
            block = _ClassBlock(m, self.lo[cell], self.hi[cell])
            self._blocks[key] = block
        return block

    def _size_tables(self, sizes):
        """Arrangement tables of the classes of the given free-cell sizes
        (None: a forced class fits no window), present cells by ascending
        cell code, and the candidate count; (None, 0) when there is no
        candidate. The search cap is checked before any arrangement table is
        built.
        """
        # an absent cell whose windows forbid a zero count rules out everything
        if sizes is None or any(sizes[i] == 0 for i in self._must_occur):
            return None, 0
        classes = [(m, self._block(cell, m)) for cell, m in zip(self._free_cells, sizes) if m]
        total = math.prod(block.total for _, block in classes)
        if total > self.cap:
            raise SearchOverflowError(
                f"{total} candidates exceed the search cap {self.cap}")
        if total == 0:
            return None, 0
        return [block.materialize(m, self.q) for m, block in classes], total

    def _free_sizes(self, sizes):
        """Per row of per-cell class sizes, whether every forced class fits
        its fill's window (absent ones included), and the free cells' sizes.
        """
        if not self._forced_cells.size:
            return np.ones(sizes.shape[:-1], dtype=bool), sizes
        counts = sizes[..., self._forced_cells]
        fits = ((counts >= self._forced_lo) & (counts <= self._forced_hi)).all(axis=-1)
        return fits, sizes[..., self._free_cells]

    def _positions(self, codes, sizes) -> list:
        """_class_positions of the free classes of codes, one row or (rows, n)."""
        return _class_positions(self._rank[codes], sizes)

    def _sums(self, codes, tables, contrib) -> list:
        """_class_sums of the (positions, table) pairs of one row of cell
        codes or of (rows, n), led by the rows' forced base as a class of one
        arrangement: the uint64 sum of contrib[t, fill] over the positions t
        of forced cells. Without forced cells there is no base.
        """
        if not self._forced_cells.size:
            return _class_sums(tables, contrib)
        picked = contrib[np.arange(self.params.n), self._fill[codes]]
        base = np.where(self._forced[codes], picked, np.uint64(0)).sum(axis=-1, dtype=np.uint64)
        return [base[..., None], *_class_sums(tables, contrib)]

    def _row_sizes(self, observed):
        """Cell codes of observed sequences as (rows, n), and each row's
        _free_sizes. A (rows, n) array holds one sequence per row, one without
        a row axis is shared by every row, and without any there is one row.
        """
        codes = np.atleast_2d(_cell_codes(_as_seq_tuple(observed), self.obs_shape,
                                          self.params.n))
        rows, cells = len(codes), self.obs_cells
        offsets = np.arange(rows)[:, None] * cells
        return codes, *self._free_sizes(np.bincount(
            (codes + offsets).ravel(), minlength=rows * cells).reshape(rows, cells))

    def _row_classes(self, observed):
        """Cell codes as _row_sizes gives them, and the rows grouped by equal
        free-cell class sizes: (codes, [(rows, sizes), ...]), rows ascending
        within a group. Rows whose forced classes rule out every candidate
        are in no group.
        """
        codes, fits, sizes = self._row_sizes(observed)
        order = np.flatnonzero(fits)
        if not len(order):
            return codes, []
        # rows with equal class sizes are adjacent in order, ascending within;
        # without free cells every row has the same (empty) sizes
        if self._free_cells:
            order = order[np.lexsort(sizes[order].T)]
        ranked = sizes[order]
        ends = np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1
        bounds = [0, *ends.tolist(), len(order)]
        return codes, [(order[a:b], ranked[a].tolist()) for a, b in zip(bounds, bounds[1:])]

    def _reconstruct(self, hits, tables, codes) -> np.ndarray:
        """Candidates of the given indices of one row of cell codes as the
        rows of an (H, n) int64 array: forced positions hold their fill, and
        the first free class's arrangement varies slowest.
        """
        j = np.asarray(hits, dtype=np.int64)
        seqs = np.empty((len(j), self.params.n), dtype=np.int64)
        seqs[:] = self._fill[codes]
        for pos, mat in reversed(tables):
            j, i = np.divmod(j, len(mat))
            seqs[:, pos] = mat[i]
        return seqs

    # -- enumeration ------------------------------------------------------

    def candidate_indices(self, observed):
        """Sequence codes (sources.sequence_code) of every row's candidates,
        and each row's count: (codes, counts), the rows in order and each
        row's candidates in its own candidate order. Requires q**n to fit
        comfortably in int64. Rows are as in _row_classes.

        Rows with equal free-cell class sizes share their arrangement tables,
        and rows of forced cells only have one candidate each. Any row
        over the search cap raises SearchOverflowError, as that row alone
        would; rows within it whose codes add up to more than the cap raise
        CapacityError before the codes are allocated.
        """
        if self.q ** self.params.n >= 2 ** 62:
            raise CapacityError(
                f"{self.q}**{self.params.n} sequence codes overflow the index space")
        places = place_values(self.q, self.params.n)
        codes, groups = self._row_classes(observed)
        counts = np.zeros(len(codes), dtype=np.int64)
        blocks = []
        for members, shape in groups:
            mats, total = self._size_tables(shape)
            if mats is not None:
                counts[members] = total
                blocks.append((members, shape, mats, total))
        size = int(counts.sum())
        if size > self.cap:
            raise CapacityError(
                f"{size} candidate codes over all rows exceed the search cap {self.cap}")
        first = np.cumsum(counts) - counts
        out = np.empty(size, dtype=np.int64)
        for members, shape, mats, total in blocks:
            for part in _row_slices(members, mats, total):
                tables = zip(self._positions(codes[part], shape), mats)
                out[first[part][:, None] + np.arange(total)] = _group_sums(
                    self._sums(codes[part], tables, places))
        return out, counts

    # -- vectorized scans -------------------------------------------------

    def _hits(self, codes, tables, total, contrib, codebook, target, limit):
        """Indices of the first limit candidates (None: all) of one row of
        cell codes and its (positions, table) classes whose bin, summed over
        contrib, is target: one bin holds all, large KeyedHash spaces take
        the residue join, the rest check every pair of two groups' sums."""
        if codebook.num_bins == 1:
            return range(total if target == 0 else 0)[:limit]
        vals = self._sums(codes, tables, contrib)
        if (codebook.mode == MODE_HASH and total >= JOIN_MIN_CANDIDATES
                and codebook.num_bins >= JOIN_MIN_BINS):
            return _residue_join(vals, codebook, target, limit)
        return _full_product(vals, codebook.finalize_bins, np.uint64(target), limit)[:limit]

    def _scan_row(self, codes, sizes, codebook, target, limit):
        """The first limit candidates (None: all) of one row of cell codes
        whose bin under codebook is target, as the rows of an (H, n) int64
        array in candidate order.
        """
        mats, total = self._size_tables(sizes)
        if mats is None:
            return np.empty((0, self.params.n), dtype=np.int64)
        # (positions, arrangement table) per free class, by ascending cell code
        tables = list(zip(self._positions(codes, sizes), mats))
        hits = self._hits(codes, tables, total, codebook.contribution_table(), codebook,
                          target, limit)
        return self._reconstruct(hits, tables, codes)

    def scan_bin_filter(self, observed, codebook, target, limit=None):
        """The first limit candidates (None: all) of observed sequences
        without a row axis whose bin under codebook (a BinningCodebook) is
        target, as the rows of an (H, n) int64 array in candidate order.
        """
        codes = _cell_codes(_as_seq_tuple(observed), self.obs_shape, self.params.n)
        # the free cells' class sizes, None when a forced class fits no window
        fits, sizes = self._free_sizes(np.bincount(codes, minlength=self.obs_cells))
        return self._scan_row(codes, sizes.tolist() if fits else None, codebook, target, limit)

    # -- pair decoding -------------------------------------------------------

    def scan_pair(self, own, codebook, target, stage2, own_first, codebook2, target2):
        """Pair decoding: helpers are this engine's candidates of own in bin
        target, each extended by stage2's candidates of the pair (own sequence
        first if own_first) in bin target2, read as if each helper were scanned
        in turn until the second match. Returns the matches capped at 2, and
        (helper, z) for one match, else None; raises SearchOverflowError where
        such a scan would. Free-cell stage 2 scans the helpers one at a time on
        the cell codes of one _row_sizes call. A forced_only stage2 makes z a
        function of the helper: one pass over stage 1's classes keeps helpers
        whose classes fit stage2's windows, with z in bin target2, and raises
        before any sum, also where stage2's cap < 1 and a helper fits."""
        if not stage2.forced_only:
            helpers = self.scan_bin_filter(own, codebook, target)
            own = _as_seq_tuple(own)
            codes, fits, sizes = stage2._row_sizes(
                (*own, helpers) if own_first else (helpers, *own))
            count, pair = 0, None
            for helper, row, fit, shape in zip(helpers, codes, fits.tolist(), sizes.tolist()):
                found = stage2._scan_row(row, shape if fit else None, codebook2, target2, 2)
                count += len(found)
                if count >= 2:
                    return 2, None
                if len(found):
                    # copies, so the pair does not keep the scans' arrays alive
                    pair = helper.copy(), found[0].copy()
            return count, pair
        codes = _cell_codes(_as_seq_tuple(own), self.obs_shape, self.params.n)
        counts = np.bincount(codes, minlength=self.obs_cells)
        fits, sizes = self._free_sizes(counts)
        sizes = sizes.tolist()
        mats, _ = self._size_tables(sizes if fits else None)
        fold = fill, lo2, hi2, _ = self._fold(stage2, own_first)
        # a forced or absent class has one count vector: its size at its fill
        vecs = counts[:, None] * (self._fill[:, None] == np.arange(self.q))
        if mats is None or not ((vecs >= lo2) & (vecs <= hi2))[self._forced | (counts == 0)].all():
            return 0, None
        present = [(cell, m) for cell, m in zip(self._free_cells, sizes) if m]
        tables = [(pos, self._kept(fold, *key, mat))
                  for pos, key, mat in zip(self._positions(codes, sizes), present, mats)]
        total = math.prod(len(mat) for _, mat in tables)
        contrib = codebook.contribution_table()
        # each helper that fits is one stage-2 candidate, over a cap below 1
        if stage2.cap < 1 and self._hits(codes, tables, total, contrib, codebook, target, 1):
            raise SearchOverflowError(f"1 candidates exceed the search cap {stage2.cap}")
        # z's bin sum is a second additive hash of the helper
        w = codebook2.contribution_table()[np.arange(self.params.n)[:, None], fill[codes]]
        if codebook.num_bins == 1:
            hits = [] if target else self._hits(codes, tables, total, w, codebook2, target2, 2)
        else:
            hits = self._hits(codes, tables, total, contrib, codebook, target, None)
            bins = codebook2.finalize_bins(_sums_at(self._sums(codes, tables, w), hits))
            hits = np.asarray(hits, dtype=np.int64)[bins == np.uint64(target2)][:2]
        if len(hits) != 1:
            return len(hits), None
        helper = self._reconstruct(hits, tables, codes)[0].copy()
        return 1, (helper, fill[codes, helper])

    def _fold(self, stage2, own_first):
        """Per (own cell, helper symbol) the fill of stage2's cell and its
        window, and a cache of _kept tables; once per stage2 and own_first."""
        key = (stage2, own_first)
        if key not in self._folds:
            grid = np.arange(stage2.obs_cells).reshape(stage2.obs_shape)
            grid = grid if own_first else grid.T
            fill = stage2._fill[grid]
            self._folds[key] = (fill, stage2.lo[grid, fill], stage2.hi[grid, fill], {})
        return self._folds[key]

    def _kept(self, fold, cell, m, mat):
        """mat, the class of cell and size m, without the arrangements whose
        count vector misses the fold's windows."""
        _, lo2, hi2, kept = fold
        if (cell, m) not in kept:
            vectors = self._block(cell, m).vectors
            ok = ((np.array(vectors) >= lo2[cell]) & (np.array(vectors) <= hi2[cell])).all(axis=1)
            kept[cell, m] = mat if ok.all() else mat[
                np.repeat(ok, [_multinomial(m, v) for v in vectors])]
        return kept[cell, m]
