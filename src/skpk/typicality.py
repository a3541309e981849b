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
from .sources import STRUCTURAL_ZERO

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


def joint_counts(seqs, shape) -> np.ndarray:
    """Empirical cell counts of aligned sequences against a pmf shape."""
    seqs = _as_seq_tuple(seqs)
    if len(seqs) != len(shape):
        raise UsageError(f"{len(seqs)} sequences against a {len(shape)}-axis pmf")
    code = np.zeros(len(seqs[0]), dtype=np.int64)
    for s, size in zip(seqs, shape):
        if len(s) != len(seqs[0]):
            raise UsageError("sequences must have equal length")
        if len(s) and (s.min() < 0 or s.max() >= size):
            raise UsageError("sequence symbol outside the pmf alphabet")
        code = code * size + s
    total = 1
    for size in shape:
        total *= size
    return np.bincount(code, minlength=total).reshape(shape)


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


def _group_sums(vals_list) -> np.ndarray:
    """uint64 sums over the cross product of per-class value vectors, flat in
    C order: the first class varies slowest, as in candidate order.
    """
    if not vals_list:
        return np.zeros(1, dtype=np.uint64)
    acc = vals_list[0]
    for vals in vals_list[1:]:
        acc = np.add.outer(acc, vals).ravel()
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

    def _observed_codes(self, observed) -> np.ndarray:
        if observed is None or (isinstance(observed, (tuple, list)) and not len(observed)):
            observed = ()
        else:
            observed = _as_seq_tuple(observed)
        if len(observed) != len(self.obs_shape):
            raise UsageError(
                f"{len(observed)} observed sequences against "
                f"{len(self.obs_shape)} observed pmf axes")
        code = np.zeros(self.params.n, dtype=np.int64)
        for s, size in zip(observed, self.obs_shape):
            if len(s) != self.params.n:
                raise UsageError("observed sequence length differs from params.n")
            # negative symbols wrap to huge unsigned values
            if s.view(np.uint64).max() >= size:
                raise UsageError("observed symbol outside the pmf alphabet")
            code = code * size + s
        return code

    def _block(self, cell, m) -> _ClassBlock:
        key = (cell, m)
        block = self._blocks.get(key)
        if block is None:
            block = _ClassBlock(m, self.lo[cell], self.hi[cell])
            self._blocks[key] = block
        return block

    def _classes(self, observed):
        """[(cell, positions, block), ...] by ascending cell code, positions
        ascending, or None when an absent cell's windows forbid a zero count
        (no candidates).
        """
        codes = self._observed_codes(observed)
        sizes = np.bincount(codes, minlength=self.obs_cells).tolist()
        if any(sizes[cell] == 0 for cell in self._must_occur):
            return None
        order = np.argsort(codes, kind="stable")
        out = []
        start = 0
        for cell, m in enumerate(sizes):
            if m:
                out.append((cell, order[start:start + m], self._block(cell, m)))
                start += m
        return out

    # -- enumeration ------------------------------------------------------

    def iter_candidates(self, observed):
        """Yield each typical unknown sequence as an int64 array. Candidate
        order is the cross product of per-class arrangement orders, first
        class slowest. Raises SearchOverflowError beyond the cap before
        yielding anything.
        """
        classes = self._classes(observed)
        if classes is None:
            return
        total = 1
        for _, _, block in classes:
            total *= block.total
        if total > self.cap:
            raise SearchOverflowError(
                f"{total} candidates exceed the search cap {self.cap}")
        if total == 0:
            return
        mats = [block.materialize(len(pos), self.q) for _, pos, block in classes]
        positions = [pos for _, pos, _ in classes]
        seq = np.empty(self.params.n, dtype=np.int64)
        for choice in itertools.product(*(range(len(m)) for m in mats)):
            for pos, mat, j in zip(positions, mats, choice):
                seq[pos] = mat[j]
            yield seq.copy()

    def candidate_indices(self, observed) -> np.ndarray:
        """Base-q integer codes of all candidates in candidate order, most
        significant position first. Requires q**n to fit comfortably in int64.
        """
        if self.q ** self.params.n >= 2 ** 62:
            raise CapacityError(
                f"{self.q}**{self.params.n} sequence codes overflow the index space")
        places = (self.q ** np.arange(self.params.n - 1, -1, -1)).astype(np.uint64)
        contrib = places[:, None] * np.arange(self.q, dtype=np.uint64)[None, :]
        prepared, _ = self._prepared(observed, contrib)
        if prepared is None:
            return np.zeros(0, dtype=np.int64)
        return _group_sums([vals for _, _, vals in prepared]).astype(np.int64)

    # -- vectorized scans -------------------------------------------------

    def _prepared(self, observed, contrib):
        """Per-class contribution vectors for a fold over candidate space.
        The search cap is checked before any arrangement table is built.
        """
        classes = self._classes(observed)
        if classes is None:
            return None, 0
        total = 1
        for _, _, block in classes:
            total *= block.total
        if total > self.cap:
            raise SearchOverflowError(
                f"{total} candidates exceed the search cap {self.cap}")
        if total == 0:
            return None, 0
        prepared = []
        for _, pos, block in classes:
            mat = block.materialize(len(pos), self.q)
            vals = np.add.reduce(contrib[pos[None, :], mat], axis=1, dtype=np.uint64)
            prepared.append((pos, mat, vals))
        return prepared, total

    def scan_bin_filter(self, observed, codebook, target, want="unique"):
        """Candidates whose bin under codebook (a BinningCodebook) is target.

        want="unique" returns (n_matches capped at 2, first match or None);
        want="all" returns the full match list. Candidate order is identical
        to iter_candidates. The classes split into two groups whose partial
        sums pair up into candidates; large KeyedHash spaces are decoded by a
        residue join of the two groups, everything else by checking every
        pair.
        """
        prepared, total = self._prepared(observed, codebook.contribution_table())
        if prepared is None:
            return (0, None) if want == "unique" else []
        vals = [v for _, _, v in prepared]
        limit = 2 if want == "unique" else None
        if (codebook.mode == MODE_HASH and total >= JOIN_MIN_CANDIDATES
                and codebook.num_bins >= JOIN_MIN_BINS):
            hits = _residue_join(vals, codebook, target, limit)
        else:
            hits = _full_product(vals, codebook.finalize_bins, np.uint64(target), limit)
        if want == "unique":
            first = self._reconstruct(hits[0], prepared) if hits else None
            return (min(len(hits), 2), first)
        return [self._reconstruct(j, prepared) for j in hits]

    def _reconstruct(self, j, prepared):
        seq = np.empty(self.params.n, dtype=np.int64)
        for pos, mat, _ in reversed(prepared):
            j, i = divmod(j, len(mat))
            seq[pos] = mat[i]
        return seq


def conditional_candidates(observed, joint_pmf, params: TypicalityParams,
                           cap: int = DEFAULT_SEARCH_CAP):
    """Sequences of the last pmf axis jointly typical with the observed
    sequences (earlier axes, in order). Returns a list; deterministic order.
    Raises SearchOverflowError past the cap.
    """
    engine = CandidateEngine(joint_pmf, params, cap=cap)
    return list(engine.iter_candidates(observed))


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
    out = []
    for atom_seq in atoms:
        parts = []
        rest = atom_seq
        for size in reversed(pmf.shape):
            parts.append(rest % size)
            rest = rest // size
        out.append(tuple(reversed(parts)))
    return out
