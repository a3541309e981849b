"""Random binning codebooks.

A codebook assigns every length-n sequence over a finite alphabet to a bin
index and, independently, to a sub-bin index. Two constructions:

ExplicitTable
    One i.i.d. uniform draw per sequence, materialized as arrays indexed by
    the sequence's integer code (sources.sequence_code). Exact ensemble
    statistics, but memory-bound: alphabet**n is capped.

KeyedHash
    Additive tabulation hashing. A random uint64 key table of shape
    (n, alphabet) is drawn once; a sequence hashes to the sum of its per
    position entries mod 2**64, and the bin is that value mod num_bins.
    Constant memory, any n. Pairwise collision behaviour is close to uniform
    binning but the assignment is not i.i.d. across sequences.

Both constructions expose the same interface, and both derive the bin stream
and the sub-bin stream from disjoint children of one seed, tagged by purpose
so codebooks for different variables never share randomness.
"""

import hashlib

import numpy as np

from .errors import CapacityError, UsageError
from .sources import place_values, sequence_code

MODE_TABLE = "ExplicitTable"
MODE_HASH = "KeyedHash"

DEFAULT_TABLE_CAP = 2 ** 24


def stream_tag(tag: str) -> int:
    """Stable 64-bit integer from a short string, for seed-stream separation."""
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def child_seed(*words) -> int:
    """A 64-bit seed derived from a parent seed and stream tags or indices."""
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def num_bins_for_rate(n: int, rate: float) -> int:
    """Bins for a target rate in bits per symbol: max(1, round(2**(n*rate)))."""
    if rate < 0:
        raise UsageError(f"binning rate must be >= 0, got {rate}")
    if n * rate >= 63:
        raise CapacityError(f"2**({n}*{rate}) bins exceeds the 2**63 bin-count cap")
    return max(1, round(2.0 ** (n * rate)))


class BinningCodebook:
    """Bin and sub-bin assignment for length-n sequences over one alphabet."""

    def __init__(self, mode, n, alphabet_size, bin_rate, sub_rate, seed, purpose=""):
        if mode not in (MODE_TABLE, MODE_HASH):
            raise UsageError(f"unknown codebook mode {mode!r}")
        if n < 1 or alphabet_size < 1:
            raise UsageError("n and alphabet_size must be >= 1")
        self.mode = mode
        self.n = int(n)
        self.alphabet_size = int(alphabet_size)
        self.bin_rate = float(bin_rate)
        self.sub_rate = float(sub_rate)
        self.seed = int(seed)
        self.purpose = str(purpose)
        self.num_bins = num_bins_for_rate(self.n, self.bin_rate)
        self.num_sub_bins = num_bins_for_rate(self.n, self.sub_rate)

        ss_bin = np.random.SeedSequence([self.seed, stream_tag("bin-" + self.purpose)])
        ss_sub = np.random.SeedSequence([self.seed, stream_tag("sub-" + self.purpose)])
        rng_bin = np.random.Generator(np.random.Philox(ss_bin))
        rng_sub = np.random.Generator(np.random.Philox(ss_sub))

        if mode == MODE_TABLE:
            size = self.alphabet_size ** self.n
            if size > DEFAULT_TABLE_CAP:
                raise CapacityError(
                    f"explicit table needs {self.alphabet_size}**{self.n} entries, "
                    f"over the {DEFAULT_TABLE_CAP} table cap")
            self._table_bin = rng_bin.integers(0, self.num_bins, size=size, dtype=np.uint64)
            self._table_sub = rng_sub.integers(0, self.num_sub_bins, size=size, dtype=np.uint64)
            self._places = place_values(self.alphabet_size, self.n)
        else:
            shape = (self.n, self.alphabet_size)
            self._key_bin = rng_bin.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
            self._key_sub = rng_sub.integers(0, 2 ** 64, size=shape, dtype=np.uint64)

    # -- single-sequence interface ---------------------------------------

    def _check(self, seq):
        seq = np.asarray(seq)
        if seq.dtype.kind not in "biu":
            raise UsageError(f"sequence symbols must be integers, got dtype {seq.dtype}")
        if seq.shape != (self.n,):
            raise UsageError(f"sequence length {seq.shape} does not match n={self.n}")
        if len(seq) and (seq.min() < 0 or seq.max() >= self.alphabet_size):
            raise UsageError("sequence symbol outside the alphabet")
        return seq.astype(np.int64)

    def bin_index(self, seq) -> int:
        seq = self._check(seq)
        if self.mode == MODE_TABLE:
            return int(self._table_bin[sequence_code(seq, self.alphabet_size)])
        h = np.add.reduce(self._key_bin[np.arange(self.n), seq], dtype=np.uint64)
        return int(h % np.uint64(self.num_bins))

    def sub_bin_index(self, seq) -> int:
        seq = self._check(seq)
        if self.mode == MODE_TABLE:
            return int(self._table_sub[sequence_code(seq, self.alphabet_size)])
        h = np.add.reduce(self._key_sub[np.arange(self.n), seq], dtype=np.uint64)
        return int(h % np.uint64(self.num_sub_bins))

    # -- vectorized interface used by decoders and exact evaluation ------

    def contribution_table(self) -> np.ndarray:
        """(n, alphabet) uint64 array C such that folding sum(C[t, seq_t])
        through :meth:`finalize_bins` yields the bin index. In hash mode C is
        the key table; in table mode C is the place-value table, whose fold
        is the sequence's integer code.
        """
        return self._key_bin if self.mode == MODE_HASH else self._places

    def finalize_bins(self, acc: np.ndarray) -> np.ndarray:
        if self.mode == MODE_HASH:
            return acc % np.uint64(self.num_bins)
        return self._table_bin[acc]

    def sub_contribution_table(self) -> np.ndarray:
        return self._key_sub if self.mode == MODE_HASH else self._places

    def finalize_sub_bins(self, acc: np.ndarray) -> np.ndarray:
        if self.mode == MODE_HASH:
            return acc % np.uint64(self.num_sub_bins)
        return self._table_sub[acc]

    def bins_of_indices(self, idx: np.ndarray) -> np.ndarray:
        """Bin indices for sequences given by integer code, in any signed or
        unsigned integer type. Table mode only.
        """
        if self.mode != MODE_TABLE:
            raise UsageError("bins_of_indices requires an ExplicitTable codebook")
        return self._table_bin[_codes(idx)]

    def sub_bins_of_indices(self, idx: np.ndarray) -> np.ndarray:
        if self.mode != MODE_TABLE:
            raise UsageError("sub_bins_of_indices requires an ExplicitTable codebook")
        return self._table_sub[_codes(idx)]


def _codes(idx) -> np.ndarray:
    """idx as an array of sequence codes, indexed as it is: an array of
    another kind than integers (floats, a bool mask) is refused, not read.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise UsageError(f"sequence codes must be integers, got dtype {idx.dtype}")
    return idx


def make_codebook(mode, n, alphabet_size, bin_rate, sub_rate, seed,
                  purpose="") -> BinningCodebook:
    """Build a codebook. Same arguments always give the same codebook."""
    return BinningCodebook(mode, n, alphabet_size, bin_rate, sub_rate, seed,
                           purpose=purpose)
