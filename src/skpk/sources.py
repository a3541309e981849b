"""Discrete memoryless source model over three terminals.

A :class:`JointDistribution` holds the joint pmf P(x, y, z) on finite
alphabets and refuses non-finite, negative or unnormalized entries. Every
information measure comes from one :class:`InfoProfile`: a table of subset
entropies in bits (log base 2), each summed over its marginal's atoms on
first use, read through two formulas, h(A, given=C) and i(A, B, given=C).
:func:`sample` draws i.i.d. sequence triples from a counter-based generator
so every draw is reproducible from its seed alone.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# pmf entries below this are structural zeros: outside the support for
# typicality purposes and contributing nothing to any entropy
STRUCTURAL_ZERO = 1e-15

VARS = ("X", "Y", "Z")
_AXIS = {"X": 0, "Y": 1, "Z": 2}

ALPHABET_CAP = 8


def as_variable_set(variables) -> frozenset:
    """Normalize a variable selector ("XZ", ["X","Z"], frozenset) to a frozenset.

    Raises UsageError on unknown names or duplicates.
    """
    items = tuple(variables)
    for v in items:
        if v not in VARS:
            raise UsageError(f"unknown variable {v!r}, expected members of {VARS}")
    if len(set(items)) != len(items):
        raise UsageError(f"duplicate variables in {items!r}")
    return frozenset(items)


def _integer_sizes(alphabet_sizes) -> tuple:
    """Alphabet sizes as a tuple of ints. A size that is not an integer (a
    float, a string or a bool) is refused, not rounded.
    """
    sizes = tuple(alphabet_sizes)
    if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in sizes):
        raise UsageError(f"alphabet sizes must be integers, got {sizes!r}")
    return tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class JointDistribution:
    """Joint pmf over X x Y x Z with validated invariants.

    pmf is a dense (|X|, |Y|, |Z|) array, entries nonnegative, summing to 1
    within 1e-12. Alphabet sizes are capped (8 per axis).
    """

    alphabet_sizes: tuple
    pmf: np.ndarray

    def __post_init__(self):
        sizes = _integer_sizes(self.alphabet_sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        if len(sizes) != len(VARS):
            raise UsageError(f"need one alphabet size per variable in {VARS}, got {sizes}")
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != sizes:
            raise UsageError(f"pmf shape {pmf.shape} does not match alphabet sizes {sizes}")
        for s in sizes:
            if s < 1:
                raise UsageError("alphabet sizes must be >= 1")
        if not np.isfinite(pmf).all():
            raise UsageError("pmf has a non-finite entry")
        if pmf.min() < 0:
            raise UsageError(f"pmf has a negative entry: {pmf.min()}")
        total = float(pmf.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise UsageError(f"pmf sums to {total!r}, expected 1 within 1e-12")
        pmf = pmf.copy()
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @classmethod
    def create(cls, alphabet_sizes, pmf):
        sizes = _integer_sizes(alphabet_sizes)
        for s in sizes:
            if s > ALPHABET_CAP:
                raise UsageError(f"alphabet size {s} exceeds cap {ALPHABET_CAP}")
        return cls(sizes, np.asarray(pmf, dtype=np.float64).reshape(sizes))

    def marginal(self, variables) -> np.ndarray:
        """Marginal pmf on the given variables, axes ordered as listed.

        Accepts an ordered selector; the returned array's axes follow the
        selector order, which is what decoders rely on.
        """
        items = tuple(variables)
        as_variable_set(items)
        drop = tuple(_AXIS[v] for v in VARS if v not in items)
        m = self.pmf.sum(axis=drop) if drop else self.pmf
        keep = [v for v in VARS if v in items]
        # reorder axes from canonical (X,Y,Z) order to selector order
        perm = [keep.index(v) for v in items]
        return np.ascontiguousarray(np.transpose(m, axes=perm))

    def alphabet(self, variable) -> int:
        return self.alphabet_sizes[_AXIS[variable]]

    def support_atoms(self):
        """Indices (x, y, z) of atoms with pmf above the structural-zero floor."""
        idx = np.argwhere(self.pmf > STRUCTURAL_ZERO)
        return [tuple(int(v) for v in row) for row in idx]


@dataclass(frozen=True)
class SourceTriple:
    """Aligned i.i.d. sequences observed at the three terminals."""

    n: int
    x_seq: np.ndarray
    y_seq: np.ndarray
    z_seq: np.ndarray

    def __post_init__(self):
        if not (len(self.x_seq) == len(self.y_seq) == len(self.z_seq) == self.n):
            raise UsageError("sequence lengths disagree with n")

    def slice(self, start, stop) -> "SourceTriple":
        return SourceTriple(stop - start, self.x_seq[start:stop],
                            self.y_seq[start:stop], self.z_seq[start:stop])


def _entropy_masses(masses) -> float:
    """Entropy in bits of a collection of probability masses; zeros add nothing."""
    return math.fsum(-float(m) * math.log2(float(m)) for m in masses if m > 0)


def _entropy_of(p: np.ndarray) -> float:
    flat = p.ravel()
    return _entropy_masses(flat[flat > STRUCTURAL_ZERO].tolist())


def _clamp_mi(v: float) -> float:
    return 0.0 if v < 0 else v


def _disjoint(*selectors, given=()):
    """Variable sets of the selectors and of given, checked: every name known
    and listed once, every selector nonempty (given may be empty), and no two
    sets overlapping. Raises UsageError otherwise.
    """
    sets = [as_variable_set(s) for s in selectors]
    if not all(sets):
        raise UsageError("an information measure needs nonempty variable sets")
    cond = as_variable_set(given or ())
    if sum(map(len, sets)) + len(cond) != len(cond.union(*sets)):
        raise UsageError(f"variable sets must be pairwise disjoint, got "
                         f"{[sorted(s) for s in sets]} given {sorted(cond)}")
    return sets, cond


class InfoProfile:
    """Conditional entropies and mutual informations of one source, in bits
    per symbol. The entropy of a variable subset is computed from its
    marginal on first use and cached; h and i are the only formulas on top.
    """

    def __init__(self, dist: JointDistribution):
        self.dist = dist
        self._entropies = {frozenset(): 0.0}

    def _h(self, vs: frozenset) -> float:
        if vs not in self._entropies:
            # the marginal on vs; an entropy does not depend on axis order
            drop = tuple(_AXIS[v] for v in VARS if v not in vs)
            self._entropies[vs] = _entropy_of(self.dist.pmf.sum(axis=drop))
        return self._entropies[vs]

    def h(self, a, given=()) -> float:
        """H(A | C) = H(A u C) - H(C)."""
        (a,), c = _disjoint(a, given=given)
        return self._h(a | c) - self._h(c)

    def i(self, a, b, given=()) -> float:
        """I(A; B | C) = H(A u C) + H(B u C) - H(C) - H(A u B u C), clamped at
        0 against rounding.
        """
        (a, b), c = _disjoint(a, b, given=given)
        return _clamp_mi(self._h(a | c) + self._h(b | c) - self._h(c) - self._h(a | b | c))


def entropy(dist: JointDistribution, variables) -> float:
    """H(S) in bits of the marginal on the variable set S."""
    return InfoProfile(dist).h(variables)


def conditional_entropy(dist: JointDistribution, vars_a, vars_b) -> float:
    """H(A | B); vars_b may be empty."""
    return InfoProfile(dist).h(vars_a, vars_b)


def mutual_information(dist: JointDistribution, vars_a, vars_b) -> float:
    """I(A; B), clamped at 0."""
    return InfoProfile(dist).i(vars_a, vars_b)


def conditional_mutual_information(dist: JointDistribution, vars_a, vars_b, vars_c) -> float:
    """I(A; B | C), clamped at 0; vars_c may be empty."""
    return InfoProfile(dist).i(vars_a, vars_b, vars_c)


def info_profile(dist: JointDistribution) -> InfoProfile:
    """The profile of dist, after a chain-rule self-check of its entropies."""
    prof = InfoProfile(dist)
    # violation means a broken summation path
    chain = prof.h("X") + prof.h("Y", "X") + prof.h("Z", "XY")
    if abs(chain - prof.h("XYZ")) > 1e-10:
        raise AssertionError("entropy chain rule violated beyond 1e-10")
    return prof


def sample(dist: JointDistribution, n: int, seed) -> SourceTriple:
    """Draw n i.i.d. triples. Identical (dist, n, seed) gives identical output.

    seed is a 64-bit integer or a numpy SeedSequence (used for substreams).
    The generator is Philox, a counter-based generator, so draws never depend
    on hidden global state.
    """
    if n < 1:
        raise UsageError("sample requires n >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(ss))
    flat = dist.pmf.ravel()
    atoms = rng.choice(len(flat), size=n, p=flat)
    x, y, z = (a.astype(np.int64) for a in np.unravel_index(atoms, dist.alphabet_sizes))
    return SourceTriple(n, x, y, z)


# ---------------------------------------------------------------------------
# Sequence codes: a length-n sequence over an alphabet of size q is indexed
# base q, most significant position first. Codebook tables, the PointE
# announcement, the exact enumeration and lemma1_check all use this one rule.


def sequence_code(seq, q: int) -> int:
    """Base-q code of a sequence with symbols in range(q), as a Python int,
    so exact at any length.
    """
    code = 0
    for v in np.asarray(seq).tolist():
        code = code * q + v
    return code


def sequence_of_code(code: int, q: int, n: int) -> np.ndarray:
    """The length-n int64 sequence whose base-q code is code."""
    seq = np.empty(n, dtype=np.int64)
    rem = int(code)
    for t in range(n - 1, -1, -1):
        rem, seq[t] = divmod(rem, q)
    return seq


def code_digits(codes, q: int, n: int):
    """Yield the base-q digits of an array of length-n sequence codes, one
    array per position, most significant first. Only one position's digits
    are held at a time.
    """
    for t in range(n):
        yield (codes // q ** (n - 1 - t)) % q


@functools.lru_cache(maxsize=64)
def place_values(q: int, n: int) -> np.ndarray:
    """Read-only (n, q) uint64 table P with P[t, s] = s * q**(n-1-t): the sum
    of P[t, seq[t]] over t is sequence_code(seq, q), mod 2**64.
    """
    places = q ** np.arange(n - 1, -1, -1, dtype=np.uint64)
    table = places[:, None] * np.arange(q, dtype=np.uint64)[None, :]
    table.flags.writeable = False
    return table


def load_pmf(path) -> JointDistribution:
    """Read a pmf file: {"alphabet": [|X|,|Y|,|Z|], "pmf": [...]} in row-major
    order with z fastest. Sums within 1e-6 of 1 are rescaled; anything else is
    rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read pmf file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"pmf file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "alphabet" not in doc or "pmf" not in doc:
        raise UsageError(f"pmf file {path} must contain 'alphabet' and 'pmf' fields")
    alphabet, entries = doc["alphabet"], doc["pmf"]
    if (not isinstance(alphabet, list) or len(alphabet) != 3
            or not all(type(a) is int and a >= 1 for a in alphabet)):
        raise UsageError(f"'alphabet' must list three integer sizes >= 1, got {alphabet!r}")
    sizes = tuple(alphabet)
    expected = sizes[0] * sizes[1] * sizes[2]
    if (not isinstance(entries, list) or len(entries) != expected
            or not all(type(v) in (int, float) for v in entries)):
        raise UsageError(f"'pmf' must be a flat list of {expected} numbers")
    flat = np.asarray(entries, dtype=np.float64)
    if not np.isfinite(flat).all():
        raise UsageError("pmf has a non-finite entry")
    if flat.min() < 0:
        raise UsageError(f"pmf entry {flat.min()} is negative")
    total = float(flat.sum())
    if abs(total - 1.0) > 1e-6:
        raise UsageError(f"pmf sums to {total!r}; |sum-1| must be <= 1e-6")
    flat = flat / total
    return JointDistribution.create(sizes, flat.reshape(sizes))


def dump_pmf(dist: JointDistribution, path):
    doc = {"alphabet": list(dist.alphabet_sizes), "pmf": [float(v) for v in dist.pmf.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Canonical example distributions used across tests and docs


def xor_triple() -> JointDistribution:
    """X, Y i.i.d. uniform bits, Z = X xor Y."""
    pmf = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            pmf[x, y, x ^ y] = 0.25
    return JointDistribution.create((2, 2, 2), pmf)


def noisy_copy_triple(flip_y=0.1, flip_z=0.3) -> JointDistribution:
    """X uniform bit; Y = X xor Bern(flip_y); Z = X xor Bern(flip_z).

    Y and Z are conditionally independent given X.
    """
    pmf = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                py = flip_y if y != x else 1 - flip_y
                pz = flip_z if z != x else 1 - flip_z
                pmf[x, y, z] = 0.5 * py * pz
    return JointDistribution.create((2, 2, 2), pmf)


def doubly_symmetric_xz(crossover=0.1) -> JointDistribution:
    """X uniform bit, Z = X xor Bern(crossover), Y a one-letter spectator."""
    pmf = np.zeros((2, 1, 2))
    for x in range(2):
        for z in range(2):
            pmf[x, 0, z] = 0.5 * (crossover if z != x else 1 - crossover)
    return JointDistribution.create((2, 1, 2), pmf)


def identical_bits() -> JointDistribution:
    """X = Y = Z, a single shared uniform bit."""
    pmf = np.zeros((2, 2, 2))
    pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
    return JointDistribution.create((2, 2, 2), pmf)


def independent_bits() -> JointDistribution:
    """Three mutually independent uniform bits."""
    return JointDistribution.create((2, 2, 2), np.full((2, 2, 2), 1 / 8))
