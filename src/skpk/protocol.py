"""Random-binning key agreement protocols.

Each scheme is described once, as data in SCHEME_TABLE: the bin indices the
terminals announce over the public channel (the transcript), the decode
steps by which terminals recover sequences as the unique typical candidate
inside an announced bin, and the sub-bins the keys are read from.
RunContext plays a description over one sampled triple; the exact evaluator
reads the same description over every triple at once. Decoding failures are
statuses on the outcome, never exceptions: NoCandidate and Ambiguous are
ordinary protocol events, and SearchOverflow marks a decode whose candidate
space exceeded the search cap.

Four one-shot schemes cover the corner points of the rate region, and a
time-sharing wrapper splits the blocklength between any two of them:

PointE  Z's sequence is revealed verbatim; only a private key is made.
PointT  Z bins once for both X and Y; X then bins for Y. Carries the full
        private-key ceiling next to a secret key.
PointP  Z bins toward the better-correlated of X and Y, which then bins
        toward the other; the middle terminal's sub-bin is the private key.
PointQ  every terminal bins; X and Y each recover the other two sequences
        by staged decoding. Trades private-key rate for the top secret-key
        rate.
"""

import functools
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .binning import (MODE_HASH, MODE_TABLE, child_seed, make_codebook, num_bins_for_rate,
                      stream_tag)
from .errors import SearchOverflowError, UsageError
from .sources import (JointDistribution, SourceTriple, _integers, _real, info_profile, sample,
                      sequence_code)
from .typicality import (CandidateEngine, DEFAULT_SEARCH_CAP, TypicalityParams)

STATUS_OK = "OK"
STATUS_NO_CANDIDATE = "NoCandidate"
STATUS_AMBIGUOUS = "Ambiguous"
STATUS_OVERFLOW = "SearchOverflow"
# every status a decode can end with, in report order
STATUSES = (STATUS_OK, STATUS_NO_CANDIDATE, STATUS_AMBIGUOUS, STATUS_OVERFLOW)

SCHEMES = ("PointE", "PointT", "PointP", "PointQ", "TimeShare")

# PointQ needs Y's sequence to carry information about Z beyond what X has;
# when it does not, the Y bin is pure overhead and the run is redirected
REDIRECT_TOL = 1e-10

_TRIAL_TAG = stream_tag("trial")

# seed-independent state by context signature, then by kind (RunContext.held)
_HELD = {}


@dataclass(frozen=True)
class RateAssignment:
    """Binning and key rates in bits per symbol.

    r_z, r_x, r_y are bin rates of the per-terminal codebooks (0 when the
    scheme gives that terminal no codebook). r_s and r_p are the sub-bin
    rates carrying the secret and private key. orientation records which of
    X, Y acts as the middle terminal in PointP ("X" everywhere else), and
    clamped lists the fields that were cut off at 0.
    """

    r_z: float
    r_x: float
    r_y: float
    r_s: float
    r_p: float
    orientation: str = "X"
    clamped: tuple = ()


def _checked_rates(rates) -> RateAssignment:
    """An explicit rates override, refused unless it is a RateAssignment
    whose five rates are finite real numbers >= 0 and whose orientation is
    "X" or "Y".
    """
    if not isinstance(rates, RateAssignment):
        raise UsageError(f"rates must be a RateAssignment, got {type(rates).__name__}")
    for name in ("r_z", "r_x", "r_y", "r_s", "r_p"):
        _real(f"rates.{name}", getattr(rates, name))
    if rates.orientation not in ("X", "Y"):
        raise UsageError(f'rates.orientation must be "X" or "Y", got {rates.orientation!r}')
    return rates


def _clamp(name, value, clamped):
    if value < 0:
        clamped.append(name)
        return 0.0
    return value


def derive_rates(scheme, profile, epsilon, delta) -> RateAssignment:
    """Rates each scheme needs at tolerance (epsilon, delta).

    epsilon widens bin rates so typical decoding finds the true sequence;
    delta shaves key rates below the corresponding information quantity so
    binning arguments have slack. Key rates never go below 0.
    """
    _real("epsilon", epsilon, "(0, 1)")
    _real("delta", delta)
    h, i = profile.h, profile.i
    clamped = []
    if scheme == "PointE":
        r_z = 0.0
        r_x = h("X", "YZ") + epsilon
        r_y = 0.0
        r_s = 0.0
        r_p = _clamp("r_p", i("X", "Y", "Z") - 2 * delta - epsilon, clamped)
        orientation = "X"
    elif scheme == "PointT":
        r_z = max(h("Z", "X"), h("Z", "Y")) + epsilon
        r_x = h("X", "YZ") + epsilon
        r_y = 0.0
        r_s = _clamp("r_s", min(i("X", "Z"), i("Y", "Z")) - 2 * delta - 2 * epsilon,
                     clamped)
        r_p = _clamp("r_p", i("X", "Y", "Z") - 2 * delta - epsilon, clamped)
        orientation = "X"
    elif scheme == "PointP":
        orientation = "X" if i("X", "Z") >= i("Y", "Z") else "Y"
        a, b = ("X", "Y") if orientation == "X" else ("Y", "X")
        r_z = h("Z", a) + epsilon
        r_first = _clamp("r_x" if a == "X" else "r_y", h(a + "Z", b) - h("Z", a), clamped)
        r_x, r_y = (r_first, 0.0) if a == "X" else (0.0, r_first)
        r_s = _clamp("r_s", i(a, "Z") - 2 * delta - 2 * epsilon, clamped)
        r_p = _clamp("r_p", i(b, a + "Z") - i(a, "Z") - 2 * delta - epsilon, clamped)
    elif scheme == "PointQ":
        r_z = h("Z", "XY") + epsilon + 2 * delta
        r_x = h("X", "Y") + epsilon
        r_y = _clamp("r_y", h("Y", "X") - 2 * delta, clamped)
        r_s = _clamp("r_s", i("Z", "XY") - 2 * epsilon - 4 * delta, clamped)
        r_p = _clamp("r_p", i("X", "Y") - i("Z", "XY") - 2 * epsilon - 2 * delta,
                     clamped)
        orientation = "X"
    else:
        raise UsageError(f"no direct rate assignment for scheme {scheme!r}")
    return RateAssignment(r_z=r_z, r_x=r_x, r_y=r_y, r_s=r_s, r_p=r_p,
                          orientation=orientation, clamped=tuple(clamped))


@dataclass(kw_only=True, eq=False)
class SchemeFields:
    """The scheme setting a campaign and each of its blocklengths share, with
    the one check of it. A TimeShare built without ts_lambda gives its first
    part half of the symbols; a one-shot scheme refuses both ts_ fields.
    """

    scheme: str
    dist: JointDistribution
    epsilon: float
    delta: float
    master_seed: int
    codebook_mode: str = MODE_HASH
    ts_schemes: tuple = None      # (scheme_a, scheme_b) for TimeShare
    ts_lambda: float = None       # fraction of symbols given to scheme_a

    def _check(self, n_values):
        """Refuses a bad setting at any of the (integer) blocklengths."""
        if self.scheme not in SCHEMES:
            raise UsageError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not isinstance(self.dist, JointDistribution):
            raise UsageError(f"dist must be a JointDistribution, got {type(self.dist).__name__}")
        if self.codebook_mode not in (MODE_HASH, MODE_TABLE):
            raise UsageError(f"unknown codebook mode {self.codebook_mode!r}")
        if self.scheme == "TimeShare":
            if not self.ts_schemes or len(self.ts_schemes) != 2:
                raise UsageError("TimeShare needs ts_schemes=(scheme_a, scheme_b)")
            for s in self.ts_schemes:
                if s not in SCHEMES or s == "TimeShare":
                    raise UsageError(f"TimeShare part {s!r} must be a one-shot scheme")
            if self.ts_lambda is None:
                self.ts_lambda = 0.5
            _real("ts_lambda", self.ts_lambda, "[0, 1]")
        else:
            for name in ("ts_schemes", "ts_lambda"):
                if getattr(self, name) is not None:
                    raise UsageError(f"{name} is for TimeShare only, not {self.scheme}")
        for n in n_values:
            TypicalityParams(self.epsilon, n)
        _real("delta", self.delta)
        _integers("master_seed", (self.master_seed,))
        if self.master_seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.master_seed}")


@dataclass(kw_only=True, eq=False)
class SchemeConfig(SchemeFields):
    """Everything a reproducible batch of protocol runs depends on."""

    n: int
    rates: RateAssignment = None

    def __post_init__(self):
        _integers("n", (self.n,))
        self._check((self.n,))

    @property
    def params(self) -> TypicalityParams:
        return TypicalityParams(self.epsilon, self.n)


@dataclass(frozen=True)
class TranscriptMessage:
    sender: str
    label: str
    value: int


@dataclass(frozen=True)
class Transcript:
    messages: tuple


@dataclass
class KeyOutcome:
    """Per-terminal key claims. A claim is None when that terminal's decode
    chain for the key failed; a scheme that assigns no secret key leaves
    ks_claims empty. A key's owner (RunContext.ks_owner, kp_owner) computes
    it from its own sequence, so its claim is never None.
    """

    ks_claims: dict
    kp_claims: dict
    statuses: dict


@dataclass
class ProtocolRun:
    scheme: str
    redirected: bool
    n: int
    triple: SourceTriple
    transcript: Transcript
    outcome: KeyOutcome
    recovered: dict              # e.g. "z_at_X" -> recovered array or None
    codebooks: dict              # terminal -> BinningCodebook


TERMINALS = ("X", "Y", "Z")

_SWAP_XY = str.maketrans("XYxy", "YXyx")


@dataclass(frozen=True)
class Message:
    """One public announcement. role is the codebook the sender bins with,
    named by its purpose string, which seeds the codebook's tables and
    hashes; with no role the sender reveals its sequence verbatim, as its
    sequence code (sources.sequence_code), and every other terminal holds it.
    """

    sender: str
    label: str
    role: str = None


@dataclass(frozen=True)
class Decode:
    """A terminal recovers the sequences of its decoded letters.

    Lowercase letters name sequences; an observed letter is the terminal's
    own sequence or its earlier recovered copy. One decoded letter is unique
    decoding: the single candidate typical with the observed sequences inside
    the announced bin. Two, (helper, z), are pair decoding: helper candidates
    typical with the own sequence inside the helper's bin, each extended by
    the z candidates typical with the observed pair (own sequence and helper
    candidate, in the order listed) inside z's bin; Decode("Y", "xy", "xz")
    scans engines "yx", then "xyz". An engine's key is its observed letters
    followed by the decoded one, in the engine's axis order.
    """

    terminal: str
    observed: str
    decoded: str

    def engine_keys(self) -> tuple:
        if len(self.decoded) == 1:
            return (self.observed + self.decoded,)
        helper, z = self.decoded
        return (self.terminal.lower() + helper, self.observed + z)


@dataclass(frozen=True)
class Scheme:
    """One one-shot scheme: announcements in order, then decode steps in
    order. A terminal's status is that of its first failed step; steps after
    it do not run. K_S is Z's sub-bin (none without a Z codebook), claimed
    by every terminal that decodes z; K_P is kp_owner's sub-bin, claimed by
    every terminal that decodes kp_owner's sequence.
    """

    messages: tuple
    decodes: tuple
    kp_owner: str = "X"

    def renamed(self) -> "Scheme":
        """The same scheme with X and Y trading places. Codebook roles keep
        their names, so the middle terminal still bins as "X".
        """
        return Scheme(
            tuple(replace(m, sender=m.sender.translate(_SWAP_XY)) for m in self.messages),
            tuple(Decode(*(f.translate(_SWAP_XY) for f in astuple(d))) for d in self.decodes),
            self.kp_owner.translate(_SWAP_XY))


# each scheme in orientation X; PointP in orientation Y runs renamed()
SCHEME_TABLE = {
    "PointE": Scheme((Message("Z", "z-index"), Message("X", "g", "X")),
                     (Decode("Y", "yz", "x"),)),
    "PointT": Scheme((Message("Z", "f", "Z"), Message("X", "g", "X")),
                     (Decode("X", "x", "z"), Decode("Y", "y", "z"),
                      Decode("Y", "yz", "x"))),
    "PointP": Scheme((Message("Z", "f", "Z"), Message("X", "g", "X")),
                     (Decode("X", "x", "z"), Decode("Y", "xy", "xz"))),
    "PointQ": Scheme((Message("Z", "f", "Z"), Message("X", "g", "X"),
                      Message("Y", "l", "Y")),
                     (Decode("X", "xy", "yz"), Decode("Y", "xy", "xz"))),
}


def _status(count):
    """The status of a decode that found count matches, capped at 2."""
    return (STATUS_NO_CANDIDATE, STATUS_OK, STATUS_AMBIGUOUS)[count]


def _unique_decode(engine, observed, cb, target):
    try:
        found = engine.scan_bin_filter(observed, cb, target, limit=2)
    except SearchOverflowError:
        return STATUS_OVERFLOW, None
    # a copy, so no recovered sequence views a scan's array
    return _status(len(found)), found[0].copy() if len(found) == 1 else None


def _pair_decode(eng1, obs1, cb1, target1, eng2, obs2, cb2, target2):
    """Unique (helper, z) pair (CandidateEngine.scan_pair): helper candidates
    typical with own sequence and inside bin target1, each extended by the z
    candidates typical with the pair and inside bin target2. obs2 is stage
    2's observed tuple with None where the helper goes.
    """
    try:
        count, pair = eng1.scan_pair(obs1, cb1, target1, eng2, obs2[0] is not None, cb2, target2)
    except SearchOverflowError:
        return STATUS_OVERFLOW, None, None
    return _status(count), *(pair or (None, None))


class RunContext:
    """Shared per-config state: codebooks, candidate engines (shared by every
    context of the signature, see held), derived rates, key sizes (for time
    sharing, the parts' products) and one-shot key owners.

    Build once, then call run(i) per trial; trial i is fully determined by
    (config, i) regardless of how trials are batched across workers. The
    codebooks and engines follow from the scheme's description (desc).
    """

    def __init__(self, config: SchemeConfig):
        self.config = config
        if config.scheme == "TimeShare":
            self._init_time_share()
            return
        profile = info_profile(config.dist)
        self.redirected = (config.scheme == "PointQ" and
                           profile.h("Y", "X") <= profile.h("Y", "XZ") + REDIRECT_TOL)
        self.scheme = scheme = "PointP" if self.redirected else config.scheme
        self.rates = rates = (derive_rates(scheme, profile, config.epsilon, config.delta)
                              if config.rates is None else _checked_rates(config.rates))
        if rates.orientation == "Y" and scheme != "PointP":
            raise UsageError(f'rates.orientation "Y" is for PointP only, not {scheme}')
        self.swapped = rates.orientation == "Y"
        desc = SCHEME_TABLE[scheme]
        self.desc = desc = desc.renamed() if self.swapped else desc
        self.ks_owner = "Z" if any(m.sender == "Z" and m.role for m in desc.messages) else None
        self.kp_owner = desc.kp_owner
        # the key owners' codebooks' sub-bin counts, known before any draw
        self.ks_size = num_bins_for_rate(config.n, rates.r_s) if self.ks_owner else 1
        self.kp_size = num_bins_for_rate(config.n, rates.r_p)
        # every input of the state no seed changes: the source, n, epsilon,
        # the description after redirect and renaming, and the search cap
        dist = config.dist
        self.signature = (dist.alphabet_sizes, dist.pmf.tobytes(), config.n, config.epsilon,
                          desc, DEFAULT_SEARCH_CAP)
        self.group = (self.signature,)

    @functools.cached_property
    def codebooks(self) -> dict:
        """The native codebook set, in the config's mode from its master
        seed, drawn on first read.
        """
        return self.draw_codebooks(self.config.codebook_mode, self.config.master_seed)

    def draw_codebooks(self, mode, seed) -> dict:
        """The scheme's codebook set in mode, drawn from seed: a codebook per
        binned message, keyed by sender, at the sender's bin rate and its
        key's sub-bin rate (K_S for Z, K_P for kp_owner, else 0).
        """
        config, rates, desc = self.config, self.rates, self.desc
        bin_rate = {"Z": rates.r_z, "X": rates.r_x, "Y": rates.r_y}
        sub_rate = {"Z": rates.r_s, desc.kp_owner: rates.r_p}
        return {m.sender: make_codebook(mode, config.n, config.dist.alphabet(m.sender),
                                        bin_rate[m.sender], sub_rate.get(m.sender, 0.0),
                                        seed, purpose=m.role)
                for m in desc.messages if m.role}

    @functools.cached_property
    def engines(self) -> dict:
        """Candidate engines by engine key, built on first use and held per
        signature, so their arrangement tables outlive the context (held).
        """
        # the search cap the signature read, whenever the engines are built
        config, cap = self.config, self.signature[-1]
        keys = dict.fromkeys(key for step in self.desc.decodes for key in step.engine_keys())
        return self.held("engines", lambda: {
            key: CandidateEngine(config.dist.marginal(key.upper()), config.params, cap=cap)
            for key in keys})

    def held(self, kind, build, key=None):
        """What build() returns for this context's signature, held once per
        process under kind for key, an input of that state outside the
        signature. The holder keeps one context's state: one signature's, or
        a time share's two parts'. It lets go of every other signature's
        state, and before it builds, of the kind's state for another key,
        which is then freed once no caller holds it.
        """
        for other in [s for s in _HELD if s not in self.group]:
            del _HELD[other]
        held = _HELD.setdefault(self.signature, {})
        if kind not in held or held[kind][0] != key:
            held.pop(kind, None)
            held[kind] = key, build()
        return held[kind][1]

    def _init_time_share(self):
        cfg = self.config
        if cfg.rates is not None:
            raise UsageError("TimeShare takes no rates: its parts derive their own")
        n_a = round(cfg.ts_lambda * cfg.n)
        n_b = cfg.n - n_a
        self.scheme = "TimeShare"
        self.redirected = False
        self.rates = None
        self.split = (n_a, n_b)
        self.parts = [None if part_n == 0 else RunContext(replace(
            cfg, scheme=name, n=part_n, rates=None, ts_schemes=None, ts_lambda=None,
            master_seed=child_seed(cfg.master_seed, stream_tag(tag))))
            for name, part_n, tag in zip(cfg.ts_schemes, self.split, ("ts-A", "ts-B"))]
        live = [p for p in self.parts if p is not None]
        for p in live:
            p.group = tuple(q.signature for q in live)
        self.ks_size = math.prod(p.ks_size for p in live)
        self.kp_size = math.prod(p.kp_size for p in live)

    # -- execution --------------------------------------------------------

    def run(self, trial_index: int):
        """Trial trial_index, an integer >= 0, on its own sampled triple."""
        (trial_index,) = _integers("trial_index", (trial_index,))
        if trial_index < 0:
            raise UsageError(f"trial_index must be >= 0, got {trial_index}")
        ss = np.random.SeedSequence([self.config.master_seed, _TRIAL_TAG, trial_index])
        triple = sample(self.config.dist, self.config.n, ss)
        return self.run_on_triple(triple)

    def run_on_triple(self, triple: SourceTriple):
        """The ProtocolRun on the triple; for time sharing, the parts' runs on
        their slices of it, None for a part without symbols.
        """
        if self.scheme == "TimeShare":
            n_a = self.split[0]
            return [None if ctx is None else ctx.run_on_triple(triple.slice(start, stop))
                    for ctx, (start, stop) in zip(self.parts, ((0, n_a), (n_a, triple.n)))]
        desc, cbs = self.desc, self.codebooks
        seqs = {"X": triple.x_seq, "Y": triple.y_seq, "Z": triple.z_seq}
        values = {}
        recovered = {}
        for m in desc.messages:
            seq = seqs[m.sender]
            if m.role:
                values[m.sender] = cbs[m.sender].bin_index(seq)
                continue
            values[m.sender] = sequence_code(seq, self.config.dist.alphabet(m.sender))
            recovered.update((f"{m.sender.lower()}_at_{t}", seq.copy())
                             for t in TERMINALS if t != m.sender)
        statuses = dict.fromkeys(TERMINALS, STATUS_OK)
        for step in desc.decodes:
            t, own = step.terminal, step.terminal.lower()
            if statuses[t] != STATUS_OK:
                # a terminal stops at its first failed step
                recovered.update(dict.fromkeys(
                    (f"{v}_at_{t}" for v in step.decoded), None))
                continue
            eng = [self.engines[key] for key in step.engine_keys()]
            cb = [cbs[v.upper()] for v in step.decoded]
            target = [values[v.upper()] for v in step.decoded]
            if len(step.decoded) == 1:
                observed = tuple(seqs[t] if v == own else recovered[f"{v}_at_{t}"]
                                 for v in step.observed)
                status, *found = _unique_decode(eng[0], observed, cb[0], target[0])
            else:
                status, *found = _pair_decode(
                    eng[0], (seqs[t],), cb[0], target[0], eng[1],
                    tuple(seqs[t] if v == own else None for v in step.observed),
                    cb[1], target[1])
            statuses[t] = status
            recovered.update((f"{v}_at_{t}", seq) for v, seq in zip(step.decoded, found))

        def claims(owner):
            """The owner's sub-bin, and each recovered copy's sub-bin."""
            cb = cbs[owner]
            out = {owner: cb.sub_bin_index(seqs[owner])}
            for key, seq in recovered.items():
                var, _, t = key.partition("_at_")
                if var == owner.lower():
                    out[t] = None if seq is None else int(cb.sub_bin_index(seq))
            return out

        outcome = KeyOutcome(
            ks_claims=claims(self.ks_owner) if self.ks_owner else {},
            kp_claims=claims(self.kp_owner), statuses=statuses)
        transcript = Transcript(tuple(TranscriptMessage(m.sender, m.label, values[m.sender])
                                      for m in desc.messages))
        return ProtocolRun(self.scheme, self.redirected, triple.n, triple, transcript,
                           outcome, recovered, dict(cbs))
