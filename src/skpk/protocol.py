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

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .binning import MODE_HASH, MODE_TABLE, child_seed, make_codebook, stream_tag
from .errors import SearchOverflowError, UsageError
from .sources import (JointDistribution, SourceTriple, _integers, info_profile, sample,
                      sequence_code)
from .typicality import (CandidateEngine, DEFAULT_SEARCH_CAP, TypicalityParams)

STATUS_OK = "OK"
STATUS_NO_CANDIDATE = "NoCandidate"
STATUS_AMBIGUOUS = "Ambiguous"
STATUS_OVERFLOW = "SearchOverflow"

SCHEMES = ("PointE", "PointT", "PointP", "PointQ", "TimeShare")

# PointQ needs Y's sequence to carry information about Z beyond what X has;
# when it does not, the Y bin is pure overhead and the run is redirected
REDIRECT_TOL = 1e-10

_TRIAL_TAG = stream_tag("trial")


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
    epsilon: float
    delta: float
    orientation: str = "X"
    clamped: tuple = ()


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
    if not (0.0 < epsilon < 1.0):
        raise UsageError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
    if not 0.0 <= delta < math.inf:
        raise UsageError(f"delta must be a finite number >= 0, got {delta}")
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
                          epsilon=epsilon, delta=delta, orientation=orientation,
                          clamped=tuple(clamped))


@dataclass(eq=False)
class SchemeConfig:
    """Everything a reproducible batch of protocol runs depends on."""

    scheme: str
    dist: JointDistribution
    n: int
    epsilon: float
    delta: float
    master_seed: int
    codebook_mode: str = MODE_HASH
    rates: RateAssignment = None
    ts_schemes: tuple = None      # (scheme_a, scheme_b) for TimeShare
    ts_lambda: float = 0.5        # fraction of symbols given to scheme_a

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise UsageError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        _integers("n and master_seed", (self.n, self.master_seed))
        if self.n < 1:
            raise UsageError(f"n must be >= 1, got {self.n}")
        if self.codebook_mode not in (MODE_HASH, MODE_TABLE):
            raise UsageError(f"unknown codebook mode {self.codebook_mode!r}")
        if self.scheme == "TimeShare":
            if not self.ts_schemes or len(self.ts_schemes) != 2:
                raise UsageError("TimeShare needs ts_schemes=(scheme_a, scheme_b)")
            for s in self.ts_schemes:
                if s not in SCHEMES or s == "TimeShare":
                    raise UsageError(f"TimeShare part {s!r} must be a one-shot scheme")
            if not (0.0 <= self.ts_lambda <= 1.0):
                raise UsageError(f"ts_lambda must lie in [0, 1], got {self.ts_lambda}")
        TypicalityParams(self.epsilon, self.n)
        if not 0.0 <= self.delta < math.inf:
            raise UsageError(f"delta must be a finite number >= 0, got {self.delta}")
        if self.master_seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.master_seed}")

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
    ks_claims empty with ks_size 1. The owner of a key is the terminal that
    computes it from its own sequence, so its claim is never None.
    """

    ks_claims: dict
    kp_claims: dict
    statuses: dict
    ks_size: int
    kp_size: int
    ks_owner: str = "Z"
    kp_owner: str = "X"


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


def _unique_decode(engine, observed, cb, target):
    try:
        count, seq = engine.scan_bin_filter(observed, cb, target)
    except SearchOverflowError:
        return STATUS_OVERFLOW, None
    if count == 0:
        return STATUS_NO_CANDIDATE, None
    if count >= 2:
        return STATUS_AMBIGUOUS, None
    return STATUS_OK, seq


def _pair_decode(eng1, obs1, cb1, target1, eng2, own, cb2, target2, own_first):
    """Unique (helper, z) pair: helper candidates typical with own sequence
    and inside bin target1 come first, then every survivor is extended, in
    one batched scan, by the z candidates typical with the pair and inside
    bin target2. Unique means one (helper, z) pair overall. Survivors are
    read in candidate order, and the first overflow or second match decides,
    as if each survivor were scanned in turn.

    own_first says whether stage 2's engine expects (own, helper) or
    (helper, own) as its observed pair.
    """
    try:
        helpers = eng1.scan_bin_filter(obs1, cb1, target1, want="all")
    except SearchOverflowError:
        return STATUS_OVERFLOW, None, None
    counts, zseq = eng2.scan_bin_filter_rows(helpers, own, own_first, cb2, target2)
    total = 0
    for cnt in counts:
        if cnt is None:
            return STATUS_OVERFLOW, None, None
        total += cnt
        if total >= 2:
            return STATUS_AMBIGUOUS, None, None
    if total == 0:
        return STATUS_NO_CANDIDATE, None, None
    return STATUS_OK, helpers[counts.index(1)], zseq


class RunContext:
    """Shared per-config state: codebooks, candidate engines, derived rates,
    and each key's owner and size (for time sharing, taken from the parts).

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
        rates = config.rates
        requested = config.scheme
        redirected = False
        if requested == "PointQ" and profile.h("Y", "X") <= profile.h("Y", "XZ") + REDIRECT_TOL:
            requested = "PointP"
            redirected = True
        if rates is None:
            rates = derive_rates(requested, profile, config.epsilon, config.delta)
        self.scheme = requested
        self.redirected = redirected
        self.rates = rates
        self.swapped = (requested == "PointP" and rates.orientation == "Y")
        desc = SCHEME_TABLE[requested]
        self.desc = desc = desc.renamed() if self.swapped else desc
        bin_rate = {"Z": rates.r_z, "X": rates.r_x, "Y": rates.r_y}
        sub_rate = {"Z": rates.r_s, desc.kp_owner: rates.r_p}
        self.codebooks = {
            m.sender: make_codebook(config.codebook_mode, config.n,
                                    config.dist.alphabet(m.sender), bin_rate[m.sender],
                                    sub_rate.get(m.sender, 0.0), config.master_seed,
                                    purpose=m.role)
            for m in desc.messages if m.role}
        self.engines = {
            key: CandidateEngine(config.dist.marginal(key.upper()), config.params,
                                 cap=DEFAULT_SEARCH_CAP)
            for step in desc.decodes for key in step.engine_keys()}
        self.ks_owner = "Z" if "Z" in self.codebooks else None
        self.kp_owner = desc.kp_owner
        self.ks_size = self.codebooks["Z"].num_sub_bins if self.ks_owner else 1
        self.kp_size = self.codebooks[self.kp_owner].num_sub_bins

    def _init_time_share(self):
        cfg = self.config
        n_a = round(cfg.ts_lambda * cfg.n)
        n_b = cfg.n - n_a
        self.scheme = "TimeShare"
        self.redirected = False
        self.rates = None
        self.split = (n_a, n_b)
        self.parts = []
        for part_name, part_n, tag in ((cfg.ts_schemes[0], n_a, "ts-A"),
                                       (cfg.ts_schemes[1], n_b, "ts-B")):
            if part_n == 0:
                self.parts.append(None)
                continue
            self.parts.append(RunContext(replace(
                cfg, scheme=part_name, n=part_n, rates=None, ts_schemes=None,
                master_seed=child_seed(cfg.master_seed, stream_tag(tag)))))
        live = [p for p in self.parts if p is not None]
        self.ks_owner = live[0].ks_owner or live[-1].ks_owner
        self.kp_owner = live[0].kp_owner
        self.ks_size = math.prod(p.ks_size for p in live)
        self.kp_size = math.prod(p.kp_size for p in live)

    # -- execution --------------------------------------------------------

    def run(self, trial_index: int) -> ProtocolRun:
        ss = np.random.SeedSequence(
            [self.config.master_seed, _TRIAL_TAG, int(trial_index)])
        triple = sample(self.config.dist, self.config.n, ss)
        return self.run_on_triple(triple)

    def run_on_triple(self, triple: SourceTriple) -> ProtocolRun:
        if self.scheme == "TimeShare":
            return self._run_time_share(triple)
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
                    eng[0], (seqs[t],), cb[0], target[0], eng[1], seqs[t], cb[1],
                    target[1], own_first=step.observed[0] == own)
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
            kp_claims=claims(self.kp_owner), statuses=statuses, ks_size=self.ks_size,
            kp_size=self.kp_size, ks_owner=self.ks_owner, kp_owner=self.kp_owner)
        transcript = Transcript(tuple(TranscriptMessage(m.sender, m.label, values[m.sender])
                                      for m in desc.messages))
        return ProtocolRun(self.scheme, self.redirected, triple.n, triple, transcript,
                           outcome, recovered, dict(cbs))

    # -- time sharing ------------------------------------------------------

    def _run_time_share(self, triple: SourceTriple) -> ProtocolRun:
        n_a, n_b = self.split
        runs = []
        for ctx, (start, stop) in zip(self.parts, ((0, n_a), (n_a, n_a + n_b))):
            runs.append(None if ctx is None else ctx.run_on_triple(triple.slice(start, stop)))
        live = [r for r in runs if r is not None]
        if len(live) == 1:
            return replace(live[0], scheme="TimeShare", redirected=False, n=triple.n,
                           triple=triple)
        run_a, run_b = runs

        def combine_claims(claims_a, claims_b, size_b):
            # a terminal that claims no part of one key counts as claiming 0
            out = {}
            for t in {**claims_a, **claims_b}:
                a, b = claims_a.get(t, 0), claims_b.get(t, 0)
                out[t] = None if a is None or b is None else int(a) * size_b + int(b)
            return out

        oa, ob = run_a.outcome, run_b.outcome
        outcome = KeyOutcome(
            ks_claims=combine_claims(oa.ks_claims, ob.ks_claims, ob.ks_size),
            kp_claims=combine_claims(oa.kp_claims, ob.kp_claims, ob.kp_size),
            statuses={t: s if s != STATUS_OK else ob.statuses[t]
                      for t, s in oa.statuses.items()},
            ks_size=self.ks_size, kp_size=self.kp_size,
            ks_owner=self.ks_owner, kp_owner=self.kp_owner)
        messages = tuple(
            TranscriptMessage(m.sender, f"{part}.{m.label}", m.value)
            for part, run in (("A", run_a), ("B", run_b))
            for m in run.transcript.messages)
        recovered = {}
        for key in {**run_a.recovered, **run_b.recovered}:
            ra, rb = run_a.recovered.get(key), run_b.recovered.get(key)
            recovered[key] = (np.concatenate([ra, rb])
                              if ra is not None and rb is not None else None)
        codebooks = {f"A.{k}": v for k, v in run_a.codebooks.items()}
        codebooks.update({f"B.{k}": v for k, v in run_b.codebooks.items()})
        return ProtocolRun("TimeShare", False, triple.n, triple, Transcript(messages),
                           outcome, recovered, codebooks)
