"""Random-binning key agreement protocols.

Each runner plays one protocol over an aligned i.i.d. sample triple. A
terminal announces bin indices of its sequence over the public channel (the
transcript), other terminals decode that sequence as the unique typical
candidate inside the announced bin, and keys are read off sub-bin indices of
recovered sequences. Decoding failures are statuses on the outcome, never
exceptions: NoCandidate and Ambiguous are ordinary protocol events, and
SearchOverflow marks a decode whose candidate space exceeded the search cap.

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

from dataclasses import dataclass

import numpy as np

from .binning import MODE_HASH, MODE_TABLE, make_codebook, stream_tag
from .errors import SearchOverflowError, UsageError
from .sources import JointDistribution, SourceTriple, info_profile, sample
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
    if delta < 0:
        raise UsageError(f"delta must be >= 0, got {delta}")
    H = profile.h
    clamped = []
    if scheme == "PointE":
        r_z = 0.0
        r_x = profile.h_x_given_yz + epsilon
        r_y = 0.0
        r_s = 0.0
        r_p = _clamp("r_p", profile.i_x_y_given_z - 2 * delta - epsilon, clamped)
        orientation = "X"
    elif scheme == "PointT":
        r_z = max(profile.h_z_given_x, profile.h_z_given_y) + epsilon
        r_x = profile.h_x_given_yz + epsilon
        r_y = 0.0
        r_s = _clamp("r_s", min(profile.i_x_z, profile.i_y_z) - 2 * delta - 2 * epsilon,
                     clamped)
        r_p = _clamp("r_p", profile.i_x_y_given_z - 2 * delta - epsilon, clamped)
        orientation = "X"
    elif scheme == "PointP":
        orientation = "X" if profile.i_x_z >= profile.i_y_z else "Y"
        a, b = ("X", "Y") if orientation == "X" else ("Y", "X")
        h_z_a = H(a + "Z") - H(a)
        i_az = H(a) + H("Z") - H(a + "Z")
        i_b_az = H(b) + H(a + "Z") - H("XYZ")
        r_z = h_z_a + epsilon
        r_first = (H("XYZ") - H(b)) - h_z_a
        r_first = _clamp("r_x" if a == "X" else "r_y", r_first, clamped)
        r_x, r_y = (r_first, 0.0) if a == "X" else (0.0, r_first)
        r_s = _clamp("r_s", i_az - 2 * delta - 2 * epsilon, clamped)
        r_p = _clamp("r_p", i_b_az - i_az - 2 * delta - epsilon, clamped)
    elif scheme == "PointQ":
        r_z = profile.h_z_given_xy + epsilon + 2 * delta
        r_x = profile.h_x_given_y + epsilon
        r_y = _clamp("r_y", profile.h_y_given_x - 2 * delta, clamped)
        r_s = _clamp("r_s", profile.i_z_xy - 2 * epsilon - 4 * delta, clamped)
        r_p = _clamp("r_p", profile.i_x_y - profile.i_z_xy - 2 * epsilon - 2 * delta,
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
    search_cap: int = DEFAULT_SEARCH_CAP
    table_cap: int = 2 ** 24
    ts_schemes: tuple = None      # (scheme_a, scheme_b) for TimeShare
    ts_lambda: float = 0.5        # fraction of symbols given to scheme_a

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise UsageError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
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
        if self.delta < 0:
            raise UsageError(f"delta must be >= 0, got {self.delta}")

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
    rates: RateAssignment
    recovered: dict              # e.g. "z_at_X" -> recovered array or None
    codebooks: dict              # terminal -> BinningCodebook


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
    and inside bin target1 come first, then each survivor is extended by the
    z candidates typical with the pair and inside bin target2. Unique means
    one (helper, z) pair overall.

    own_first says whether stage 2's engine expects (own, helper) or
    (helper, own) as its observed pair.
    """
    try:
        survivors = eng1.scan_bin_filter(obs1, cb1, target1, want="all")
    except SearchOverflowError:
        return STATUS_OVERFLOW, None, None
    total = 0
    first = None
    for cand in survivors:
        obs2 = (own, cand) if own_first else (cand, own)
        try:
            cnt, zseq = eng2.scan_bin_filter(obs2, cb2, target2)
        except SearchOverflowError:
            return STATUS_OVERFLOW, None, None
        total += cnt
        if cnt == 1 and first is None:
            first = (cand, zseq)
        if total >= 2:
            return STATUS_AMBIGUOUS, None, None
    if total == 0:
        return STATUS_NO_CANDIDATE, None, None
    return STATUS_OK, first[0], first[1]


class RunContext:
    """Shared per-config state: codebooks, candidate engines, derived rates.

    Build once, then call run(i) per trial; trial i is fully determined by
    (config, i) regardless of how trials are batched across workers.
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
        if requested == "PointQ" and profile.h_y_given_x <= profile.h_y_given_xz + REDIRECT_TOL:
            requested = "PointP"
            redirected = True
        if rates is None:
            rates = derive_rates(requested, profile, config.epsilon, config.delta)
        self.scheme = requested
        self.redirected = redirected
        self.rates = rates
        self.swapped = (requested == "PointP" and rates.orientation == "Y")
        dist = config.dist
        if self.swapped:
            pmf = np.transpose(config.dist.pmf, (1, 0, 2))
            dist = JointDistribution(pmf.shape, pmf)
        self.canonical_dist = dist
        self._build_codebooks()
        self._build_engines()

    # -- canonical-space construction ------------------------------------

    def _mk(self, purpose, bin_rate, sub_rate, alphabet):
        cfg = self.config
        return make_codebook(cfg.codebook_mode, cfg.n, alphabet, bin_rate, sub_rate,
                             cfg.master_seed, purpose=purpose, table_cap=cfg.table_cap)

    def _build_codebooks(self):
        d = self.canonical_dist
        r = self.rates
        az, ax, ay = d.alphabet("Z"), d.alphabet("X"), d.alphabet("Y")
        cbs = {}
        if self.scheme in ("PointT", "PointP", "PointQ"):
            # the canonical first-terminal bin rate sits in r_x after an
            # orientation swap is undone below for reporting only
            rx = r.r_x if not self.swapped else r.r_y
            cbs["Z"] = self._mk("Z", r.r_z, r.r_s, az)
            cbs["X"] = self._mk("X", rx, r.r_p, ax)
        if self.scheme == "PointQ":
            cbs["Y"] = self._mk("Y", r.r_y, 0.0, ay)
        if self.scheme == "PointE":
            cbs["X"] = self._mk("X", r.r_x, r.r_p, ax)
        self.codebooks = cbs

    def _build_engines(self):
        d = self.canonical_dist
        params = self.config.params
        cap = self.config.search_cap
        eng = {}
        if self.scheme in ("PointT", "PointP"):
            eng["xz"] = CandidateEngine(d.marginal("XZ"), params, cap=cap)
        if self.scheme == "PointT":
            eng["yz"] = CandidateEngine(d.marginal("YZ"), params, cap=cap)
            eng["yzx"] = CandidateEngine(d.marginal("YZX"), params, cap=cap)
        if self.scheme == "PointP":
            eng["yx"] = CandidateEngine(d.marginal("YX"), params, cap=cap)
            eng["xyz"] = CandidateEngine(d.marginal("XYZ"), params, cap=cap)
        if self.scheme == "PointQ":
            eng["xy"] = CandidateEngine(d.marginal("XY"), params, cap=cap)
            eng["yx"] = CandidateEngine(d.marginal("YX"), params, cap=cap)
            eng["xyz"] = CandidateEngine(d.marginal("XYZ"), params, cap=cap)
        if self.scheme == "PointE":
            eng["yzx"] = CandidateEngine(d.marginal("YZX"), params, cap=cap)
        self.engines = eng

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
            seed = int(np.random.SeedSequence(
                [cfg.master_seed, stream_tag(tag)]).generate_state(1, np.uint64)[0])
            sub = SchemeConfig(scheme=part_name, dist=cfg.dist, n=part_n,
                               epsilon=cfg.epsilon, delta=cfg.delta,
                               master_seed=seed, codebook_mode=cfg.codebook_mode,
                               search_cap=cfg.search_cap, table_cap=cfg.table_cap)
            self.parts.append(RunContext(sub))

    # -- execution --------------------------------------------------------

    def run(self, trial_index: int) -> ProtocolRun:
        ss = np.random.SeedSequence(
            [self.config.master_seed, _TRIAL_TAG, int(trial_index)])
        triple = sample(self.config.dist, self.config.n, ss)
        return self.run_on_triple(triple)

    def run_on_triple(self, triple: SourceTriple) -> ProtocolRun:
        if self.scheme == "TimeShare":
            return self._run_time_share(triple)
        if self.swapped:
            canonical = SourceTriple(triple.n, triple.y_seq, triple.x_seq, triple.z_seq)
            raw = self._run_canonical(canonical)
            return self._relabeled(raw, triple)
        return self._run_canonical(triple)

    def _run_canonical(self, triple: SourceTriple) -> ProtocolRun:
        runner = {"PointE": self._run_e, "PointT": self._run_t,
                  "PointP": self._run_p, "PointQ": self._run_q}[self.scheme]
        return runner(triple)

    def _run_p(self, triple):
        x, y, z = triple.x_seq, triple.y_seq, triple.z_seq
        cbz, cbx = self.codebooks["Z"], self.codebooks["X"]
        f = cbz.bin_index(z)
        phi = cbz.sub_bin_index(z)
        st_x, z_at_x = _unique_decode(self.engines["xz"], (x,), cbz, f)
        g = cbx.bin_index(x)
        psi = cbx.sub_bin_index(x)
        st_y, x_at_y, z_at_y = _pair_decode(
            self.engines["yx"], (y,), cbx, g,
            self.engines["xyz"], y, cbz, f, own_first=False)
        outcome = KeyOutcome(
            ks_claims={"Z": phi,
                       "X": int(cbz.sub_bin_index(z_at_x)) if st_x == STATUS_OK else None,
                       "Y": int(cbz.sub_bin_index(z_at_y)) if st_y == STATUS_OK else None},
            kp_claims={"X": psi,
                       "Y": int(cbx.sub_bin_index(x_at_y)) if st_y == STATUS_OK else None},
            statuses={"Z": STATUS_OK, "X": st_x, "Y": st_y},
            ks_size=cbz.num_sub_bins, kp_size=cbx.num_sub_bins)
        transcript = Transcript((TranscriptMessage("Z", "f", f),
                                 TranscriptMessage("X", "g", g)))
        recovered = {"z_at_X": z_at_x, "z_at_Y": z_at_y, "x_at_Y": x_at_y}
        return ProtocolRun("PointP", self.redirected, triple.n, triple, transcript,
                           outcome, self.rates, recovered, dict(self.codebooks))

    def _run_q(self, triple):
        x, y, z = triple.x_seq, triple.y_seq, triple.z_seq
        cbz, cbx, cby = self.codebooks["Z"], self.codebooks["X"], self.codebooks["Y"]
        f = cbz.bin_index(z)
        phi = cbz.sub_bin_index(z)
        g = cbx.bin_index(x)
        psi = cbx.sub_bin_index(x)
        ell = cby.bin_index(y)
        st_x, y_at_x, z_at_x = _pair_decode(
            self.engines["xy"], (x,), cby, ell,
            self.engines["xyz"], x, cbz, f, own_first=True)
        st_y, x_at_y, z_at_y = _pair_decode(
            self.engines["yx"], (y,), cbx, g,
            self.engines["xyz"], y, cbz, f, own_first=False)
        outcome = KeyOutcome(
            ks_claims={"Z": phi,
                       "X": int(cbz.sub_bin_index(z_at_x)) if st_x == STATUS_OK else None,
                       "Y": int(cbz.sub_bin_index(z_at_y)) if st_y == STATUS_OK else None},
            kp_claims={"X": psi,
                       "Y": int(cbx.sub_bin_index(x_at_y)) if st_y == STATUS_OK else None},
            statuses={"Z": STATUS_OK, "X": st_x, "Y": st_y},
            ks_size=cbz.num_sub_bins, kp_size=cbx.num_sub_bins)
        transcript = Transcript((TranscriptMessage("Z", "f", f),
                                 TranscriptMessage("X", "g", g),
                                 TranscriptMessage("Y", "l", ell)))
        recovered = {"y_at_X": y_at_x, "z_at_X": z_at_x,
                     "x_at_Y": x_at_y, "z_at_Y": z_at_y}
        return ProtocolRun("PointQ", self.redirected, triple.n, triple, transcript,
                           outcome, self.rates, recovered, dict(self.codebooks))

    def _run_t(self, triple):
        x, y, z = triple.x_seq, triple.y_seq, triple.z_seq
        cbz, cbx = self.codebooks["Z"], self.codebooks["X"]
        f = cbz.bin_index(z)
        phi = cbz.sub_bin_index(z)
        st_x, z_at_x = _unique_decode(self.engines["xz"], (x,), cbz, f)
        st_yz, z_at_y = _unique_decode(self.engines["yz"], (y,), cbz, f)
        g = cbx.bin_index(x)
        psi = cbx.sub_bin_index(x)
        if st_yz == STATUS_OK:
            st_yx, x_at_y = _unique_decode(self.engines["yzx"], (y, z_at_y), cbx, g)
        else:
            st_yx, x_at_y = st_yz, None
        st_y = st_yz if st_yz != STATUS_OK else st_yx
        outcome = KeyOutcome(
            ks_claims={"Z": phi,
                       "X": int(cbz.sub_bin_index(z_at_x)) if st_x == STATUS_OK else None,
                       "Y": int(cbz.sub_bin_index(z_at_y)) if st_yz == STATUS_OK else None},
            kp_claims={"X": psi,
                       "Y": int(cbx.sub_bin_index(x_at_y)) if st_yx == STATUS_OK else None},
            statuses={"Z": STATUS_OK, "X": st_x, "Y": st_y},
            ks_size=cbz.num_sub_bins, kp_size=cbx.num_sub_bins)
        transcript = Transcript((TranscriptMessage("Z", "f", f),
                                 TranscriptMessage("X", "g", g)))
        recovered = {"z_at_X": z_at_x, "z_at_Y": z_at_y, "x_at_Y": x_at_y}
        return ProtocolRun("PointT", self.redirected, triple.n, triple, transcript,
                           outcome, self.rates, recovered, dict(self.codebooks))

    def _run_e(self, triple):
        x, y, z = triple.x_seq, triple.y_seq, triple.z_seq
        cbx = self.codebooks["X"]
        az = self.canonical_dist.alphabet("Z")
        z_index = 0
        for v in z.tolist():
            z_index = z_index * az + v
        g = cbx.bin_index(x)
        psi = cbx.sub_bin_index(x)
        st_y, x_at_y = _unique_decode(self.engines["yzx"], (y, z), cbx, g)
        outcome = KeyOutcome(
            ks_claims={},
            kp_claims={"X": psi,
                       "Y": int(cbx.sub_bin_index(x_at_y)) if st_y == STATUS_OK else None},
            statuses={"Z": STATUS_OK, "X": STATUS_OK, "Y": st_y},
            ks_size=1, kp_size=cbx.num_sub_bins, ks_owner=None, kp_owner="X")
        transcript = Transcript((TranscriptMessage("Z", "z-index", z_index),
                                 TranscriptMessage("X", "g", g)))
        recovered = {"z_at_X": z.copy(), "z_at_Y": z.copy(), "x_at_Y": x_at_y}
        return ProtocolRun("PointE", self.redirected, triple.n, triple, transcript,
                           outcome, self.rates, recovered, dict(self.codebooks))

    # -- orientation relabeling -------------------------------------------

    @staticmethod
    def _swap_terminal(t):
        return {"X": "Y", "Y": "X"}.get(t, t)

    @staticmethod
    def _swap_recovered_key(key):
        var, _, term = key.partition("_at_")
        var = {"x": "y", "y": "x"}.get(var, var)
        term = {"X": "Y", "Y": "X"}.get(term, term)
        return f"{var}_at_{term}"

    def _relabeled(self, raw: ProtocolRun, actual_triple: SourceTriple) -> ProtocolRun:
        sw = self._swap_terminal
        outcome = KeyOutcome(
            ks_claims={sw(k): v for k, v in raw.outcome.ks_claims.items()},
            kp_claims={sw(k): v for k, v in raw.outcome.kp_claims.items()},
            statuses={sw(k): v for k, v in raw.outcome.statuses.items()},
            ks_size=raw.outcome.ks_size, kp_size=raw.outcome.kp_size,
            ks_owner=sw(raw.outcome.ks_owner) if raw.outcome.ks_owner else None,
            kp_owner=sw(raw.outcome.kp_owner))
        transcript = Transcript(tuple(
            TranscriptMessage(sw(m.sender), m.label, m.value)
            for m in raw.transcript.messages))
        recovered = {self._swap_recovered_key(k): v for k, v in raw.recovered.items()}
        codebooks = {sw(k): v for k, v in raw.codebooks.items()}
        return ProtocolRun(raw.scheme, raw.redirected, raw.n, actual_triple,
                           transcript, outcome, raw.rates, recovered, codebooks)

    # -- time sharing ------------------------------------------------------

    def _run_time_share(self, triple: SourceTriple) -> ProtocolRun:
        n_a, n_b = self.split
        runs = []
        for ctx, (start, stop) in zip(self.parts, ((0, n_a), (n_a, n_a + n_b))):
            runs.append(None if ctx is None else ctx.run_on_triple(triple.slice(start, stop)))
        live = [r for r in runs if r is not None]
        if len(live) == 1:
            single = live[0]
            return ProtocolRun("TimeShare", False, triple.n, triple, single.transcript,
                               single.outcome, single.rates, single.recovered,
                               single.codebooks)
        run_a, run_b = runs

        def combine_claims(claims_a, size_a, claims_b, size_b):
            terminals = set(claims_a) | set(claims_b)
            out = {}
            for t in terminals:
                a = claims_a.get(t, 0) if claims_a else 0
                b = claims_b.get(t, 0) if claims_b else 0
                out[t] = None if a is None or b is None else int(a) * size_b + int(b)
            return out

        oa, ob = run_a.outcome, run_b.outcome
        statuses = {}
        for t in ("X", "Y", "Z"):
            sa = oa.statuses.get(t, STATUS_OK)
            statuses[t] = sa if sa != STATUS_OK else ob.statuses.get(t, STATUS_OK)
        outcome = KeyOutcome(
            ks_claims=combine_claims(oa.ks_claims, oa.ks_size, ob.ks_claims, ob.ks_size),
            kp_claims=combine_claims(oa.kp_claims, oa.kp_size, ob.kp_claims, ob.kp_size),
            statuses=statuses,
            ks_size=oa.ks_size * ob.ks_size, kp_size=oa.kp_size * ob.kp_size,
            ks_owner=oa.ks_owner or ob.ks_owner, kp_owner=oa.kp_owner or ob.kp_owner)
        messages = tuple(
            TranscriptMessage(m.sender, f"{part}.{m.label}", m.value)
            for part, run in (("A", run_a), ("B", run_b))
            for m in run.transcript.messages)
        recovered = {}
        for key in set(run_a.recovered) | set(run_b.recovered):
            ra, rb = run_a.recovered.get(key), run_b.recovered.get(key)
            recovered[key] = (np.concatenate([ra, rb])
                              if ra is not None and rb is not None else None)
        codebooks = {f"A.{k}": v for k, v in run_a.codebooks.items()}
        codebooks.update({f"B.{k}": v for k, v in run_b.codebooks.items()})
        return ProtocolRun("TimeShare", False, triple.n, triple, Transcript(messages),
                           outcome, run_a.rates, recovered, codebooks)


def run_trial(config: SchemeConfig, trial_index: int) -> ProtocolRun:
    """One-off convenience wrapper; batch callers should reuse a RunContext."""
    return RunContext(config).run(trial_index)
