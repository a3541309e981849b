"""Experiment orchestration and report emission.

run_trials drives a campaign, one record per blocklength. Both evaluation
modes average ensemble members (exact.CodebookExact) and build the record
from the mean in one place. In Monte Carlo mode a member is one sampled
trial, a law with mass 1 on what happened, and key uniformity is the plug-in
entropy of the owners' claims; in Exact mode a member is one codebook draw's
exact laws, and the record adds the leakage numbers that sampling cannot
estimate honestly. emit_report is the one serializer: reports are plain
dictionaries with 12-significant-digit floats so that identical
configurations always emit byte-identical files.

Worker fan-out is controlled by the SKPK_WORKERS environment variable; the
aggregation only ever walks trials in index order, so the worker count never
changes a single reported byte.
"""

import csv
import io
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .binning import MODE_HASH, MODE_TABLE
from .errors import UsageError
from .exact import EXACT_PRODUCT_CAP, CodebookExact, ExactEvaluator, _mean_stats
from .protocol import RunContext, SchemeConfig
from .region import label_vertices, rate_region
from .sources import JointDistribution, _entropy_masses

MODE_MONTE_CARLO = "MonteCarlo"
MODE_EXACT = "Exact"

_STATUS_FIELDS = ("OK", "NoCandidate", "Ambiguous", "SearchOverflow")


@dataclass
class ExperimentConfig:
    """A campaign: one scheme configuration swept over blocklengths.

    trials is the Monte Carlo trial count, or the codebook-ensemble size in
    Exact mode. Exact mode additionally requires explicit-table codebooks and
    a small enough alphabet-power product; the evaluator enforces the cap.
    """

    scheme: str
    dist: JointDistribution
    n_values: tuple
    trials: int
    epsilon: float
    delta: float
    master_seed: int
    codebook_mode: str = MODE_HASH
    evaluation_mode: str = MODE_MONTE_CARLO
    ts_schemes: tuple = None
    ts_lambda: float = 0.5
    exact_cap: int = EXACT_PRODUCT_CAP

    def __post_init__(self):
        if self.evaluation_mode not in (MODE_MONTE_CARLO, MODE_EXACT):
            raise UsageError(f"unknown evaluation mode {self.evaluation_mode!r}")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if not self.n_values:
            raise UsageError("at least one blocklength is required")
        if self.evaluation_mode == MODE_EXACT and self.codebook_mode != MODE_TABLE:
            raise UsageError("Exact mode requires ExplicitTable codebooks")

    def scheme_config(self, n: int) -> SchemeConfig:
        return SchemeConfig(scheme=self.scheme, dist=self.dist, n=n,
                            epsilon=self.epsilon, delta=self.delta,
                            master_seed=self.master_seed,
                            codebook_mode=self.codebook_mode,
                            ts_schemes=self.ts_schemes, ts_lambda=self.ts_lambda)


@dataclass
class SimulationReport:
    """Config echo plus one record per blocklength."""

    config: dict
    records: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"config": self.config, "records": self.records}

    def to_json(self) -> str:
        return emit_report(self, fmt="json")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g")) + 0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _flatten(record, prefix=""):
    """One CSV cell per leaf. A list of records becomes indexed columns
    (name.0.key, name.1.key, ...); any other list is one ";"-joined cell.
    """
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, (list, tuple)) and value and all(isinstance(v, dict) for v in value):
            value = {str(k): v for k, v in enumerate(value)}
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            out[name] = ";".join(str(v) for v in value)
        elif value is None:
            out[name] = ""
        else:
            out[name] = value
    return out


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {
        "scheme": config.scheme,
        "alphabet": list(config.dist.alphabet_sizes),
        "pmf": [float(v) for v in config.dist.pmf.ravel()],
        "n_values": list(config.n_values),
        "trials": config.trials,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "master_seed": config.master_seed,
        "codebook_mode": config.codebook_mode,
        "evaluation_mode": config.evaluation_mode,
    }
    if config.scheme == "TimeShare":
        echo["ts_schemes"] = list(config.ts_schemes)
        echo["ts_lambda"] = config.ts_lambda
    return echo


def _rates_echo(ctx: RunContext) -> dict:
    if ctx.scheme == "TimeShare":
        parts = {}
        for name, part in zip(("A", "B"), ctx.parts):
            parts[name] = None if part is None else _rates_echo(part)
        return {"parts": parts, "split": list(ctx.split)}
    r = ctx.rates
    return {"r_z": r.r_z, "r_x": r.r_x, "r_y": r.r_y, "r_s": r.r_s,
            "r_p": r.r_p, "orientation": r.orientation,
            "clamped": list(r.clamped), "scheme": ctx.scheme,
            "redirected": ctx.redirected}


# -- records -----------------------------------------------------------------


def _trial_stats(run):
    """One sampled trial as an ensemble member whose law has mass 1 on what
    happened, and the two key owners' claims.
    """
    out = run.outcome

    def agreement(claims):
        if not claims:
            return None
        values = list(claims.values())
        return float(None not in values and len(set(values)) == 1)

    truth = {"x": run.triple.x_seq, "y": run.triple.y_seq, "z": run.triple.z_seq}
    member = CodebookExact(
        leak_ks=None, leak_kp=None, h_ks=None, h_kp=None,
        agree_ks=agreement(out.ks_claims), agree_kp=agreement(out.kp_claims),
        status_mass={t: {name: float(name == status) for name in _STATUS_FIELDS}
                     for t, status in out.statuses.items()},
        recovery_error={key: float(got is None or not np.array_equal(got, truth[key[0]]))
                        for key, got in run.recovered.items()})
    # a scheme without a secret key has no claims, so its owner claim is None
    return member, out.ks_claims.get(out.ks_owner), out.kp_claims.get(out.kp_owner)


def _mc_batch(config: SchemeConfig, start: int, stop: int) -> list:
    ctx = RunContext(config)
    return [_trial_stats(ctx.run(i)) for i in range(start, stop)]


def _worker_count() -> int:
    raw = os.environ.get("SKPK_WORKERS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"SKPK_WORKERS must be an integer, got {raw!r}")
    cpus = os.cpu_count() or 1
    if count > cpus:
        print(f"warning: SKPK_WORKERS={count} exceeds the {cpus} CPUs; using {cpus}",
              file=sys.stderr)
        return cpus
    return max(1, count)


def _record(n: int, ctx: RunContext, mean: CodebookExact, **fields) -> dict:
    """The keys both evaluation modes report, from the mean over members."""
    return {"n": n, "scheme": ctx.scheme, "redirected": ctx.redirected,
            "agree_ks": mean.agree_ks, "agree_kp": mean.agree_kp,
            "uniformity_hks": mean.h_ks, "uniformity_hkp": mean.h_kp,
            "rate_ks": math.log2(ctx.ks_size) / n, "rate_kp": math.log2(ctx.kp_size) / n,
            "decode_failures": mean.status_mass, "recovery_error": mean.recovery_error,
            "rates": _rates_echo(ctx), **fields}


def _run_mc_record(config: ExperimentConfig, n: int) -> dict:
    scfg = config.scheme_config(n)
    ctx = RunContext(scfg)
    trials = config.trials
    workers = min(_worker_count(), trials)
    if workers <= 1:
        per_trial = [_trial_stats(ctx.run(i)) for i in range(trials)]
    else:
        bounds = [(trials * w // workers, trials * (w + 1) // workers)
                  for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mc_batch, scfg, a, b) for a, b in bounds]
            per_trial = [s for fut in futures for s in fut.result()]
    members, owner_ks, owner_kp = zip(*per_trial)

    def plug_in(values):
        present = [v for v in values if v is not None]
        if not present:
            return None
        counts = Counter(present)
        return _entropy_masses(c / trials for c in counts.values()) / n

    mean = replace(_mean_stats(members), h_ks=plug_in(owner_ks), h_kp=plug_in(owner_kp))
    return _record(n, ctx, mean, trials=trials)


def _stats_dict(s) -> dict:
    return {"leak_ks": s.leak_ks, "leak_kp": s.leak_kp,
            "h_ks": s.h_ks, "h_kp": s.h_kp,
            "agree_ks": s.agree_ks, "agree_kp": s.agree_kp,
            "decode_failures": s.status_mass,
            "recovery_error": s.recovery_error}


def _run_exact_record(config: ExperimentConfig, n: int) -> dict:
    evaluator = ExactEvaluator(config.scheme_config(n), exact_cap=config.exact_cap)
    result = evaluator.evaluate(config.trials)
    mean = result.mean
    return _record(n, evaluator.ctx, mean, num_codebooks=result.num_codebooks,
                   leak_ks=mean.leak_ks, leak_kp=mean.leak_kp,
                   per_codebook=[_stats_dict(s) for s in result.per_codebook])


# -- campaigns ---------------------------------------------------------------


def run_trials(config: ExperimentConfig) -> SimulationReport:
    """Execute the campaign and aggregate per-blocklength statistics."""
    exact = config.evaluation_mode == MODE_EXACT
    if exact and config.exact_cap > EXACT_PRODUCT_CAP:
        print(f"warning: exact-mode cap raised to {config.exact_cap}; "
              "expect long runtimes", file=sys.stderr)
    run_record = _run_exact_record if exact else _run_mc_record
    return SimulationReport(config=_config_echo(config),
                            records=[run_record(config, n) for n in config.n_values])


# -- region and file output ---------------------------------------------------


def region_summary(dist: JointDistribution) -> dict:
    region = rate_region(dist)
    labels = [name for name, _, _ in label_vertices(region)]
    c = region.constants
    return {"case": region.case_label,
            "constants": {"r_a": c.r_a, "r_b": c.r_b, "r_c": c.r_c, "pk": c.pk},
            "named_points": {name: [float(p[0]), float(p[1])]
                             for name, p in region.named_points.items()},
            "vertices": [[float(v[0]), float(v[1])] for v in region.vertices],
            "vertex_labels": list(labels)}


def region_csv(summary: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "label", "r_s", "r_p"])
    writer.writerow(["case", summary["case"], "", ""])
    for name in ("r_a", "r_b", "r_c", "pk"):
        writer.writerow(["constant", name, summary["constants"][name], ""])
    for name, (rs, rp) in summary["named_points"].items():
        writer.writerow(["point", name, rs, rp])
    for label, (rs, rp) in zip(summary["vertex_labels"], summary["vertices"]):
        writer.writerow(["vertex", label, rs, rp])
    return buf.getvalue()


def emit_report(report, path=None, fmt=None) -> str:
    """Serialize a report; write it when a path is given. Returns the text.

    fmt defaults from the path extension, .csv for tables and JSON otherwise.
    """
    if fmt is None:
        fmt = "csv" if (path and str(path).endswith(".csv")) else "json"
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown report format {fmt!r}")
    campaign = isinstance(report, SimulationReport)
    doc = _round_floats(report.as_dict() if campaign else report)
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif "vertices" in doc:
        text = region_csv(doc)
    else:
        # one row per record of a campaign, or one for a single document
        rows = [_flatten(r) for r in (doc["records"] if campaign else [doc])]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted({k for row in rows for k in row}),
                                restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {path}: {exc}")
    return text
