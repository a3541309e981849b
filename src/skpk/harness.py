"""Experiment orchestration and report emission.

run_trials drives a campaign, one record per blocklength. In Monte Carlo
mode it samples protocol runs and aggregates agreement, failure, uniformity,
and recovery statistics; in Exact mode it puts the exact evaluator's laws in
the same report shape and adds the leakage numbers that sampling cannot
estimate honestly. Reports are plain dictionaries with
12-significant-digit floats so that identical configurations always emit
byte-identical files.

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
from dataclasses import dataclass, field

import numpy as np

from .binning import MODE_HASH, MODE_TABLE
from .errors import UsageError
from .exact import EXACT_PRODUCT_CAP, ExactEvaluator, _entropy_masses
from .protocol import STATUS_OK, RunContext, SchemeConfig
from .region import label_vertices, rate_region
from .sources import JointDistribution
from .typicality import DEFAULT_SEARCH_CAP

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
    search_cap: int = DEFAULT_SEARCH_CAP
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
                            ts_schemes=self.ts_schemes, ts_lambda=self.ts_lambda,
                            search_cap=self.search_cap)


@dataclass
class SimulationReport:
    """Config echo plus one record per blocklength."""

    config: dict
    records: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"config": self.config, "records": self.records}

    def to_json(self) -> str:
        return json.dumps(_round_floats(self.as_dict()), indent=2,
                          sort_keys=True) + "\n"

    def to_csv(self) -> str:
        rows = [_flatten(r) for r in _round_floats(self.records)]
        columns = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="",
                                lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g")) + 0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _flatten(record, prefix=""):
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
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


# -- Monte Carlo -------------------------------------------------------------


def _agreement(claims: dict) -> bool:
    if not claims:
        return None
    values = list(claims.values())
    if any(v is None for v in values):
        return False
    return len(set(values)) == 1


def _truth_of(key: str, triple):
    var = key.partition("_at_")[0]
    return {"x": triple.x_seq, "y": triple.y_seq, "z": triple.z_seq}[var]


def _summarize_run(run) -> dict:
    out = run.outcome
    rec_err = {}
    for key, got in run.recovered.items():
        truth = _truth_of(key, run.triple)
        rec_err[key] = bool(got is None or len(got) != len(truth)
                            or not np.array_equal(got, truth))
    owner_ks = out.ks_claims.get(out.ks_owner) if out.ks_owner else None
    owner_kp = out.kp_claims.get(out.kp_owner) if out.kp_owner else None
    return {"ks_ok": _agreement(out.ks_claims), "kp_ok": _agreement(out.kp_claims),
            "owner_ks": owner_ks, "owner_kp": owner_kp,
            "statuses": dict(out.statuses), "rec_err": rec_err,
            "ks_size": out.ks_size, "kp_size": out.kp_size}


def _mc_batch(config: SchemeConfig, start: int, stop: int) -> list:
    ctx = RunContext(config)
    return [_summarize_run(ctx.run(i)) for i in range(start, stop)]


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


def _run_mc_record(config: ExperimentConfig, n: int) -> dict:
    scfg = config.scheme_config(n)
    ctx = RunContext(scfg)
    trials = config.trials
    workers = min(_worker_count(), trials)
    if workers <= 1:
        summaries = [_summarize_run(ctx.run(i)) for i in range(trials)]
    else:
        bounds = [(trials * w // workers, trials * (w + 1) // workers)
                  for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mc_batch, scfg, a, b) for a, b in bounds]
            summaries = [s for fut in futures for s in fut.result()]

    ks_defined = [s["ks_ok"] for s in summaries if s["ks_ok"] is not None]
    agree_ks = (sum(ks_defined) / trials) if ks_defined else None
    agree_kp = sum(1 for s in summaries if s["kp_ok"]) / trials

    def plug_in(values):
        present = [v for v in values if v is not None]
        if not present:
            return None
        counts = Counter(present)
        return _entropy_masses(c / trials for c in counts.values()) / n

    statuses = {}
    for terminal in summaries[0]["statuses"]:
        tally = Counter(s["statuses"][terminal] for s in summaries)
        statuses[terminal] = {name: tally.get(name, 0) / trials
                              for name in _STATUS_FIELDS}
    recovery = {key: sum(1 for s in summaries if s["rec_err"][key]) / trials
                for key in summaries[0]["rec_err"]}
    ks_size = summaries[0]["ks_size"]
    kp_size = summaries[0]["kp_size"]
    return {"n": n, "trials": trials,
            "scheme": ctx.scheme, "redirected": ctx.redirected,
            "agree_ks": agree_ks, "agree_kp": agree_kp,
            "uniformity_hks": plug_in([s["owner_ks"] for s in summaries]),
            "uniformity_hkp": plug_in([s["owner_kp"] for s in summaries]),
            "rate_ks": math.log2(ks_size) / n, "rate_kp": math.log2(kp_size) / n,
            "decode_failures": statuses, "recovery_error": recovery,
            "rates": _rates_echo(ctx)}


# -- Exact -------------------------------------------------------------------


def _stats_dict(s) -> dict:
    return {"leak_ks": s.leak_ks, "leak_kp": s.leak_kp,
            "h_ks": s.h_ks, "h_kp": s.h_kp,
            "agree_ks": s.agree_ks, "agree_kp": s.agree_kp,
            "decode_failures": s.status_mass,
            "recovery_error": s.recovery_error}


def _run_exact_record(config: ExperimentConfig, n: int) -> dict:
    scfg = config.scheme_config(n)
    evaluator = ExactEvaluator(scfg, exact_cap=config.exact_cap)
    result = evaluator.evaluate(config.trials)
    mean = result.mean
    return {"n": n, "num_codebooks": result.num_codebooks,
            "scheme": result.scheme, "redirected": result.redirected,
            "leak_ks": mean.leak_ks, "leak_kp": mean.leak_kp,
            "agree_ks": mean.agree_ks, "agree_kp": mean.agree_kp,
            "uniformity_hks": mean.h_ks, "uniformity_hkp": mean.h_kp,
            "rate_ks": math.log2(result.ks_size) / n,
            "rate_kp": math.log2(result.kp_size) / n,
            "decode_failures": mean.status_mass,
            "recovery_error": mean.recovery_error,
            "per_codebook": [_stats_dict(s) for s in result.per_codebook],
            "rates": _rates_echo(evaluator.ctx)}


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
    if isinstance(report, SimulationReport):
        text = report.to_csv() if fmt == "csv" else report.to_json()
    else:
        rounded = _round_floats(report)
        if fmt == "csv":
            if "vertices" in rounded:
                text = region_csv(rounded)
            else:
                row = _flatten(rounded)
                buf = io.StringIO()
                writer = csv.DictWriter(buf, fieldnames=sorted(row),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerow(row)
                text = buf.getvalue()
        else:
            text = json.dumps(rounded, indent=2, sort_keys=True) + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {path}: {exc}")
    return text
