"""Experiment orchestration and report emission.

run_trials drives a campaign, one record per blocklength. Both evaluation
modes average ensemble members (exact.CodebookExact), and a record is the
mean member under its own field names plus the run's context. In Monte Carlo
mode a member is one sampled trial, a law with mass 1 on what happened, and
key uniformity is the plug-in entropy of the keys as their owners compute
them, a time share's key being its parts' keys side by side; its leakage is
null, since sampling cannot estimate it honestly. In Exact mode a member is
one codebook draw's exact laws, and the record also lists every member.
emit_report is the one serializer: reports are plain dictionaries with
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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .binning import MODE_TABLE
from .errors import UsageError
from .exact import (EXACT_PRODUCT_CAP, CodebookExact, ExactEvaluator, _combine_parts,
                    _mean_stats)
from .protocol import STATUSES, RunContext, SchemeConfig, SchemeFields
from .region import label_vertices, rate_region
from .sources import JointDistribution, _entropy_masses, _integer

MODE_MONTE_CARLO = "MonteCarlo"
MODE_EXACT = "Exact"


@dataclass(kw_only=True)
class ExperimentConfig(SchemeFields):
    """A campaign: one scheme configuration swept over blocklengths.

    trials is the Monte Carlo trial count, or the codebook-ensemble size in
    Exact mode. Exact mode additionally requires explicit-table codebooks and
    a small enough alphabet-power product; the evaluator enforces the cap.
    """

    n_values: tuple
    trials: int
    evaluation_mode: str = MODE_MONTE_CARLO
    exact_cap: int = EXACT_PRODUCT_CAP

    def __post_init__(self):
        if self.evaluation_mode not in (MODE_MONTE_CARLO, MODE_EXACT):
            raise UsageError(f"unknown evaluation mode {self.evaluation_mode!r}")
        if not isinstance(self.n_values, (tuple, list)) or not self.n_values:
            raise UsageError(f"n_values must be a non-empty tuple or list of integers, "
                             f"got {self.n_values!r}")
        self.n_values = tuple(_integer("n", n, 1) for n in self.n_values)
        self.trials = _integer("trials", self.trials, 1)
        self.exact_cap = _integer("exact_cap", self.exact_cap, 1)
        self._check()
        if self.evaluation_mode == MODE_EXACT and self.codebook_mode != MODE_TABLE:
            raise UsageError("Exact mode requires ExplicitTable codebooks")

    def scheme_config(self, n: int) -> SchemeConfig:
        return SchemeConfig(n=n, **{f.name: getattr(self, f.name)
                                    for f in fields(SchemeFields)})


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
    """Every set field of the campaign, the source as its alphabet sizes and
    flat pmf; exact_cap is a resource limit, not a setting, and stays out.
    """
    echo = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "dist":
            echo["alphabet"] = list(value.alphabet_sizes)
            echo["pmf"] = [float(v) for v in value.pmf.ravel()]
        elif value is not None and f.name != "exact_cap":
            echo[f.name] = list(value) if isinstance(value, (tuple, list)) else value
    return echo


def _rates_echo(ctx: RunContext) -> dict:
    if ctx.scheme == "TimeShare":
        parts = {name: None if part is None else _rates_echo(part)
                 for name, part in zip("AB", ctx.parts)}
        return {"parts": parts, "split": list(ctx.split)}
    return {**asdict(ctx.rates), "scheme": ctx.scheme, "redirected": ctx.redirected}


# -- records -----------------------------------------------------------------


def _trial_stats(ctx: RunContext, run):
    """One sampled trial as an ensemble member whose law has mass 1 on what
    happened, and the two keys as their owners compute them (None: no such
    key). A time-shared trial (run: its parts' runs) combines its parts'
    members as the exact path does, and its key is part A's key times part
    B's key size plus part B's key; a part without a secret key adds nothing.
    """
    if ctx.scheme == "TimeShare":
        live = [(part, *_trial_stats(part, r)) for part, r in zip(ctx.parts, run) if part]
        member = _combine_parts([m for _, m, *_ in live], [p.config.n for p, *_ in live])
        ks = kp = None
        for part, _, part_ks, part_kp in live:
            if part_ks is not None:
                ks = part_ks if ks is None else ks * part.ks_size + part_ks
            kp = part_kp if kp is None else kp * part.kp_size + part_kp
        return member, ks, kp
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
        status_mass={t: {name: float(name == status) for name in STATUSES}
                     for t, status in out.statuses.items()},
        recovery_error={key: float(got is None or not np.array_equal(got, truth[key[0]]))
                        for key, got in run.recovered.items()})
    return member, out.ks_claims.get(ctx.ks_owner), out.kp_claims[ctx.kp_owner]


def _mc_batch(config: SchemeConfig, start: int, stop: int) -> list:
    ctx = RunContext(config)
    return [_trial_stats(ctx, ctx.run(i)) for i in range(start, stop)]


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


def _empty_windows(ctx: RunContext) -> list:
    """Decoding engines whose count window is empty for some cell at the
    context's (n, epsilon): no sequence is typical for them, so every decode
    that scans them fails. A time-shared context names its parts' engines
    "A.key" and "B.key".
    """
    if ctx.scheme == "TimeShare":
        return [f"{label}.{key}" for label, part in zip("AB", ctx.parts) if part
                for key in _empty_windows(part)]
    return [key for key, eng in sorted(ctx.engines.items()) if np.any(eng.lo > eng.hi)]


def _warn_empty_windows(n: int, ctx: RunContext):
    empty = _empty_windows(ctx)
    if empty:
        print(f"warning: n={n}: the count windows of decoding engine(s) "
              f"{', '.join(empty)} are empty at epsilon={ctx.config.epsilon}; "
              "every decode through them fails", file=sys.stderr)


def _record(n: int, ctx: RunContext, mean: CodebookExact, **fields) -> dict:
    """A record: the mean member under its own field names, then the run's
    context; each mode adds its own context fields.
    """
    return {**_stats_dict(mean), "n": n, "scheme": ctx.scheme, "redirected": ctx.redirected,
            "rate_ks": math.log2(ctx.ks_size) / n, "rate_kp": math.log2(ctx.kp_size) / n,
            "rates": _rates_echo(ctx), **fields}


def _run_mc_record(config: ExperimentConfig, n: int) -> dict:
    scfg = config.scheme_config(n)
    ctx = RunContext(scfg)
    _warn_empty_windows(n, ctx)
    trials = config.trials
    workers = min(_worker_count(), trials)
    if workers <= 1:
        per_trial = [_trial_stats(ctx, ctx.run(i)) for i in range(trials)]
    else:
        # imported only to fan out: loading multiprocessing takes milliseconds
        from concurrent.futures import ProcessPoolExecutor
        bounds = [(trials * w // workers, trials * (w + 1) // workers)
                  for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mc_batch, scfg, a, b) for a, b in bounds]
            per_trial = [s for fut in futures for s in fut.result()]
    members, ks_keys, kp_keys = zip(*per_trial)

    def plug_in(keys):
        if keys[0] is None:   # the scheme has no such key
            return None
        return _entropy_masses(c / trials for c in Counter(keys).values()) / n

    mean = replace(_mean_stats(members), h_ks=plug_in(ks_keys), h_kp=plug_in(kp_keys))
    return _record(n, ctx, mean, trials=trials)


def _stats_dict(member: CodebookExact) -> dict:
    """A member's fields by name; status_mass is reported as decode_failures."""
    stats = asdict(member)
    stats["decode_failures"] = stats.pop("status_mass")
    return stats


def _run_exact_record(config: ExperimentConfig, n: int) -> dict:
    evaluator = ExactEvaluator(config.scheme_config(n), exact_cap=config.exact_cap)
    _warn_empty_windows(n, evaluator.ctx)
    result = evaluator.evaluate(config.trials)
    return _record(n, evaluator.ctx, result.mean, num_codebooks=result.num_codebooks,
                   per_codebook=[_stats_dict(s) for s in result.per_codebook])


# -- campaigns ---------------------------------------------------------------


def run_trials(config: ExperimentConfig) -> SimulationReport:
    """Execute the campaign and aggregate per-blocklength statistics."""
    if not isinstance(config, ExperimentConfig):
        raise UsageError(f"config must be an ExperimentConfig, got {type(config).__name__}")
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
