"""Span tracing for the traced benchmark run.

The tracer wraps named callables of the skpk modules from the benchmark's own
process; nothing under src/ changes. Each call of a wrapped callable records
one span (name, start, end, parent span) in memory. Self time is a span's
duration minus the time its child spans cover. The spans are written out when
the run ends, and the per-layer metrics are computed from them.

A refactor that renames one of the callables below must update this list in
a change of its own.
"""

import functools
import gzip
import json
import math
from time import perf_counter_ns

import numpy as np

from skpk import binning, exact, harness, protocol, typicality

# span name -> (owner, attribute) pairs wrapped under that name
LAYERS = {
    "harness.run_trials": [(harness, "run_trials")],
    "protocol.trial": [(protocol.RunContext, "run")],
    "sources.sample": [(protocol, "sample")],
    "binning.build": [(protocol, "make_codebook"), (exact, "make_codebook")],
    "binning.index": [(binning.BinningCodebook, "bin_index"),
                      (binning.BinningCodebook, "sub_bin_index")],
    "typicality.scan": [(typicality.CandidateEngine, "scan_bin_filter")],
    "typicality.arrange": [(typicality, "_arrangement_matrix")],
    "typicality.index": [(typicality.CandidateEngine, "candidate_indices")],
    "protocol.unique_decode": [(protocol, "_unique_decode")],
    "protocol.pair_decode": [(protocol, "_pair_decode")],
    "exact.member": [(exact.ExactEvaluator, "_eval_one")],
    "exact.decode_table": [(exact.ExactEvaluator, "_unique_exact"),
                           (exact.ExactEvaluator, "_unique_exact_pair_obs"),
                           (exact.ExactEvaluator, "_pair_exact")],
    "exact.law": [(exact.ExactEvaluator, "_law_entropy"),
                  (exact.ExactEvaluator, "_mass")],
    "exact.oracle": [(exact, "oracle_secrecy")],
}

ROOT_SPAN = "bench.ops"


class Tracer:
    """Records spans of the wrapped callables until close() restores them."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index or -1)
        self.scans = []          # (engine, observed) per scan_bin_filter call
        self._stack = []
        self._restore = []
        self._engine_pmfs = {}   # engine -> (joint pmf, params) it was built with

    def install(self):
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                self._wrap(owner, attr, name)
        engine_cls = typicality.CandidateEngine
        init = engine_cls.__init__
        pmfs = self._engine_pmfs

        @functools.wraps(init)
        def recording_init(engine, joint_pmf, params, *args, **kwargs):
            init(engine, joint_pmf, params, *args, **kwargs)
            pmfs[engine] = (np.asarray(joint_pmf, dtype=np.float64), params)

        self._restore.append((engine_cls, "__init__", init))
        engine_cls.__init__ = recording_init
        scan = engine_cls.scan_bin_filter
        scans = self.scans

        @functools.wraps(scan)
        def recording_scan(engine, observed, *args, **kwargs):
            scans.append((engine, observed))
            return scan(engine, observed, *args, **kwargs)

        self._restore.append((engine_cls, "scan_bin_filter", scan))
        engine_cls.scan_bin_filter = recording_scan

    def close(self):
        """Put every wrapped callable back, last wrapped first."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a root span of the given name. Wrapped callables
        record spans only inside a root span.
        """
        return self._traced(name, fn, root=True)(*args, **kwargs)

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._traced(name, original))

    def _traced(self, name, fn, root=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    # -- after the run --------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines: id, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    def candidates_searched(self) -> int:
        """Size of every candidate space scan_bin_filter was asked to search,
        counted from count_windows and the observed class sizes.
        """
        windows, memo = {}, {}
        total = 0
        for engine, observed in self.scans:
            if engine not in windows:
                pmf, params = self._engine_pmfs[engine]
                q = pmf.shape[-1]
                lo, hi = typicality.count_windows(pmf.reshape(-1, q), params.n,
                                                  params.epsilon)
                windows[engine] = (pmf.shape[:-1], params.n,
                                   [tuple(row) for row in lo.tolist()],
                                   [tuple(row) for row in hi.tolist()])
            total += _candidate_space(windows[engine], observed, memo)
        return total

    def layer_metrics(self, ops: int):
        """Per-layer metrics per operation, plus the traced totals."""
        count = len(self.spans)
        child_ns = [0] * count
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, total_ns, calls = {}, {}, {}
        pair_children = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            total_ns[name] = total_ns.get(name, 0) + dur
            calls[name] = calls.get(name, 0) + 1
            if (name == "typicality.scan" and parent >= 0
                    and self.spans[parent][0] == "protocol.pair_decode"):
                pair_children += 1
        candidates = self.candidates_searched()
        pair_calls = calls.get("protocol.pair_decode", 0)

        def ms(name, table=self_ns):
            return table.get(name, 0) / 1e6 / ops

        scan_self = self_ns.get("typicality.scan", 0)
        metrics = {
            "sources.sample_ms": (ms("sources.sample"), "ms"),
            "binning.build_ms": (ms("binning.build"), "ms"),
            "binning.index_calls": (calls.get("binning.index", 0) / ops, "count"),
            "binning.index_ms": (ms("binning.index"), "ms"),
            "typicality.scan_calls": (calls.get("typicality.scan", 0) / ops, "count"),
            "typicality.scan_self_ms": (ms("typicality.scan"), "ms"),
            "typicality.candidates": (candidates / ops, "count"),
            "typicality.ns_per_candidate": (
                scan_self / candidates if candidates else 0.0, "ns"),
            "typicality.arrange_calls": (calls.get("typicality.arrange", 0) / ops, "count"),
            "typicality.arrange_ms": (ms("typicality.arrange"), "ms"),
            "typicality.index_ms": (ms("typicality.index"), "ms"),
            "protocol.unique_decode_self_ms": (ms("protocol.unique_decode"), "ms"),
            "protocol.pair_decode_self_ms": (ms("protocol.pair_decode"), "ms"),
            "protocol.pair_survivors": (
                (pair_children - pair_calls) / pair_calls if pair_calls else 0.0, "count"),
            "exact.member_ms": (ms("exact.member", total_ns), "ms"),
            "exact.decode_table_ms": (ms("exact.decode_table"), "ms"),
            "exact.law_ms": (ms("exact.law"), "ms"),
            "exact.oracle_ms": (ms("exact.oracle"), "ms"),
            "harness.self_ms": (ms("harness.run_trials"), "ms"),
        }
        summary = {
            "op_ms": ms(ROOT_SPAN, total_ns),
            "self_ms": {name: ms(name) for name in sorted(self_ns)},
            "spans": count,
        }
        return metrics, summary


def _arrangements(m, lo, hi, memo) -> int:
    """Sequences of length m whose per-symbol counts lie in [lo, hi]."""
    key = (m, lo, hi)
    got = memo.get(key)
    if got is None:
        ways = {0: 1}                 # slots filled so far -> sequences
        for a, b in zip(lo, hi):
            nxt = {}
            for used, w in ways.items():
                for k in range(a, min(b, m - used) + 1):
                    nxt[used + k] = nxt.get(used + k, 0) + w * math.comb(m - used, k)
            ways = nxt
        got = memo[key] = ways.get(m, 0)
    return got


def _candidate_space(windows, observed, memo) -> int:
    """Product over the observed cells of the arrangements of each class."""
    obs_shape, n, lo, hi = windows
    if not isinstance(observed, (tuple, list)):
        observed = (observed,)
    codes = np.zeros(n, dtype=np.int64)
    for seq, size in zip(observed, obs_shape):
        codes = codes * size + np.asarray(seq, dtype=np.int64)
    sizes = np.bincount(codes, minlength=len(lo)).tolist()
    total = 1
    for cell, m in enumerate(sizes):
        total *= _arrangements(m, lo[cell], hi[cell], memo)
        if total == 0:
            break
    return total
