#!/usr/bin/env python3
"""The skpk benchmark.

Measure one workload (the last line printed is the result object):

    python3 bench/run.py --workload mc_bulk_scan --seed 1 --seconds 15 --trace 0

Measure every workload, each in its own process, and with --trace 1 also
trace each one on the same seed and print the tracing overhead:

    python3 bench/run.py --seed 1 --seconds 15 --trace 1

A run is a fixed list of rounds; --seconds sets how many, never a timer.
Each round is a complete piece of work a user would start: one run_trials
campaign, one ExactEvaluator with its ensemble, or one oracle call. Every
timed piece of work is scaled to the nominal host speed, which hostspeed.py
samples while it runs.

The result object has the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0 and the per-layer metrics, per operation,
with --trace 1. The program is imported from src/ next to this directory.
See README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

if __name__ == "__main__" and "--probe" in sys.argv:
    # a set-up probe samples the host's speed from before its heavy imports
    PROBE_SAMPLER = hostspeed.Sampler()
    PROBE_SAMPLER.start()

# one process, one thread: no trial fan-out over worker processes and no BLAS
# thread pool, the latter set before numpy is imported
os.environ.pop("SKPK_WORKERS", None)
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh-process set-up probes, spread evenly over the run's rounds
SETUP_SAMPLES = 9
MC_EPSILON = 0.5
EXACT_EPSILON = 0.25
DELTA = 0.05
# round r of a run with seed s uses master seed s * ROUND_STRIDE + r
ROUND_STRIDE = 1000


def round_seed(seed, r):
    return seed * ROUND_STRIDE + r


class MonteCarlo:
    """Each round is one run_trials campaign on the xor source with KeyedHash
    codebooks and its own master seed. An operation is one trial.
    """

    def __init__(self, scheme, n, round_ops, round_seconds):
        self.scheme, self.n = scheme, n
        self.round_ops, self.round_seconds = round_ops, round_seconds

    def setup(self, skpk, seed, rounds):
        configs = [skpk.ExperimentConfig(
            scheme=self.scheme, dist=skpk.xor_triple(), n_values=(self.n,),
            trials=self.round_ops, epsilon=MC_EPSILON, delta=DELTA,
            master_seed=round_seed(seed, r)) for r in range(rounds)]
        # what run_trials builds before its first trial, so that the set-up
        # probe times it; each campaign builds its own
        skpk.RunContext(configs[0].scheme_config(self.n))
        # keep each trial's ProtocolRun for the checks: one list append per
        # trial, well under a microsecond against milliseconds per trial
        runs = []
        run_trial = skpk.protocol.RunContext.run

        def run_and_keep(ctx, trial_index):
            result = run_trial(ctx, trial_index)
            runs.append(result)
            return result

        skpk.protocol.RunContext.run = run_and_keep
        from checks import TrialChecker
        checker = TrialChecker(configs[0].dist,
                               skpk.TypicalityParams(MC_EPSILON, self.n))
        return configs, runs, checker

    def run_round(self, skpk, state, r):
        return skpk.harness.run_trials(state[0][r])

    def digest(self, skpk, state, r, report):
        """Checks the round's trials as soon as it is timed and drops them,
        so that the process never holds more than one campaign's trials.
        """
        from checks import check_report
        _, runs, checker = state
        in_report = check_report(report)
        if len(runs) != self.round_ops:
            problems = [in_report + [f"{len(runs)} trials ran, {self.round_ops} "
                                     "expected"]] * self.round_ops
        else:
            problems = [checker.check(run) + in_report for run in runs]
        runs.clear()
        return problems

    def check(self, skpk, state, digests):
        return [found for problems in digests for found in problems]


class ExactEnsemble:
    """Each round builds an ExactEvaluator for PointP on xor with
    ExplicitTable codebooks and its own master seed, and evaluates an
    ensemble. An operation is one ensemble member (one codebook draw).
    """

    def __init__(self, n, round_ops, round_seconds):
        self.n, self.round_ops, self.round_seconds = n, round_ops, round_seconds

    def config(self, skpk, master_seed):
        return skpk.SchemeConfig(
            scheme="PointP", dist=skpk.xor_triple(), n=self.n, epsilon=EXACT_EPSILON,
            delta=DELTA, master_seed=master_seed, codebook_mode=skpk.MODE_TABLE)

    def setup(self, skpk, seed, rounds):
        configs = [self.config(skpk, round_seed(seed, r)) for r in range(rounds)]
        # what a round builds before its first member, timed by the probe
        skpk.ExactEvaluator(configs[0])
        return configs, seed

    def run_round(self, skpk, state, r):
        configs, _ = state
        return skpk.ExactEvaluator(configs[r]).evaluate(self.round_ops)

    def digest(self, skpk, state, r, output):
        """What the checks need of a round's output, kept until the end."""
        return output

    def check(self, skpk, state, results):
        from checks import check_member, check_oracle
        configs, seed = state
        problems = []
        for result in results:
            members = result.per_codebook
            if len(members) != self.round_ops:
                return [[f"{len(members)} members, {self.round_ops} expected"]] * (
                    len(configs) * self.round_ops)
            problems += [check_member(m, result.kp_size, result.n) for m in members]
        # one member per run, chosen by the seed, against the oracle
        k = seed % self.round_ops
        oracle = skpk.exact.oracle_secrecy(configs[0], skpk.oracle_codebooks(configs[0], k))
        problems[k] += check_oracle(results[0].per_codebook[k], oracle)
        return problems


class ExactOracle(ExactEnsemble):
    """oracle_secrecy on the members of one ensemble, one member per round,
    each compared with ExactEvaluator's result for it. An operation is one
    member.
    """

    def setup(self, skpk, seed, rounds):
        return self.config(skpk, seed)

    def run_round(self, skpk, config, r):
        return skpk.exact.oracle_secrecy(config, skpk.oracle_codebooks(config, r))

    def check(self, skpk, config, oracles):
        from checks import check_oracle
        members = skpk.ExactEvaluator(config).evaluate(len(oracles)).per_codebook
        return [check_oracle(m, o) for m, o in zip(members, oracles)]


# round sizes and their nominal duration on a 2-core x86-64 host
WORKLOADS = {
    "mc_bulk_scan": MonteCarlo("PointT", 20, round_ops=40, round_seconds=2.8),
    "mc_pair_decode": MonteCarlo("PointP", 8, round_ops=150, round_seconds=2.9),
    "exact_ensemble": ExactEnsemble(8, round_ops=25, round_seconds=3.3),
    "exact_oracle": ExactOracle(7, round_ops=1, round_seconds=1.25),
}


def rounds_for(workload, seconds) -> int:
    """Length of the fixed list of rounds; it depends on --seconds only."""
    return max(1, round(seconds / workload.round_seconds))


def import_skpk():
    if not (SRC / "skpk" / "__init__.py").is_file():
        sys.exit(f"bench: no skpk sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import skpk
    import skpk.exact
    import skpk.harness
    import skpk.protocol
    if Path(skpk.__file__).resolve().parent != (SRC / "skpk").resolve():
        sys.exit(f"bench: skpk was imported from {skpk.__file__}, not from {SRC}")
    return skpk


def probe_setup(name, seed, seconds):
    """Seconds from starting a fresh process to the state its first
    operation needs (interpreter, import of skpk and numpy, source, and the
    per-configuration state), and the host speed the probe sampled.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    word, _, speed = line.partition(" ")
    if word != "ready" or child.returncode != 0:
        sys.exit(f"bench: set-up probe for {name} failed")
    return elapsed, float(speed)


def measure(name, seed, seconds, trace) -> dict:
    workload = WORKLOADS[name]
    rounds = rounds_for(workload, seconds)
    ops = rounds * workload.round_ops
    skpk = import_skpk()
    state = workload.setup(skpk, seed, rounds)
    run_round = workload.run_round
    tracer = None
    if trace:
        from spans import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()

        def run_round(skpk, state, r):
            return tracer.span(ROOT_SPAN, workload.run_round, skpk, state, r)

    probes_before = Counter(k * rounds // SETUP_SAMPLES for k in range(SETUP_SAMPLES))
    setup_samples, outputs, wall_s, speeds = [], [], [], []
    for r in range(rounds):
        if not trace:
            setup_samples += [probe_setup(name, seed, seconds)
                              for _ in range(probes_before[r])]
        output, wall, speed = hostspeed.timed(run_round, skpk, state, r)
        outputs.append(workload.digest(skpk, state, r, output))
        wall_s.append(wall)
        speeds.append(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.close()
    # each round's wall time scaled to the nominal host speed
    ops_per_s = ops / math.fsum(w * v for w, v in zip(wall_s, speeds))
    print("rounds " + json.dumps({"wall_s": wall_s, "speed": speeds,
                                  "wall_ops_per_s": ops / math.fsum(wall_s)}))
    if setup_samples:
        print("setup " + json.dumps(setup_samples))

    problems = workload.check(skpk, state, outputs)
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(p for p in problems if p):
        if i == 5:
            print(f"bench: ... {failed} operations failed", file=sys.stderr)
            break
        print(f"bench: {name}: {'; '.join(found)}", file=sys.stderr)
    correct = failed == 0 and len(problems) == ops

    if tracer:
        metrics, summary = tracer.layer_metrics(ops)
        layers_ms = sum(v for k, v in summary["self_ms"].items() if k != ROOT_SPAN)
        print("trace " + json.dumps({
            "ops_per_s": ops_per_s, "op_ms": summary["op_ms"],
            "layers_self_ms": layers_ms, "self_ms": summary["self_ms"],
            "spans": summary["spans"]}))
        tracer.write(OUT_DIR / f"spans-{name}.jsonl.gz")
    else:
        setup_s = statistics.median(w * v for w, v in setup_samples)
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (ops_per_s, "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    return {"correct": correct, "attempted": ops, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_child(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, None
    extra = next((json.loads(line[6:]) for line in lines if line.startswith("trace ")),
                 None)
    return json.loads(lines[-1]), extra


def measure_all(seed, seconds, trace) -> bool:
    ok = True
    for name in WORKLOADS:
        result, _ = run_child(name, seed, seconds, 0)
        if result is None:
            print(f"{name}: run failed")
            ok = False
            continue
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<32} {v['value']:>14.6g} {v['unit']}")
        if not trace:
            continue
        traced, extra = run_child(name, seed, seconds, 1)
        if traced is None:
            print(f"{name}: traced run failed")
            ok = False
            continue
        ok = ok and traced["correct"]
        for metric, v in traced["metrics"].items():
            print(f"  {metric:<32} {v['value']:>14.6g} {v['unit']}")
        plain = result["metrics"]["ops_per_s"]["value"]
        print(f"  traced ops_per_s {extra['ops_per_s']:.4g} against {plain:.4g} "
              f"untraced: tracing overhead {plain / extra['ops_per_s'] - 1:+.1%}; "
              f"layers' self time {extra['layers_self_ms']:.4g} ms of "
              f"{extra['op_ms']:.4g} ms per op")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        if args.probe:
            parser.error("--probe needs one workload")
        return 0 if measure_all(args.seed, args.seconds, args.trace) else 1
    if args.probe:
        workload = WORKLOADS[args.workload]
        workload.setup(import_skpk(), args.seed, rounds_for(workload, args.seconds))
        print(f"ready {PROBE_SAMPLER.stop()!r}", flush=True)
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
