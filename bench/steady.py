#!/usr/bin/env python3
"""Steadiness check: two separate sets of runs of every workload.

    python3 bench/steady.py --runs 10 [--first-seed 1]

Each run gets its own seed and lasts run_seconds from BENCHMARK.json. For
every workload and end-to-end metric this prints each set's median and
quartiles, the spread (quartile distance as a share of the median), and
whether the sets agree within the metric's bound in BENCHMARK.json: each
set's spread within the bound, the second median no worse than the first by
more than the bound, and the same share of failed operations in both sets.
Raw results go to bench/out/steady.json.
"""

import argparse
import json
import statistics
import sys

from run import OUT_DIR, ROOT, run_child

SETS = 2


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def judge(metric, sets):
    """Verdict lines for one metric over the two sets of one workload."""
    bound = metric["bound"]
    rows, ok = [], True
    medians = []
    for i, values in enumerate(sets, 1):
        med, q1, q3, share = spread(values)
        medians.append(med)
        ok = ok and share <= bound
        rows.append(f"    set {i}: median {med:.6g}  quartiles {q1:.6g}..{q3:.6g}  "
                    f"spread {share:.1%} of bound {bound:.0%}"
                    f"{'' if share <= bound / 3 else '  (above a third of the bound)'}")
    first, second = medians
    change = (second - first) / first
    worse = change if metric["better"] == "lower" else -change
    agree = worse <= bound
    ok = ok and agree
    rows.append(f"    second median {change:+.1%} against the first: "
                f"{'agrees' if agree else 'DISAGREES'} within {bound:.0%}")
    return ok, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [] for name in names}
    for s in range(SETS):
        for name in names:
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                result, _ = run_child(name, seed, spec["run_seconds"], 0)
                if result is None:
                    raise SystemExit(f"steady: {name} seed {seed} failed")
                runs.append(result)
            results[name].append(runs)
            print(f"set {s + 1} of {name} done", file=sys.stderr, flush=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(results, indent=1) + "\n")

    all_ok = True
    for name in names:
        runs = results[name]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        same_failed = len(set(shares)) == 1
        all_ok = all_ok and correct and same_failed
        print(f"{name}: correct={correct} failed share per set {shares}"
              f"{'' if same_failed else '  DIFFERS'}")
        for metric in spec["end_to_end"]:
            sets = [[r["metrics"][metric["name"]]["value"] for r in rs] for rs in runs]
            ok, rows = judge(metric, sets)
            all_ok = all_ok and ok
            print(f"  {metric['name']} ({metric['unit']}, {metric['better']} is better)")
            print("\n".join(rows))
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
