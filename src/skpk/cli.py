"""Command-line front end.

Subcommands: region (capacity region of a pmf file), simulate (Monte Carlo
protocol campaigns), secrecy-exact (exhaustive evaluation with explicit-table
codebooks), and lemma1 (conditional-entropy bound verifier). Exit codes: 0 on
success, 2 for usage errors, 3 for capacity errors.
"""

import argparse
import sys
from dataclasses import asdict

from .binning import MODE_HASH, MODE_TABLE
from .errors import CapacityError, UsageError
from .exact import lemma1_check
from .harness import (EXACT_PRODUCT_CAP, MODE_EXACT, MODE_MONTE_CARLO,
                      ExperimentConfig, emit_report, region_summary, run_trials)
from .sources import load_pmf

_SCHEME_NAMES = {"pointE": "PointE", "pointT": "PointT", "pointP": "PointP",
                 "pointQ": "PointQ", "timeshare": "TimeShare"}
_ONE_SHOT = ("pointE", "pointT", "pointP", "pointQ")


def _parse_sweep(text):
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated blocklength in sweep list {text!r}")
    return values


def _add_simulate_flags(sub, exact: bool):
    sub.add_argument("--pmf", required=True, help="JSON pmf file")
    sub.add_argument("--scheme", required=True, choices=list(_SCHEME_NAMES))
    sub.add_argument("--n", type=int, help="blocklength")
    sub.add_argument("--sweep", type=_parse_sweep,
                     help="comma-separated blocklengths; replaces --n")
    sub.add_argument("--trials", type=int, default=100,
                     help="trial count, or codebook-ensemble size in exact mode")
    sub.add_argument("--epsilon", type=float, default=0.1)
    sub.add_argument("--delta", type=float, default=0.05)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--codebook", choices=["hash", "table"],
                     default="table" if exact else "hash")
    sub.add_argument("--ts-schemes",
                     help="two comma-separated one-shot schemes for timeshare")
    sub.add_argument("--ts-lambda", type=float, default=0.5,
                     help="fraction of symbols given to the first part")
    sub.add_argument("--out", help="output file; format from extension")
    if exact:
        sub.add_argument("--exact-cap", type=int, default=EXACT_PRODUCT_CAP,
                         help="enumeration size limit (alphabet product ** n)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="skpk",
        description="Secret-key and private-key protocols over a three-terminal source")
    subs = parser.add_subparsers(dest="command", required=True)

    region = subs.add_parser("region", help="capacity region of a source")
    region.add_argument("pmf", help="JSON pmf file")
    region.add_argument("--out", help="output file")
    region.add_argument("--format", choices=["csv", "json"], default=None)

    simulate = subs.add_parser("simulate", help="Monte Carlo protocol runs")
    _add_simulate_flags(simulate, exact=False)

    exact = subs.add_parser("secrecy-exact",
                            help="exact leakage and uniformity by enumeration")
    _add_simulate_flags(exact, exact=True)

    lemma = subs.add_parser("lemma1",
                            help="exact H(Z^n | bin, sub-bin) against its bound")
    lemma.add_argument("--pmf", required=True,
                       help="JSON pmf file; the Z marginal is used")
    lemma.add_argument("--n", type=int, required=True)
    lemma.add_argument("--rs", type=float, required=True, help="sub-bin rate R_S")
    lemma.add_argument("--rz", type=float, required=True, help="bin rate R_Z")
    lemma.add_argument("--delta", type=float, required=True)
    lemma.add_argument("--codebooks", type=int, default=20)
    lemma.add_argument("--seed", type=int, default=0)
    lemma.add_argument("--epsilon", type=float, default=0.1,
                       help="typicality tolerance for the occupancy diagnostics")
    lemma.add_argument("--out", help="output file")
    return parser


def _experiment_config(args, exact: bool) -> ExperimentConfig:
    dist = load_pmf(args.pmf)
    if args.sweep:
        n_values = args.sweep
    elif args.n is not None:
        n_values = (args.n,)
    else:
        raise UsageError("either --n or --sweep is required")
    ts_schemes = None
    if args.scheme == "timeshare":
        if not args.ts_schemes:
            raise UsageError("timeshare needs --ts-schemes A,B")
        parts = [p.strip() for p in args.ts_schemes.split(",")]
        if len(parts) != 2 or any(p not in _ONE_SHOT for p in parts):
            raise UsageError(
                f"--ts-schemes expects two of {', '.join(_ONE_SHOT)}")
        ts_schemes = tuple(_SCHEME_NAMES[p] for p in parts)
    mode = MODE_TABLE if args.codebook == "table" else MODE_HASH
    if exact and mode != MODE_TABLE:
        print("warning: exact mode needs explicit tables; ignoring --codebook hash",
              file=sys.stderr)
        mode = MODE_TABLE
    return ExperimentConfig(
        scheme=_SCHEME_NAMES[args.scheme], dist=dist, n_values=n_values,
        trials=args.trials, epsilon=args.epsilon, delta=args.delta,
        master_seed=args.seed, codebook_mode=mode,
        evaluation_mode=MODE_EXACT if exact else MODE_MONTE_CARLO,
        ts_schemes=ts_schemes, ts_lambda=args.ts_lambda,
        exact_cap=getattr(args, "exact_cap", EXACT_PRODUCT_CAP))


def _cmd_region(args) -> int:
    summary = region_summary(load_pmf(args.pmf))
    text = emit_report(summary, path=args.out, fmt=args.format)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args, exact: bool) -> int:
    config = _experiment_config(args, exact)
    report = run_trials(config)
    text = emit_report(report, path=args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_lemma1(args) -> int:
    dist = load_pmf(args.pmf)
    stats = lemma1_check(dist.marginal("Z"), args.n, args.rs, args.rz,
                         args.codebooks, args.delta, args.seed,
                         epsilon=args.epsilon)
    record = asdict(stats)
    record["per_codebook"] = list(record["per_codebook"])
    record["e2_fractions"] = list(record["e2_fractions"])
    text = emit_report(record, path=args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "region":
            return _cmd_region(args)
        if args.command == "simulate":
            return _cmd_simulate(args, exact=False)
        if args.command == "secrecy-exact":
            return _cmd_simulate(args, exact=True)
        if args.command == "lemma1":
            return _cmd_lemma1(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
