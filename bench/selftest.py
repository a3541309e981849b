#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check first runs on genuine program output, where it must pass, then on
corrupted copies, each of which it must reject. Runs in a few seconds at
small blocklengths and exits 1 if any check passes a corrupted output or
fails a genuine one.
"""

import copy
import dataclasses
import math
import sys

from run import import_skpk

skpk = import_skpk()

from checks import TrialChecker, check_member, check_oracle, check_report  # noqa: E402


def ok_trial(scheme, n):
    """The first trial of a seeded run in which every terminal decodes OK."""
    config = skpk.SchemeConfig(scheme=scheme, dist=skpk.xor_triple(), n=n,
                               epsilon=0.5, delta=0.05, master_seed=3)
    ctx = skpk.RunContext(config)
    for i in range(500):
        run = ctx.run(i)
        if all(s == skpk.STATUS_OK for s in run.outcome.statuses.values()):
            return run, TrialChecker(config.dist, config.params)
    raise SystemExit(f"selftest: no all-OK {scheme} trial in 500")


def flipped(run, key):
    seq = run.recovered[key].copy()
    seq[0] = 1 - seq[0]
    return dataclasses.replace(run, recovered={**run.recovered, key: seq})


def wrong_bin(run):
    first, *rest = run.transcript.messages
    bad = dataclasses.replace(first, value=first.value + 1)
    return dataclasses.replace(run, transcript=skpk.Transcript((bad, *rest)))


def outcome_with(run, **changes):
    return dataclasses.replace(run, outcome=dataclasses.replace(run.outcome, **changes))


def trial_cases():
    cases = []
    for scheme, n, key, claims in (("PointT", 12, "z_at_X", "ks_claims"),
                                   ("PointP", 8, "x_at_Y", "kp_claims")):
        run, checker = ok_trial(scheme, n)
        terminal = key[-1]
        claim = getattr(run.outcome, claims)
        cases += [
            (f"{scheme} genuine trial", checker.check, run, True),
            (f"{scheme} one symbol of {key} flipped", checker.check,
             flipped(run, key), False),
            (f"{scheme} wrong announced bin", checker.check, wrong_bin(run), False),
            (f"{scheme} {terminal}'s key claim off by one", checker.check,
             outcome_with(run, **{claims: {**claim, terminal: claim[terminal] + 1}}),
             False),
            (f"{scheme} NoCandidate at {terminal} with a typical truth", checker.check,
             outcome_with(run, statuses={**run.outcome.statuses,
                                         terminal: "NoCandidate"}), False),
        ]
    config = skpk.ExperimentConfig(scheme="PointT", dist=skpk.xor_triple(),
                                   n_values=(12,), trials=10, epsilon=0.5,
                                   delta=0.05, master_seed=3)
    report = skpk.run_trials(config)
    bad = copy.deepcopy(report)
    bad.records[0]["decode_failures"]["X"]["OK"] += 0.1
    cases += [("genuine report", check_report, report, True),
              ("report whose X status fractions sum to 1.1", check_report, bad, False)]
    return cases


def exact_cases():
    config = skpk.SchemeConfig(scheme="PointP", dist=skpk.xor_triple(), n=4,
                               epsilon=0.25, delta=0.05, master_seed=7,
                               codebook_mode=skpk.MODE_TABLE)
    result = skpk.ExactEvaluator(config).evaluate(1)
    member = result.per_codebook[0]
    oracle = skpk.oracle_secrecy(config, skpk.oracle_codebooks(config, 0))

    def member_check(stats):
        return check_member(stats, result.kp_size, result.n)

    def oracle_check(stats):
        return check_oracle(stats, oracle)

    def moved(**changes):
        return dataclasses.replace(member, **changes)

    status = copy.deepcopy(member.status_mass)
    status["X"]["OK"] += 1e-9
    recovery = {**member.recovery_error, "z_at_X": -1e-9}
    ceiling = math.log2(result.kp_size) / result.n
    return [
        ("genuine member", member_check, member, True),
        ("X status masses summing to 1 + 1e-9", member_check,
         moved(status_mass=status), False),
        ("agreement mass 1 + 1e-9", member_check, moved(agree_kp=1.0 + 1e-9), False),
        ("recovery-error mass -1e-9", member_check, moved(recovery_error=recovery),
         False),
        ("leakage -1e-9", member_check, moved(leak_ks=-1e-9), False),
        ("h_kp 1e-9 above log2(kp_size)/n", member_check,
         moved(h_kp=ceiling + 1e-9), False),
        ("genuine member against the oracle", oracle_check, member, True),
        ("leak_kp moved by 1e-9", oracle_check, moved(leak_kp=member.leak_kp + 1e-9),
         False),
        ("leak_ks moved by 1e-9", oracle_check, moved(leak_ks=member.leak_ks + 1e-9),
         False),
        ("h_ks moved by 1e-9", oracle_check, moved(h_ks=member.h_ks + 1e-9), False),
        ("h_kp moved by 1e-9", oracle_check, moved(h_kp=member.h_kp + 1e-9), False),
    ]


def main() -> int:
    bad = 0
    for what, check, output, genuine in trial_cases() + exact_cases():
        problems = check(output)
        good = (not problems) if genuine else bool(problems)
        bad += not good
        verdict = "passes" if not problems else "rejects"
        print(f"{'ok  ' if good else 'FAIL'} {verdict} {what}"
              + (f": {problems[0]}" if problems else ""))
    print("all checks behave" if not bad else f"{bad} checks misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
