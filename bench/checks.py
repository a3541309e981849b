"""Output checks for the benchmark's workloads.

Each check returns a list of problems, empty when the output is right. The
rules follow from the protocol and from what exact evaluation computes, not
from recorded outputs, so a program that gets faster and keeps its results
passes, and one that changes them fails. The checks run outside the timed
window.
"""

import math

import numpy as np

from skpk import STATUS_OK, is_strongly_typical

TOL = 1e-12

# Per scheme and terminal, the decode stages in order: the marginal whose
# typicality the stage tests, and the recovered sequence it adds. In a tuple
# for the test, the terminal's own letter takes its own sequence and every
# other letter takes the sequence recovered for it.
DECODE_CHAINS = {
    "PointT": {"X": (("XZ", "z_at_X"),),
               "Y": (("YZ", "z_at_Y"), ("YZX", "x_at_Y"))},
    "PointP": {"X": (("XZ", "z_at_X"),),
               "Y": (("YX", "x_at_Y"), ("XYZ", "z_at_Y"))},
}

# a recovered Z^n carries the secret-key claim, a recovered X^n the private one
_CLAIMS_OF = {"Z": "ks_claims", "X": "kp_claims"}


class TrialChecker:
    """Checks one Monte Carlo trial (a ProtocolRun) of a PointT or PointP
    run in canonical orientation, against the decoder's own typicality rule.
    """

    def __init__(self, dist, params):
        self.params = params
        self._marginals = {}
        self._dist = dist

    def _typical(self, seqs, marginal):
        pmf = self._marginals.get(marginal)
        if pmf is None:
            pmf = self._marginals[marginal] = self._dist.marginal(marginal)
        return is_strongly_typical(tuple(seqs[v] for v in marginal), pmf, self.params)

    def check(self, run) -> list:
        problems = []
        truth = {"X": run.triple.x_seq, "Y": run.triple.y_seq, "Z": run.triple.z_seq}
        out = run.outcome
        announced = {}
        for msg in run.transcript.messages:
            want = run.codebooks[msg.sender].bin_index(truth[msg.sender])
            if msg.value != want:
                problems.append(f"{msg.sender} announced bin {msg.value}, "
                                f"bin_index of its sequence is {want}")
            announced[msg.sender] = msg.value
        for var, field in _CLAIMS_OF.items():
            owner_claim = getattr(out, field).get(var)
            if owner_claim != run.codebooks[var].sub_bin_index(truth[var]):
                problems.append(f"owner {var}'s key claim is not the sub-bin of its sequence")
        for terminal, chain in DECODE_CHAINS[run.scheme].items():
            problems += self._check_terminal(run, terminal, chain, truth, announced)
        return problems

    def _check_terminal(self, run, terminal, chain, truth, announced):
        problems = []
        status = run.outcome.statuses[terminal]
        truth_passes = all(self._typical(truth, marginal) for marginal, _ in chain)
        if truth_passes and status == "NoCandidate":
            problems.append(f"{terminal}: NoCandidate although the truth passes its test")
        if status != STATUS_OK:
            return problems
        seqs = {terminal: truth[terminal]}
        for _, key in chain:
            if run.recovered.get(key) is None:
                return problems + [f"{terminal}: status OK but {key} is missing"]
            seqs[key[0].upper()] = run.recovered[key]
        for marginal, key in chain:
            var = key[0].upper()
            got = seqs[var]
            if not self._typical(seqs, marginal):
                problems.append(f"{key} is not typical on {marginal} with what "
                                f"{terminal} observed")
            if run.codebooks[var].bin_index(got) != announced[var]:
                problems.append(f"{key} does not carry the announced bin")
            claim = getattr(run.outcome, _CLAIMS_OF[var])[terminal]
            if claim != run.codebooks[var].sub_bin_index(got):
                problems.append(f"{terminal}'s key claim is not the sub-bin of {key}")
            if truth_passes and not np.array_equal(got, truth[var]):
                problems.append(f"{key} is not the truth although the truth passes "
                                f"{terminal}'s test")
        return problems


def check_report(report) -> list:
    """Every terminal's status fractions sum to 1 in every record."""
    problems = []
    for record in report.records:
        for terminal, fractions in record["decode_failures"].items():
            total = math.fsum(fractions.values())
            if abs(total - 1.0) > TOL:
                problems.append(f"n={record['n']}: {terminal}'s status fractions "
                                f"sum to {total!r}")
    return problems


def check_member(stats, kp_size, n) -> list:
    """Law-level invariants of one exact ensemble member (a CodebookExact)."""
    problems = []
    for terminal, masses in stats.status_mass.items():
        total = math.fsum(masses.values())
        if abs(total - 1.0) > TOL:
            problems.append(f"{terminal}'s status masses sum to {total!r}")
    masses = {"agree_ks": stats.agree_ks, "agree_kp": stats.agree_kp}
    masses.update({f"recovery_error.{k}": v for k, v in stats.recovery_error.items()})
    for name, value in masses.items():
        if value is not None and not (-TOL <= value <= 1.0 + TOL):
            problems.append(f"{name} = {value!r} is not a probability")
    for name in ("leak_ks", "leak_kp"):
        value = getattr(stats, name)
        if value is not None and value < -TOL:
            problems.append(f"{name} = {value!r} is negative")
    ceiling = math.log2(kp_size) / n
    if stats.h_kp > ceiling + TOL:
        problems.append(f"h_kp = {stats.h_kp!r} exceeds log2(kp_size)/n = {ceiling!r}")
    return problems


def check_oracle(stats, oracle) -> list:
    """The evaluator's member and the brute-force oracle agree within 1e-12."""
    problems = []
    for name in ("leak_ks", "leak_kp", "h_ks", "h_kp"):
        ours, ref = getattr(stats, name), oracle[name]
        if (ours is None) != (ref is None) or (
                ours is not None and abs(ours - ref) > TOL):
            problems.append(f"{name}: evaluator {ours!r}, oracle {ref!r}")
    return problems
