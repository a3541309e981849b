"""Every integer and real setting under hostile values.

Each setting is one call that takes the value and returns a digest of what
the owner made of it: a report's bytes, or a repr, which tells a numpy
scalar from the Python value it equals. A value must be refused with
UsageError or CapacityError, or give the digest of the equal Python-typed
value (value.item() for a numpy scalar). A campaign setting is read
through the report of a 2-trial run at n = 4, the exact cap through an
exact run at n = 1 on a source of 4 triples, which a cap of 4 covers.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import HOSTILE_SETTINGS
from skpk.binning import MODE_HASH, MODE_TABLE, BinningCodebook
from skpk.errors import CapacityError, UsageError
from skpk.exact import ExactEvaluator
from skpk.harness import (MODE_EXACT, ExperimentConfig, _trial_stats, emit_report,
                          run_trials)
from skpk.lemma1 import lemma1_check
from skpk.protocol import RateAssignment, RunContext, SchemeConfig, derive_rates
from skpk.sources import (JointDistribution, doubly_symmetric_xz, info_profile, sample,
                          xor_triple)
from skpk.typicality import CandidateEngine, TypicalityParams

XOR = xor_triple()
SMALL = doubly_symmetric_xz()
SHARE = {"scheme": "TimeShare", "ts_schemes": ("PointE", "PointT")}
RATES = {"r_z": 1.5, "r_x": 0.5, "r_y": 0.0, "r_s": 0.0, "r_p": 0.25}


def _scheme(**kw) -> SchemeConfig:
    return SchemeConfig(**{"scheme": "PointT", "dist": XOR, "n": 4, "epsilon": 0.5,
                           "delta": 0.05, "master_seed": 3, "codebook_mode": MODE_TABLE, **kw})


def _campaign(**kw) -> str:
    return emit_report(run_trials(ExperimentConfig(**{
        "scheme": "PointT", "dist": XOR, "n_values": (4,), "trials": 2, "epsilon": 0.5,
        "delta": 0.05, "master_seed": 3, "codebook_mode": MODE_TABLE, **kw})))


def _lemma(**kw) -> str:
    args = {"n": 4, "r_s": 0.25, "r_z": 0.25, "codebook_count": 2, "delta": 0.0625, "seed": 1,
            "epsilon": 0.25, **kw}
    return emit_report(dataclasses.asdict(lemma1_check([0.5, 0.5], **args)))


def _codebook(**kw) -> str:
    cb = BinningCodebook(MODE_HASH, **{"n": 4, "alphabet_size": 2, "bin_rate": 0.5,
                                       "sub_rate": 0.25, "seed": 1, "purpose": "Z", **kw})
    return repr([vars(cb)[k] for k in ("n", "alphabet_size", "bin_rate", "sub_rate", "seed",
                                       "num_bins", "num_sub_bins")]
                + [cb.contribution_table().tolist(), cb.sub_contribution_table().tolist()])


def _trial(index) -> str:
    ctx = RunContext(_scheme())
    return repr(_trial_stats(ctx, ctx.run(index)))


SETTINGS = {
    "JointDistribution.alphabet_sizes":
        lambda v: repr(JointDistribution((v, 1, 2), np.full((2, 1, 2), 0.25)).alphabet_sizes),
    "JointDistribution.create.alphabet_sizes":
        lambda v: repr(JointDistribution.create((2, 1, v), np.full(4, 0.25)).alphabet_sizes),
    "sample.n": lambda v: repr(sample(XOR, v, 5)),
    "sample.seed": lambda v: repr(sample(XOR, 6, v)),
    "SchemeConfig.n": lambda v: repr(_scheme(n=v)),
    "SchemeConfig.master_seed": lambda v: repr(_scheme(master_seed=v)),
    "SchemeConfig.epsilon": lambda v: repr(_scheme(epsilon=v)),
    "SchemeConfig.delta": lambda v: repr(_scheme(delta=v)),
    "SchemeConfig.ts_lambda": lambda v: repr(_scheme(**SHARE, ts_lambda=v)),
    "derive_rates.epsilon": lambda v: repr(derive_rates("PointT", info_profile(XOR), v, 0.05)),
    "derive_rates.delta": lambda v: repr(derive_rates("PointT", info_profile(XOR), 0.5, v)),
    **{f"rates.{name}": (lambda v, name=name: repr(RunContext(_scheme(
        rates=RateAssignment(**{**RATES, name: v}))).rates)) for name in RATES},
    "RunContext.run.trial_index": _trial,
    "ExperimentConfig.n_values": lambda v: _campaign(n_values=(v,)),
    "ExperimentConfig.trials": lambda v: _campaign(trials=v),
    "ExperimentConfig.master_seed": lambda v: _campaign(master_seed=v),
    "ExperimentConfig.epsilon": lambda v: _campaign(epsilon=v),
    "ExperimentConfig.delta": lambda v: _campaign(delta=v),
    "ExperimentConfig.ts_lambda": lambda v: _campaign(**SHARE, ts_lambda=v),
    "ExperimentConfig.exact_cap":
        lambda v: _campaign(evaluation_mode=MODE_EXACT, dist=SMALL, n_values=(1,), exact_cap=v),
    "ExactEvaluator.exact_cap":
        lambda v: repr(ExactEvaluator(_scheme(dist=SMALL, n=1), v).member(0)),
    "ExactEvaluator.evaluate.num_codebooks": lambda v: repr(ExactEvaluator(_scheme()).evaluate(v)),
    "ExactEvaluator.member.k": lambda v: repr(ExactEvaluator(_scheme()).member(v)),
    "TypicalityParams.epsilon": lambda v: repr(TypicalityParams(v, 4)),
    "TypicalityParams.n": lambda v: repr(TypicalityParams(0.5, v)),
    **{f"lemma1_check.{name}": (lambda v, name=name: _lemma(**{name: v}))
       for name in ("n", "codebook_count", "seed", "delta", "r_s", "r_z", "epsilon")},
    **{f"BinningCodebook.{name}": (lambda v, name=name: _codebook(**{name: v}))
       for name in ("n", "alphabet_size", "bin_rate", "sub_rate", "seed")},
    "CandidateEngine.cap":
        lambda v: repr(CandidateEngine(np.full((2, 2), 0.25), TypicalityParams(0.5, 3), cap=v).cap),
}


@pytest.mark.parametrize("setting", SETTINGS)
@settings(max_examples=40)
@given(value=HOSTILE_SETTINGS)
def test_a_setting_is_refused_or_read_as_its_python_value(setting, value):
    try:
        got = SETTINGS[setting](value)
    except (UsageError, CapacityError):
        return
    twin = value.item() if isinstance(value, np.generic) else value
    if twin is not value:
        assert got == SETTINGS[setting](twin)
