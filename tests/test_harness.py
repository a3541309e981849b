import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import identical_bits, mirrored_noisy_copy
from skpk import harness
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import UsageError
from skpk.exact import CodebookExact
from skpk.harness import (MODE_EXACT, MODE_MONTE_CARLO, ExperimentConfig,
                          emit_report, region_csv, region_summary, run_trials)
from skpk.sources import noisy_copy_triple, xor_triple


def _mc_config(**kw):
    base = dict(scheme="PointT", dist=xor_triple(), n_values=(4,), trials=25,
                epsilon=0.6, delta=0.02, master_seed=9, codebook_mode=MODE_HASH,
                evaluation_mode=MODE_MONTE_CARLO)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(UsageError):
        _mc_config(trials=0)
    with pytest.raises(UsageError):
        _mc_config(n_values=())
    with pytest.raises(UsageError):
        _mc_config(evaluation_mode=MODE_EXACT)  # hash codebooks
    with pytest.raises(UsageError):
        _mc_config(evaluation_mode="sometimes")
    for cap in (0, -5):
        with pytest.raises(UsageError, match=f"exact_cap must be >= 1, got {cap}"):
            _mc_config(exact_cap=cap)
    # the scheme setting is checked when the config is built, not at the
    # first record
    for kw in ({"scheme": "Bogus"}, {"epsilon": 1.2}, {"delta": -0.1},
               {"delta": math.nan}, {"master_seed": -1}, {"n_values": (4, 0)}):
        with pytest.raises(UsageError):
            _mc_config(**kw)
    with pytest.raises(UsageError, match="ts_schemes is for TimeShare only"):
        _mc_config(ts_schemes=("PointE", "PointT"))
    # a one-shot scheme refuses a time-share split, even 0.5, the TimeShare default
    for ts_lambda in (7.0, 0.5):
        with pytest.raises(UsageError, match="ts_lambda is for TimeShare only"):
            run_trials(_mc_config(ts_lambda=ts_lambda))


def test_time_share_split_defaults_to_half():
    cfg = _mc_config(scheme="TimeShare", ts_schemes=("PointE", "PointT"))
    assert cfg.ts_lambda == 0.5
    assert cfg.scheme_config(4).ts_lambda == 0.5


@pytest.mark.parametrize("kw", [
    {"n_values": (4, 6.0)}, {"n_values": ("4",)}, {"n_values": (True,)},
    {"trials": 2.5}, {"trials": "25"}, {"trials": True},
    {"master_seed": 9.0}, {"master_seed": "9"}, {"master_seed": False},
    {"exact_cap": "abc"}, {"exact_cap": 2.0 ** 30},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_config_refuses_non_integers(kw):
    with pytest.raises(UsageError, match="must be integers"):
        _mc_config(**kw)


@pytest.mark.parametrize("kw,message", [
    ({"n_values": 4}, "n_values must be a non-empty tuple or list of integers, got 4"),
    ({"n_values": "4"}, "n_values must be a non-empty tuple or list"),
    ({"n_values": None}, "n_values must be a non-empty tuple or list"),
    ({"dist": None}, "dist must be a JointDistribution, got NoneType")], ids=repr)
def test_config_refuses_n_values_and_dist_of_the_wrong_type(kw, message):
    """n_values=4 once raised a bare TypeError, and dist=None was accepted
    until its first use."""
    with pytest.raises(UsageError, match=message):
        _mc_config(**kw)


@pytest.mark.parametrize("scheme", ["PointT", "TimeShare"])
@pytest.mark.parametrize("mode", [MODE_MONTE_CARLO, MODE_EXACT])
def test_numpy_settings_write_the_bytes_of_their_python_twins(mode, scheme):
    """Settings given as numpy scalars are stored as the Python values they
    equal. Such a campaign once failed to write its report (uint8 is not
    JSON serializable), and a float32 epsilon made float32 rates. float32
    represents these settings exactly, so the report is its Python twin's,
    byte for byte.
    """
    def report(n, trials, seed, epsilon, delta, cap, ts_lambda):
        split = ({"ts_schemes": ("PointE", "PointT"), "ts_lambda": ts_lambda}
                 if scheme == "TimeShare" else {})
        return emit_report(run_trials(_mc_config(
            scheme=scheme, evaluation_mode=mode, codebook_mode=MODE_TABLE, n_values=(n,),
            trials=trials, master_seed=seed, epsilon=epsilon, delta=delta, exact_cap=cap,
            **split)))

    python_typed = report(4, 2, 1, 0.25, 0.0625, 2 ** 20, 0.5)
    assert report(np.int64(4), np.int64(2), np.uint8(1), np.float32(0.25), np.float32(0.0625),
                  np.int32(2 ** 20), np.float32(0.5)) == python_typed


def test_deterministic_agreement_on_identical_bits():
    report = run_trials(_mc_config(dist=identical_bits(), trials=1,
                                   epsilon=0.5, delta=0.05, n_values=(6,)))
    rec = report.records[0]
    assert rec["agree_ks"] == 1.0
    assert rec["agree_kp"] == 1.0
    assert rec["decode_failures"]["X"]["OK"] == 1.0


# the echoed config of a one-shot campaign: its set fields, the source as
# alphabet and pmf
_CONFIG_KEYS = {"scheme", "alphabet", "pmf", "epsilon", "delta", "master_seed",
                "codebook_mode", "n_values", "trials", "evaluation_mode"}


def test_report_shape_and_ranges():
    report = run_trials(_mc_config(n_values=(4, 6), trials=30))
    assert [r["n"] for r in report.records] == [4, 6]
    for rec in report.records:
        for key in ("agree_ks", "agree_kp"):
            assert 0.0 <= rec[key] <= 1.0
        assert rec["h_ks"] <= rec["rate_ks"] + 1e-9
        assert rec["h_kp"] <= rec["rate_kp"] + 1e-9
        for masses in rec["decode_failures"].values():
            assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)
        # sampling cannot estimate leakage
        assert rec["leak_ks"] is None and rec["leak_kp"] is None
        assert not {"epsilon", "delta"} & set(rec["rates"])
    # no resource cap, and no time-share fields for a one-shot scheme
    assert set(report.config) == _CONFIG_KEYS


# what a record adds to its mean member: the run's context, and per mode the
# trial count or the ensemble size and its members
_CONTEXT_KEYS = {"n", "scheme", "redirected", "rate_ks", "rate_kp", "rates"}
_MODE_KEYS = {MODE_MONTE_CARLO: {"trials"}, MODE_EXACT: {"num_codebooks", "per_codebook"}}


@pytest.mark.parametrize("scheme", ["PointT", "TimeShare"])
@pytest.mark.parametrize("mode", [MODE_MONTE_CARLO, MODE_EXACT])
def test_record_is_the_mean_member_plus_context(mode, scheme):
    """Every record key is a member field, under the name _stats_dict gives
    it, or a named context key; each listed member has exactly the record's
    member keys.
    """
    parts = {"ts_schemes": ("PointE", "PointT")} if scheme == "TimeShare" else {}
    cfg = _mc_config(scheme=scheme, codebook_mode=MODE_TABLE, evaluation_mode=mode,
                     trials=2, n_values=(4,), **parts)
    member_keys = set(harness._stats_dict(
        CodebookExact(**{f.name: None for f in dataclasses.fields(CodebookExact)})))
    rec = run_trials(cfg).records[0]
    assert set(rec) == member_keys | _CONTEXT_KEYS | _MODE_KEYS[mode]
    for member in rec.get("per_codebook", []):
        assert set(member) == member_keys


def test_reports_are_reproducible():
    a = run_trials(_mc_config()).to_json()
    b = run_trials(_mc_config()).to_json()
    assert a == b
    c = run_trials(_mc_config(master_seed=10)).to_json()
    assert a != c


def test_worker_count_does_not_change_bytes():
    baseline = run_trials(_mc_config(trials=16)).to_json()
    os.environ["SKPK_WORKERS"] = "3"
    try:
        fanned = run_trials(_mc_config(trials=16)).to_json()
    finally:
        del os.environ["SKPK_WORKERS"]
    assert fanned == baseline


def test_importing_skpk_loads_no_process_pool():
    """The process pool and multiprocessing load only when trials fan out,
    so a process that runs one worker never pays for their import.
    """
    src = str(Path(harness.__file__).resolve().parents[1])
    check = ("import sys, skpk; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[]"


def test_exact_mode_records():
    cfg = _mc_config(scheme="PointP", codebook_mode=MODE_TABLE,
                     evaluation_mode=MODE_EXACT, trials=2, n_values=(4,),
                     epsilon=0.9, delta=0.01)
    report = run_trials(cfg)
    rec = report.records[0]
    assert rec["num_codebooks"] == 2
    assert rec["leak_ks"] == 0.0
    assert rec["leak_kp"] >= 0.0
    assert len(rec["per_codebook"]) == 2
    assert 0.0 <= rec["agree_kp"] <= 1.0


def test_exact_leaks_and_entropies_are_never_negative():
    # PointQ redirected to PointP on this source: the key is uniform and
    # leaks nothing, so separately rounded entropies land around 1e-15
    cfg = _mc_config(scheme="PointQ", dist=noisy_copy_triple(0.3, 0.1),
                     codebook_mode=MODE_TABLE, evaluation_mode=MODE_EXACT,
                     trials=3, n_values=(4,), epsilon=0.5, delta=0.02, master_seed=5)
    rec = run_trials(cfg).records[0]
    values = [rec[k] for k in ("leak_ks", "leak_kp", "h_ks", "h_kp")]
    for member in rec["per_codebook"]:
        values += [member[k] for k in ("leak_ks", "leak_kp", "h_ks", "h_kp")]
    assert all(v >= 0.0 for v in values if v is not None), values


def test_exact_secrecy_warns_on_raised_cap(capsys):
    cfg = _mc_config(scheme="PointE", codebook_mode=MODE_TABLE,
                     evaluation_mode=MODE_EXACT, trials=2, n_values=(3,),
                     epsilon=0.9, delta=0.01, exact_cap=2 ** 25)
    report = run_trials(cfg)
    assert report.records[0]["num_codebooks"] == 2
    assert "warning" in capsys.readouterr().err


def test_empty_count_windows_warn_once_per_record(capsys):
    """Criterion 8's chain source has empty count windows at n = 12; each
    record warns once and names the engines, a time-shared one by part."""
    chain = noisy_copy_triple(0.1, 0.3)
    run_trials(_mc_config(scheme="PointQ", dist=chain, n_values=(12,), trials=2,
                          epsilon=0.1, delta=0.05))
    assert capsys.readouterr().err.splitlines() == [
        "warning: n=12: the count windows of decoding engine(s) xyz, xz, yx are "
        "empty at epsilon=0.1; every decode through them fails"]
    run_trials(_mc_config(scheme="TimeShare", ts_schemes=("PointQ", "PointE"), dist=chain,
                          n_values=(24, 12), trials=2, epsilon=0.1, delta=0.05))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "n=24: the count windows of decoding engine(s) A.xyz, A.xz, A.yx, B.yzx " in err[0]
    assert "n=12: the count windows of decoding engine(s) A.xyz, A.xz, A.yx, B.yzx " in err[1]


@pytest.mark.parametrize("mode", [MODE_MONTE_CARLO, MODE_EXACT])
def test_nonempty_count_windows_do_not_warn(mode, capsys):
    run_trials(_mc_config(scheme="PointP", n_values=(8,), trials=2, epsilon=0.25,
                          codebook_mode=MODE_TABLE, evaluation_mode=mode))
    assert capsys.readouterr().err == ""


def test_json_round_trip():
    report = run_trials(_mc_config())
    parsed = json.loads(report.to_json())
    assert parsed["records"][0]["n"] == 4
    assert parsed["config"]["scheme"] == "PointT"
    # serializing the parsed document again changes nothing
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == report.to_json()


def test_csv_emission(tmp_path):
    report = run_trials(_mc_config(n_values=(4, 6)))
    path = tmp_path / "out.csv"
    text = emit_report(report, path=path)
    lines = text.strip().split("\n")
    assert len(lines) == 3  # header and one row per blocklength
    assert "agree_kp" in lines[0]
    assert path.read_text() == text


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_exact_csv_has_a_column_per_member_value():
    cfg = _mc_config(scheme="PointQ", codebook_mode=MODE_TABLE, evaluation_mode=MODE_EXACT,
                     trials=3, n_values=(3, 4), epsilon=0.5, delta=0.02, master_seed=5)
    report = run_trials(cfg)
    records = json.loads(emit_report(report, fmt="json"))["records"]
    rows = list(csv.DictReader(io.StringIO(emit_report(report, fmt="csv"))))
    assert len(rows) == len(records) == 2
    for row, rec in zip(rows, records):
        assert "per_codebook" not in row
        assert len(rec["per_codebook"]) == 3
        for k, member in enumerate(rec["per_codebook"]):
            cells = list(_leaves(member, f"per_codebook.{k}."))
            assert any(name.endswith(".decode_failures.X.OK") for name, _ in cells)
            for name, value in cells:
                got = None if row[name] == "" else float(row[name])
                assert got == value, name
        assert not [c for c in row if c.startswith("per_codebook.3.")]


def test_emit_json_to_file(tmp_path):
    report = run_trials(_mc_config())
    path = tmp_path / "out.json"
    text = emit_report(report, path=path)
    assert json.loads(path.read_text()) == json.loads(text)
    with pytest.raises(UsageError):
        emit_report(report, path=tmp_path / "nodir" / "x.json")


def test_region_summary_and_csv():
    summary = region_summary(xor_triple())
    assert summary["case"] == "Case2"
    assert summary["constants"]["r_c"] == pytest.approx(0.5)
    text = region_csv(summary)
    assert text.splitlines()[0] == "kind,label,r_s,r_p"
    assert any(line.startswith("case,Case2") for line in text.splitlines())
    vertex_rows = [l for l in text.splitlines() if l.startswith("vertex,")]
    assert len(vertex_rows) == len(summary["vertices"])


def test_time_share_report():
    cfg = _mc_config(scheme="TimeShare", ts_schemes=("PointE", "PointT"),
                     ts_lambda=0.5, n_values=(8,), trials=10,
                     epsilon=0.5, delta=0.05)
    report = run_trials(cfg)
    rec = report.records[0]
    assert rec["scheme"] == "TimeShare"
    assert rec["rates"]["split"] == [4, 4]
    assert rec["rates"]["parts"]["A"]["scheme"] == "PointE"
    assert rec["rates"]["parts"]["B"]["scheme"] == "PointT"
    for part in rec["rates"]["parts"].values():
        assert not {"epsilon", "delta"} & set(part)
    assert set(report.config) == _CONFIG_KEYS | {"ts_schemes", "ts_lambda"}


@pytest.mark.parametrize("mode", [MODE_MONTE_CARLO, MODE_EXACT])
def test_time_share_without_a_secret_key_reports_none(mode):
    """Neither PointE part has a secret key, so the time share has none
    either: its agreement, uniformity and (exact) leakage are null and its
    rate is 0, while the private key is reported as usual.
    """
    cfg = _mc_config(scheme="TimeShare", ts_schemes=("PointE", "PointE"),
                     ts_lambda=0.5, n_values=(12,), trials=2, epsilon=0.5,
                     delta=0.02, codebook_mode=MODE_TABLE, evaluation_mode=mode)
    rec = run_trials(cfg).records[0]
    assert (rec["agree_ks"], rec["h_ks"], rec["rate_ks"]) == (None, None, 0.0)
    assert rec["agree_kp"] is not None and rec["h_kp"] is not None
    if mode == MODE_EXACT:
        assert rec["leak_ks"] is None and rec["leak_kp"] is not None
        assert all(m["agree_ks"] is None and m["leak_ks"] is None
                   for m in rec["per_codebook"])


_MIXED_OWNER_PARTS = [(a, b) for other in ("PointE", "PointT", "PointQ")
                      for a, b in (("PointP", other), (other, "PointP"))]


@pytest.mark.parametrize("flips", [(0.25, 0.0), (0.3, 0.1)], ids=["echo", "noisy"])
@pytest.mark.parametrize("mode", [MODE_HASH, MODE_TABLE])
@pytest.mark.parametrize("parts", _MIXED_OWNER_PARTS, ids="-".join)
def test_mixed_owner_time_share_uniformity_is_a_key_entropy(parts, mode, flips):
    """On a mirrored source PointP's private key is Y's, while PointE, PointT
    and PointQ give it to X. The sampled uniformity of a time share between
    them is still the plug-in entropy of one key per trial, so it is present
    and at most the key rate. PointP always has a secret key.
    """
    cfg = _mc_config(scheme="TimeShare", dist=mirrored_noisy_copy(*flips),
                     ts_schemes=parts, ts_lambda=0.5, n_values=(8, 12), trials=40,
                     epsilon=0.5, delta=0.02, codebook_mode=mode)
    for rec in run_trials(cfg).records:
        owners = [p["orientation"] if p["scheme"] == "PointP" else "X"
                  for p in rec["rates"]["parts"].values()]
        assert sorted(owners) == ["X", "Y"], rec["n"]
        for key in ("ks", "kp"):
            h = rec[f"h_{key}"]
            assert h is not None and h <= rec[f"rate_{key}"] + 1e-12, (rec["n"], key, h)


def test_search_overflow_tally(monkeypatch):
    monkeypatch.setattr("skpk.protocol.DEFAULT_SEARCH_CAP", 1)
    rec = run_trials(_mc_config(n_values=(8,), epsilon=0.5, trials=6)).records[0]
    tally = rec["decode_failures"]["X"]
    assert tally["SearchOverflow"] > 0
    assert math.isclose(sum(tally.values()), 1.0)


def test_worker_count_clamped_to_cpus(monkeypatch, capsys):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SKPK_WORKERS", "64")
    assert harness._worker_count() == 2
    assert "SKPK_WORKERS=64" in capsys.readouterr().err
    for raw, want in (("2", 2), ("1", 1), ("0", 1), ("-3", 1)):
        monkeypatch.setenv("SKPK_WORKERS", raw)
        assert harness._worker_count() == want
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("SKPK_WORKERS", "abc")
    with pytest.raises(UsageError, match="SKPK_WORKERS must be an integer, got 'abc'"):
        harness._worker_count()


def test_unknown_report_format_is_refused():
    with pytest.raises(UsageError, match="unknown report format 'xml'"):
        emit_report(region_summary(xor_triple()), fmt="xml")
