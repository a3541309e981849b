import json
import math
import os

import pytest

from skpk import harness
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import UsageError
from skpk.harness import (MODE_EXACT, MODE_MONTE_CARLO, ExperimentConfig,
                          emit_report, region_csv, region_summary, run_trials)
from skpk.sources import identical_bits, xor_triple


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


def test_deterministic_agreement_on_identical_bits():
    report = run_trials(_mc_config(dist=identical_bits(), trials=1,
                                   epsilon=0.5, delta=0.05, n_values=(6,)))
    rec = report.records[0]
    assert rec["agree_ks"] == 1.0
    assert rec["agree_kp"] == 1.0
    assert rec["decode_failures"]["X"]["OK"] == 1.0


def test_report_shape_and_ranges():
    report = run_trials(_mc_config(n_values=(4, 6), trials=30))
    assert [r["n"] for r in report.records] == [4, 6]
    for rec in report.records:
        for key in ("agree_ks", "agree_kp"):
            assert 0.0 <= rec[key] <= 1.0
        assert rec["uniformity_hks"] <= rec["rate_ks"] + 1e-9
        assert rec["uniformity_hkp"] <= rec["rate_kp"] + 1e-9
        for masses in rec["decode_failures"].values():
            assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)
        assert "leak_ks" not in rec  # sampling cannot estimate leakage


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
    rec = run_trials(cfg).records[0]
    assert rec["scheme"] == "TimeShare"
    assert rec["rates"]["split"] == [4, 4]
    assert rec["rates"]["parts"]["A"]["scheme"] == "PointE"
    assert rec["rates"]["parts"]["B"]["scheme"] == "PointT"


def test_search_overflow_tally():
    rec = run_trials(_mc_config(n_values=(8,), epsilon=0.5, trials=6,
                                search_cap=1)).records[0]
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
