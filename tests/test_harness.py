import csv
import io
import json
import math
import os

import pytest

from skpk import harness
from skpk.binning import MODE_HASH, MODE_TABLE
from skpk.errors import UsageError
from skpk.harness import (MODE_EXACT, MODE_MONTE_CARLO, ExperimentConfig,
                          emit_report, region_csv, region_summary, run_trials)
from skpk.sources import identical_bits, noisy_copy_triple, xor_triple


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


def test_exact_leaks_and_entropies_are_never_negative():
    # PointQ redirected to PointP on this source: the key is uniform and
    # leaks nothing, so separately rounded entropies land around 1e-15
    cfg = _mc_config(scheme="PointQ", dist=noisy_copy_triple(0.3, 0.1),
                     codebook_mode=MODE_TABLE, evaluation_mode=MODE_EXACT,
                     trials=3, n_values=(4,), epsilon=0.5, delta=0.02, master_seed=5)
    rec = run_trials(cfg).records[0]
    values = [rec[k] for k in ("leak_ks", "leak_kp", "uniformity_hks", "uniformity_hkp")]
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
    rec = run_trials(cfg).records[0]
    assert rec["scheme"] == "TimeShare"
    assert rec["rates"]["split"] == [4, 4]
    assert rec["rates"]["parts"]["A"]["scheme"] == "PointE"
    assert rec["rates"]["parts"]["B"]["scheme"] == "PointT"


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
