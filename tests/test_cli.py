import json

import pytest

from skpk.cli import main
from skpk.sources import dump_pmf, xor_triple


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.json"
    dump_pmf(xor_triple(), path)
    return str(path)


def test_region_json(xor_file, capsys):
    assert main(["region", xor_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "Case2"
    assert sorted(map(tuple, doc["vertices"])) == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0)]


def test_region_csv_output(xor_file, tmp_path, capsys):
    out = tmp_path / "region.csv"
    assert main(["region", xor_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("kind,label")
    assert "case,Case2" in text


def test_simulate_stdout(xor_file, capsys):
    argv = ["simulate", "--pmf", xor_file, "--scheme", "pointT", "--n", "4",
            "--trials", "10", "--epsilon", "0.6", "--delta", "0.02", "--seed", "3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["scheme"] == "PointT"
    assert len(doc["records"]) == 1
    assert doc["records"][0]["trials"] == 10


def test_simulate_sweep_is_reproducible(xor_file, capsys):
    argv = ["simulate", "--pmf", xor_file, "--scheme", "pointP", "--sweep", "4,6",
            "--trials", "8", "--epsilon", "0.6", "--delta", "0.02", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert [r["n"] for r in json.loads(first)["records"]] == [4, 6]


def test_simulate_requires_blocklength(xor_file, capsys):
    rc = main(["simulate", "--pmf", xor_file, "--scheme", "pointT",
               "--trials", "5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_pmf_file(capsys):
    rc = main(["region", "/nonexistent/pmf.json"])
    assert rc == 2


def test_timeshare_flags(xor_file, capsys):
    argv = ["simulate", "--pmf", xor_file, "--scheme", "timeshare",
            "--ts-schemes", "pointE,pointT", "--ts-lambda", "0.5",
            "--n", "8", "--trials", "5", "--epsilon", "0.5", "--delta", "0.05"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["scheme"] == "TimeShare"
    rc = main(["simulate", "--pmf", xor_file, "--scheme", "timeshare",
               "--n", "8", "--trials", "5"])
    assert rc == 2


def test_one_shot_scheme_refuses_ts_schemes(xor_file, capsys):
    """--ts-schemes with a one-shot scheme is an error, not silently dropped."""
    rc = main(["simulate", "--pmf", xor_file, "--scheme", "pointT",
               "--ts-schemes", "pointE,pointQ", "--n", "8", "--trials", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ts_schemes is for TimeShare only")


def test_one_shot_scheme_refuses_ts_lambda(xor_file, capsys):
    """--ts-lambda with a one-shot scheme is an error, not silently dropped;
    timeshare without it gives each part half of the symbols.
    """
    rc = main(["simulate", "--pmf", xor_file, "--scheme", "pointT", "--ts-lambda", "7",
               "--n", "6", "--trials", "3", "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --ts-lambda is for timeshare only")
    assert main(["simulate", "--pmf", xor_file, "--scheme", "timeshare",
                 "--ts-schemes", "pointE,pointT", "--n", "8", "--trials", "3",
                 "--epsilon", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["ts_lambda"] == 0.5
    assert doc["records"][0]["rates"]["split"] == [4, 4]


def test_secrecy_exact_forces_tables(xor_file, capsys):
    argv = ["secrecy-exact", "--pmf", xor_file, "--scheme", "pointE", "--n", "3",
            "--trials", "2", "--epsilon", "0.9", "--delta", "0.01",
            "--codebook", "hash"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    rec = json.loads(captured.out)["records"][0]
    assert rec["num_codebooks"] == 2
    assert rec["leak_kp"] >= 0.0


def test_secrecy_exact_capacity_exit(xor_file, capsys):
    argv = ["secrecy-exact", "--pmf", xor_file, "--scheme", "pointP",
            "--n", "30", "--trials", "1", "--epsilon", "0.9", "--delta", "0.01"]
    assert main(argv) == 3
    assert "capacity" in capsys.readouterr().err


def test_secrecy_exact_names_a_lowered_cap(xor_file, capsys):
    argv = ["secrecy-exact", "--pmf", xor_file, "--scheme", "pointP", "--n", "4",
            "--trials", "1", "--epsilon", "0.5", "--delta", "0.02", "--exact-cap", "64"]
    assert main(argv) == 3
    assert "exceed the exact-mode cap 64" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_secrecy_exact_refuses_a_cap_below_one(value, xor_file, capsys):
    argv = ["secrecy-exact", "--pmf", xor_file, "--scheme", "pointP", "--n", "4",
            "--trials", "1", "--epsilon", "0.5", "--delta", "0.02", "--exact-cap", value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: exact_cap must be >= 1, got {value}")


def test_lemma1_command(tmp_path, capsys):
    from skpk.sources import JointDistribution
    import numpy as np
    path = tmp_path / "unifz.json"
    dump_pmf(JointDistribution((1, 1, 2), np.full((1, 1, 2), 0.5)), path)
    argv = ["lemma1", "--pmf", str(path), "--n", "10", "--rs", "0.35",
            "--rz", "0.35", "--delta", "0.05", "--codebooks", "4", "--seed", "1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] is True
    assert doc["bound"] == pytest.approx(0.35)
    assert len(doc["per_codebook"]) == 4


def test_lemma1_precondition_exit(tmp_path, capsys):
    from skpk.sources import JointDistribution
    import numpy as np
    path = tmp_path / "unifz.json"
    dump_pmf(JointDistribution((1, 1, 2), np.full((1, 1, 2), 0.5)), path)
    argv = ["lemma1", "--pmf", str(path), "--n", "8", "--rs", "0.6",
            "--rz", "0.6", "--delta", "0.05", "--codebooks", "2", "--seed", "0"]
    assert main(argv) == 2
    assert "H(Z)" in capsys.readouterr().err


def test_output_file_selection(xor_file, tmp_path):
    out = tmp_path / "report.csv"
    argv = ["simulate", "--pmf", xor_file, "--scheme", "pointT", "--n", "4",
            "--trials", "5", "--epsilon", "0.6", "--delta", "0.02",
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().startswith("agree_k")


_BAD_PMFS = {
    "nan-entry": '{"alphabet": [2, 1, 2], "pmf": [NaN, 0.5, 0.25, 0.25]}',
    "null-entry": '{"alphabet": [2, 1, 2], "pmf": [null, 0.5, 0.25, 0.25]}',
    "infinite-entry": '{"alphabet": [1, 1, 2], "pmf": [Infinity, 0.5]}',
    "string-entry": '{"alphabet": [1, 1, 2], "pmf": ["x", 1]}',
    "nested-pmf": '{"alphabet": [1, 1, 2], "pmf": [[0.5, 0.5]]}',
    "string-sizes": '{"alphabet": ["a", "b", "c"], "pmf": [1.0]}',
    "scalar-alphabet": '{"alphabet": 3, "pmf": [0.5, 0.5]}',
    "fractional-size": '{"alphabet": [2.5, 1, 2], "pmf": [0.25, 0.25, 0.25, 0.25]}',
    "boolean-size": '{"alphabet": [true, 1, 2], "pmf": [0.5, 0.5]}',
    "negative-entry": '{"alphabet": [1, 1, 2], "pmf": [-0.5, 1.5]}',
    "invalid-json": '{"alphabet": [1, 1, 2], "pmf": [0.5, 0.5]',
    "missing-pmf": '{"alphabet": [1, 1, 2]}',
    "missing-alphabet": '{"pmf": [0.5, 0.5]}',
}


@pytest.mark.parametrize("case", sorted(_BAD_PMFS))
def test_malformed_pmf_file_is_a_usage_error(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(_BAD_PMFS[case])
    assert main(["region", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "secrecy-exact"])
@pytest.mark.parametrize("flag,value,message", [
    ("--delta", "nan", "delta must be a finite number"),
    ("--delta", "inf", "delta must be a finite number"),
    ("--delta", "-0.1", "delta must be a finite number"),
    ("--epsilon", "nan", "epsilon must lie"),
    ("--seed", "-1", "seed must be >= 0")])
def test_bad_number_is_a_usage_error(command, flag, value, message, xor_file, capsys):
    argv = [command, "--pmf", xor_file, "--scheme", "pointP", "--n", "4",
            "--trials", "2", "--epsilon", "0.5", "--delta", "0.02", flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["simulate", "secrecy-exact"])
@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "error: n must be >= 1, got 0"),
    ("--n", "-2", "error: n must be >= 1, got -2"),
    ("--sweep", "4,4", "error: argument --sweep: repeated blocklength in sweep list '4,4'"),
    ("--sweep", "4,x", "error: argument --sweep: bad sweep list '4,x'"),
    ("--sweep", "0", "error: argument --sweep: bad sweep list '0'")])
def test_bad_blocklength_is_a_usage_error(command, flag, value, message, xor_file, capsys):
    argv = [command, "--pmf", xor_file, "--scheme", "pointP", "--trials", "2",
            "--epsilon", "0.5", "--delta", "0.02", flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:     # argparse refuses a bad --sweep list
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("parts", ["pointP", "pointP,pointZ", "pointP,timeshare"])
def test_bad_ts_schemes_is_a_usage_error(parts, xor_file, capsys):
    argv = ["simulate", "--pmf", xor_file, "--scheme", "timeshare", "--n", "4",
            "--trials", "2", "--epsilon", "0.5", "--delta", "0.02", "--ts-schemes", parts]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --ts-schemes expects two of")


@pytest.mark.parametrize("flag,value,message", [
    ("--epsilon", "nan", "epsilon must lie"), ("--seed", "-1", "seed must be >= 0"),
    ("--delta", "-0.5", "delta must be a finite number >= 0")])
def test_lemma1_rejects_bad_numbers(flag, value, message, xor_file, capsys):
    argv = ["lemma1", "--pmf", xor_file, "--n", "4", "--rs", "0.1", "--rz", "0.2",
            "--delta", "0.1", flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
