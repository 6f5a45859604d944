"""Command-line entry points, exercised in-process through main()."""

import json

import pytest

from fermiqec import __version__, cli, harness
from fermiqec.cli import main


def test_verify_single_suite_text(capsys):
    assert main(["verify", "--suite", "reference", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json_record(capsys):
    assert main(["verify", "--suite", "codes", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "verify"
    assert record["version"] == __version__
    assert record["seed"] == 0
    assert record["suites"] == ["codes"]
    assert record["passed"] is True
    assert all(
        set(c) == {"name", "passed", "detail"} and c["passed"]
        for c in record["checks"]
    )


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_syndrome_table_text(capsys):
    assert main(["syndrome-table"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s12  s23  correction"
    assert " +1   +1  none" in out
    assert any("pi phase on block mode 1" in line for line in out)
    assert out[-1] == "brute-forced table matches"


def test_syndrome_table_json(capsys):
    assert main(["syndrome-table", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "syndrome-table"
    assert record["matches_generated"] is True
    assert len(record["table"]) == 4
    offsets = {
        (row["s12"], row["s23"]): row["mode_offset"] for row in record["table"]
    }
    assert offsets[(1, 1)] is None
    assert offsets[(-1, 1)] == 0
    assert offsets[(-1, -1)] == 1
    assert offsets[(1, -1)] == 2


def test_exchange_rejects_bad_probability_lists(monkeypatch, capsys):
    for bad in ("abc", "0.1,,0.2"):
        with pytest.raises(SystemExit) as exc:
            main(["exchange", "--p", bad, "--shots", "1"])
        assert exc.value.code == 2

    def no_shots(*args):
        raise AssertionError("a shot ran before the probabilities were checked")

    monkeypatch.setattr(harness, "_run_shot_range", no_shots)
    capsys.readouterr()
    assert main(["exchange", "--p", "1.5", "--shots", "1"]) == 2
    assert capsys.readouterr().err == "error: error probabilities must lie in [0, 1]\n"


def test_exchange_integers_are_checked_by_the_config(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exchange", "--p", "0.1", "--shots", "abc"])
    assert exc.value.code == 2

    def no_shots(*args):
        raise AssertionError("a shot ran before the integers were checked")

    monkeypatch.setattr(harness, "_run_shot_range", no_shots)
    capsys.readouterr()
    for flag, value, message in (
        ("--shots", "0", "shots must be positive"),
        ("--layers", "-1", "num_error_layers must be non-negative"),
        ("--seed", "-1", "seed must be non-negative"),
        ("--threads", "0", "threads must be positive"),
    ):
        assert main(["exchange", "--p", "0.1", flag, value]) == 2, flag
        assert capsys.readouterr().err == f"error: {message}\n"


def test_exchange_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "points.csv"
    json_path = tmp_path / "run.json"
    code = main(
        [
            "exchange",
            "--p", "0",
            "--shots", "3",
            "--layers", "1",
            "--seed", "8",
            "--out", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "p=0  estimate=-1.000000" in out
    assert "(shots=3, corrected)" in out

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,shots,layers,corrected,estimate,ci_lo,ci_hi,seed"
    assert lines[1].startswith("0.0,3,1,true,-1.0,")
    assert lines[1].endswith(",8")

    record = json.loads(json_path.read_text())
    assert record["command"] == "exchange"
    assert record["version"] == __version__
    assert record["config"]["p_values"] == [0.0]
    assert record["config"]["confidence"] == 0.99
    assert record["results"][0]["estimate"] == -1.0
    assert record["results"][0]["count_minus"] == 0


def test_exchange_records_its_confidence(tmp_path, capsys):
    json_path = tmp_path / "run.json"
    argv = ["exchange", "--p", "0", "--shots", "2", "--confidence", "0.9"]
    assert main([*argv, "--json", str(json_path)]) == 0
    assert "90% CI" in capsys.readouterr().out
    assert json.loads(json_path.read_text())["config"]["confidence"] == 0.9


def test_exchange_uncorrected_label(capsys):
    assert main(["exchange", "--p", "0", "--shots", "2", "--no-correct"]) == 0
    assert "uncorrected" in capsys.readouterr().out


def test_runtime_value_errors_exit_cleanly(capsys):
    code = main(["exchange", "--p", "0", "--shots", "1", "--confidence", "1.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_confidence_fails_before_any_shot(monkeypatch, capsys):
    def no_shots(*args):
        raise AssertionError("a shot ran before the confidence was checked")

    monkeypatch.setattr(harness, "_run_shot_range", no_shots)
    argv = ["exchange", "--p", "0.01", "--shots", "512", "--confidence", "1.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "confidence" in err


def test_an_unwritable_output_path_fails_before_any_shot(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    missing = tmp_path / "nodir" / "x"
    for flag in ("--out", "--json"):
        argv = ["exchange", "--p", "0.01", "--shots", "300", flag, str(missing)]
        assert main(argv) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}: "), flag
    assert not missing.parent.exists()


def test_a_run_refused_after_the_path_check_leaves_no_file(tmp_path, capsys):
    fresh = tmp_path / "fresh.csv"
    argv = ["exchange", "--p", "0.01", "--threads", "0", "--out", str(fresh)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: threads must be positive\n"
    assert not fresh.exists()


def test_an_existing_output_file_is_replaced_not_appended(tmp_path, capsys):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("old contents\n" * 40)
    argv = ["exchange", "--p", "0", "--shots", "2", "--out", str(csv_path)]
    assert main(argv) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,shots,layers,corrected,estimate,ci_lo,ci_hi,seed"
    assert len(lines) == 2
