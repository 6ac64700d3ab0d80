"""End-to-end command behavior through run_command, in process."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bwrum import make_distribution, uniform_system
from bwrum.cli import SCHEMA, main, run_command
from bwrum.lp import LpResult
from bwrum.io import (
    counts_from_payload,
    design_to_payload,
    distribution_to_payload,
    dump_json,
    load_json,
    system_to_payload,
)

from test_polynomials import negative_pair_system, skewed_pair_system

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def uniform4_file(tmp_path):
    path = tmp_path / "uniform4.json"
    dump_json(system_to_payload(uniform_system(4)), path)
    return path


@pytest.fixture()
def negk3_file(tmp_path):
    path = tmp_path / "negk3.json"
    dump_json(system_to_payload(negative_pair_system(), ["1", "2", "3"]), path)
    return path


@pytest.fixture()
def gap_file(tmp_path):
    path = tmp_path / "gap.json"
    dump_json(system_to_payload(skewed_pair_system()), path)
    return path


@pytest.fixture()
def mixture_file(tmp_path):
    dist = make_distribution(
        3, {(0, 1, 2): Fraction(1, 2), (2, 1, 0): Fraction(1, 2)}
    )
    path = tmp_path / "mixture.json"
    dump_json(distribution_to_payload(dist), path)
    return path


def _assert_unwritable(argv, path):
    """An output path in a missing directory is an error report naming it."""
    code, report = run_command(argv)
    assert code == 1
    assert report["error"]["type"] == "OutputFileError"
    assert str(path) in report["error"]["message"]
    assert not path.exists()


def _ok(argv):
    code, report = run_command(argv)
    assert code == 0, report
    assert report["schema"] == SCHEMA
    return report


class TestValidate:
    def test_clean_file(self, uniform4_file):
        report = _ok(["validate", str(uniform4_file)])
        assert report["command"] == "validate"
        assert report["valid"] is True
        assert report["sum_violations"] == []
        assert report["range_violations"] == []
        assert report["pair_complement"] is True
        assert report["input"]["path"] == str(uniform4_file)
        assert len(report["input"]["sha256"]) == 64

    def test_bad_sums_exit_one_with_details(self, tmp_path):
        payload = system_to_payload(uniform_system(3))
        payload["subsets"][0]["probs"][0]["p"] = "5/6"
        path = tmp_path / "bad.json"
        dump_json(payload, path)
        code, report = run_command(["validate", str(path)])
        assert code == 1
        assert report["valid"] is False
        assert report["sum_violations"][0]["deviation"] == "1/3"

    def test_wrongly_typed_field_is_an_input_error(self, tmp_path):
        path = tmp_path / "typed.json"
        dump_json({"n": 2, "subsets": 5}, path)
        code, report = run_command(["validate", str(path)])
        assert code == 65
        assert report["error"]["type"] == "InputFileError"


class TestIngest:
    def test_counts_become_a_system(self, tmp_path):
        counts = {
            "n": 3,
            "records": [
                {"members": [0, 1], "best": 0, "worst": 1, "count": 3},
                {"members": [0, 1], "best": 1, "worst": 0, "count": 1},
            ],
        }
        path = tmp_path / "counts.json"
        dump_json(counts, path)
        report = _ok(["ingest", str(path), "--smoothing", "1"])
        assert report["smoothing"] == "1/1"
        assert report["unobserved_subsets"] == [[0, 2], [1, 2], [0, 1, 2]]
        system_payload = report["system"]
        pair = system_payload["subsets"][0]
        assert pair["members"] == [0, 1]
        assert pair["probs"][0] == {"best": 0, "worst": 1, "p": "2/3"}


class TestPoly:
    def test_uniform_table(self, uniform4_file):
        report = _ok(["poly", str(uniform4_file)])
        assert len(report["polynomials"]) == 48
        by_size = {0: "1/12", 1: "1/12", 2: "1/4"}
        for row in report["polynomials"]:
            assert row["K"] == by_size[len(row["context"])]

    def test_csv_sidecar(self, uniform4_file, tmp_path):
        csv_path = tmp_path / "table.csv"
        report = _ok(["poly", str(uniform4_file), "--csv", str(csv_path)])
        assert report["csv_written"] == str(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "best,worst,context,K"
        assert len(lines) == 49
        assert any(",2 3," in line for line in lines)


    def test_unwritable_csv_is_an_error_report(self, uniform4_file, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        _assert_unwritable(["poly", str(uniform4_file), "--csv", str(path)], path)


class TestCheck:
    def test_representable(self, uniform4_file):
        report = _ok(["check", str(uniform4_file)])
        assert report["verdict"] == "Representable"
        assert report["approximate"] is False
        assert report["negatives"] == []
        assert "witness" not in report

    def test_witness_attached_and_verified(self, uniform4_file):
        report = _ok(["check", str(uniform4_file), "--witness"])
        assert report["witness_verified"] is True
        assert len(report["witness"]) == 24
        assert all(row["mass"] == "1/24" for row in report["witness"])

    def test_negative_certificate_uses_labels(self, negk3_file):
        code, report = run_command(["check", str(negk3_file)])
        assert code == 2
        assert report["verdict"] == "NotRepresentable"
        assert report["negatives"] == [
            {"best": "1", "worst": "2", "context": ["3"], "K": "-1/6"}
        ]

    def test_tolerance_flips_the_verdict_approximately(self, negk3_file):
        report = _ok(["check", str(negk3_file), "--tolerance", "1/6"])
        assert report["verdict"] == "Representable"
        assert report["approximate"] is True

    def test_sign_test_gap_is_caught_by_witness(self, gap_file):
        report = _ok(["check", str(gap_file)])
        assert report["verdict"] == "Representable"
        code, report = run_command(["check", str(gap_file), "--witness"])
        assert code == 2
        assert report["verdict"] == "NotRepresentable"
        assert "witness_error" in report


class TestConstruct:
    def test_default_method_builds_and_verifies(self, uniform4_file):
        report = _ok(["construct", str(uniform4_file)])
        assert report["verdicts"] == {"declarative": "Representable"}
        assert report["methods_agree"] is True
        assert report["verified"] is True
        assert len(report["distribution"]) == 24

    def test_both_methods_agree_on_uniform(self, uniform4_file):
        report = _ok(["construct", str(uniform4_file), "--method", "both"])
        assert report["verdicts"] == {
            "declarative": "Representable",
            "lp": "Representable",
        }
        assert report["verified"] is True

    def test_lp_only(self, uniform4_file):
        report = _ok(["construct", str(uniform4_file), "--method", "lp"])
        assert report["verdicts"] == {"lp": "Representable"}
        assert report["verified"] is True

    def test_negative_system_exits_two_with_agreement(self, negk3_file):
        code, report = run_command(["construct", str(negk3_file), "--method", "both"])
        assert code == 2
        assert report["verdict"] == "NotRepresentable"
        assert report["methods_agree"] is True
        assert report["distribution"] is None
        assert report["messages"]

    def test_gap_system_exits_two_under_both_methods(self, gap_file):
        code, report = run_command(["construct", str(gap_file), "--method", "both"])
        assert code == 2
        assert report["verdicts"] == {
            "declarative": "NotRepresentable",
            "lp": "NotRepresentable",
        }

    @pytest.mark.parametrize("method", ["lp", "both"])
    def test_wrong_witness_is_a_construction_mismatch(self, uniform4_file, monkeypatch, method):
        wrong = make_distribution(4, {(0, 1, 2, 3): 1})
        monkeypatch.setattr(
            "bwrum.cli.lp_feasibility_oracle",
            lambda system: LpResult(feasible=True, distribution=wrong, method="presolve"),
        )
        code, report = run_command(["construct", str(uniform4_file), "--method", method])
        assert code == 1
        assert report["verdict"] == "Representable"
        assert report["verified"] is False


class TestForward:
    def test_induced_system_round_trips(self, mixture_file):
        report = _ok(["forward", str(mixture_file)])
        assert report["support_size"] == 2
        triple = next(
            s for s in report["system"]["subsets"] if len(s["members"]) == 3
        )
        probs = {(p["best"], p["worst"]): p["p"] for p in triple["probs"]}
        assert probs[(0, 2)] == "1/2"
        assert probs[(2, 0)] == "1/2"
        assert probs[(0, 1)] == "0/1"


class TestPattern:
    def test_count_with_labels(self):
        report = _ok(
            [
                "pattern",
                "--n",
                "5",
                "--labels",
                "p,q,r,u,v",
                "--prefix",
                "p",
                "--ground",
                "p,q,r",
                "--suffix",
                "q",
            ]
        )
        assert report["count"] == 20
        assert report["pattern"]["ground"] == ["p", "q", "r"]
        assert "rankings" not in report

    def test_list_without_labels(self):
        report = _ok(
            ["pattern", "--n", "3", "--ground", "0,1,2", "--prefix", "0", "--suffix", "2", "--list"]
        )
        assert report["count"] == 1
        assert report["rankings"] == [[0, 1, 2]]

    def test_bad_tokens_are_usage_errors(self):
        code, report = run_command(
            ["pattern", "--n", "3", "--ground", "0,zebra"]
        )
        assert code == 64
        assert report["error"]["type"] == "UsageError"

    def test_overlapping_prefix_suffix_is_usage(self):
        code, _ = run_command(
            ["pattern", "--n", "3", "--ground", "0,1", "--prefix", "0", "--suffix", "0"]
        )
        assert code == 64

    def test_count_and_list_are_exclusive(self):
        code, _ = run_command(
            ["pattern", "--n", "3", "--ground", "0,1", "--count", "--list"]
        )
        assert code == 64

    def test_size_is_refused_before_any_ranking_is_listed(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerate_pattern was called")

        monkeypatch.setattr("bwrum.cli.enumerate_pattern", never)
        code, report = run_command(["pattern", "--n", "10", "--ground", ""])
        assert code == 64
        assert report["error"]["type"] == "UsageError"


class TestSimulate:
    def _files(self, tmp_path):
        dist = make_distribution(3, {(0, 1, 2): Fraction(1, 2), (1, 0, 2): Fraction(1, 2)})
        dist_path = tmp_path / "dist.json"
        dump_json(distribution_to_payload(dist), dist_path)
        design_path = tmp_path / "design.json"
        dump_json(design_to_payload([({0, 1}, 12), ({0, 1, 2}, 8)], 3), design_path)
        return dist_path, design_path

    def test_counts_and_determinism(self, tmp_path):
        dist_path, design_path = self._files(tmp_path)
        argv = ["simulate", str(dist_path), "--design", str(design_path), "--seed", "11"]
        first = _ok(argv)
        second = _ok(argv)
        assert first["counts"] == second["counts"]
        assert first["total_trials"] == 20
        dataset, _ = counts_from_payload(first["counts"])
        assert sum(c for *_, c in dataset.records) == 20

    def test_out_writes_the_counts_payload(self, tmp_path):
        dist_path, design_path = self._files(tmp_path)
        out = tmp_path / "counts.json"
        report = _ok(
            [
                "simulate",
                str(dist_path),
                "--design",
                str(design_path),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert report["written"] == str(out)
        dataset, _ = counts_from_payload(load_json(out))
        assert dataset.n == 3


    def test_unwritable_out_is_an_error_report(self, tmp_path):
        dist_path, design_path = self._files(tmp_path)
        path = tmp_path / "missing" / "x.json"
        argv = ["simulate", str(dist_path), "--design", str(design_path), "--seed", "3"]
        _assert_unwritable(argv + ["--out", str(path)], path)


class TestDemo:
    def test_matches_golden_report(self):
        code, report = run_command(["demo", "--n", "4", "--seed", "7"])
        assert code == 0
        report.pop("timing_ms")
        golden = json.loads((DATA / "demo_n4_seed7.json").read_text())
        assert report == golden

    def test_round_trip_flag_gates_the_exit_code(self):
        code, report = run_command(["demo", "--n", "3", "--seed", "123"])
        assert report["round_trip"] is (code == 0)
        assert report["witness_verified"] is True

    def test_size_is_refused_before_any_distribution_is_drawn(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("random_distribution was called")

        monkeypatch.setattr("bwrum.cli.random_distribution", never)
        code, report = run_command(["demo", "--n", "7"])
        assert code == 1
        assert report["error"]["type"] == "DimensionTooLarge"

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # The reader closes its end before the report is printed, as
        # ``bwrum demo | head`` does once it has its lines.
        src = Path(__file__).parent.parent / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from bwrum.cli import main; main()", "demo", "--n", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == ""


class TestFixtureCommand:
    def test_writes_into_directory(self, tmp_path):
        report = _ok(["fixture", "negk3", "--out-dir", str(tmp_path)])
        written = report["written"]
        assert written == [str(tmp_path / "negk3.json")]
        assert load_json(written[0])["labels"] == ["1", "2", "3"]

    def test_uniform_size(self, tmp_path):
        report = _ok(["fixture", "uniform_n", "--out-dir", str(tmp_path), "--n", "3"])
        assert report["written"] == [str(tmp_path / "uniform3.json")]

    def test_unknown_name_is_usage(self, tmp_path):
        code, _ = run_command(["fixture", "mystery", "--out-dir", str(tmp_path)])
        assert code == 64

    def test_misplaced_size_is_operational(self, tmp_path):
        code, report = run_command(
            ["fixture", "example1", "--out-dir", str(tmp_path), "--n", "5"]
        )
        assert code == 1
        assert report["error"]["type"] == "OutOfRange"


class TestEnvelope:
    def test_missing_file_is_65(self):
        code, report = run_command(["check", "/nonexistent/system.json"])
        assert code == 65
        assert report["error"]["type"] == "InputFileError"

    def test_no_arguments_is_usage(self):
        code, report = run_command([])
        assert code == 64
        assert report["error"]["type"] == "UsageError"

    def test_unknown_subcommand_is_usage(self):
        code, _ = run_command(["frobnicate"])
        assert code == 64

    def test_help_exits_zero_without_report(self, capsys):
        code, report = run_command(["--help"])
        assert code == 0
        assert report is None
        assert "bwrum" in capsys.readouterr().out

    def test_out_writes_the_report(self, uniform4_file, tmp_path):
        out = tmp_path / "report.json"
        report = _ok(["check", str(uniform4_file), "--out", str(out)])
        assert report["written_to"] == str(out)
        stored = load_json(out)
        assert stored["schema"] == SCHEMA
        assert stored["verdict"] == "Representable"

    def test_unwritable_out_is_an_error_report(self, uniform4_file, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        _assert_unwritable(["check", str(uniform4_file), "--out", str(path)], path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(uniform4_file), "--out", str(path)])
        assert excinfo.value.code == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["error"]["type"] == "OutputFileError"

    def test_main_prints_json_and_exits(self, uniform4_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(uniform4_file)])
        assert excinfo.value.code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["command"] == "check"

    def test_main_is_quiet_when_writing_to_file(self, uniform4_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(uniform4_file), "--out", str(out)])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == ""
