"""JSON payload round trips, label resolution, and file digests."""

from fractions import Fraction

import pytest

from bwrum import InputFileError, make_distribution, uniform_system, validate
from bwrum.core import ChoiceCountDataset, assemble_system
from bwrum.io import (
    Labeler,
    argument_digest,
    counts_from_payload,
    counts_to_payload,
    design_from_payload,
    design_to_payload,
    distribution_from_payload,
    distribution_to_payload,
    dump_json,
    fraction_str,
    input_digest,
    load_json,
    parse_fraction,
    system_from_payload,
    system_to_payload,
)

from conftest import random_induced


class TestFractions:
    def test_fraction_strings(self):
        assert fraction_str(Fraction(1, 6)) == "1/6"
        assert fraction_str(Fraction(0)) == "0/1"
        assert parse_fraction("1/6") == Fraction(1, 6)
        assert parse_fraction(0.6) == Fraction(3, 5)
        assert parse_fraction(1) == Fraction(1)

    def test_parse_failures_are_input_errors(self):
        with pytest.raises(InputFileError):
            parse_fraction("one half")
        with pytest.raises(InputFileError):
            parse_fraction("1/0")
        with pytest.raises(InputFileError):
            parse_fraction(None)


class TestLabeler:
    def test_names_and_resolution(self):
        labeler = Labeler(3, ["x", "y", "z"])
        assert labeler.name(0) == "x"
        assert labeler.names([2, 0]) == ["z", "x"]
        assert labeler.resolve("y") == 1
        assert labeler.resolve(2) == 2
        assert labeler.resolve_all(["z", 0]) == [2, 0]

    def test_unlabeled_passes_integers_and_digit_strings(self):
        labeler = Labeler(3, None)
        assert labeler.name(1) == 1
        assert labeler.resolve("2") == 2
        assert labeler.resolve(0) == 0

    def test_rejects_bad_labels_and_tokens(self):
        with pytest.raises(InputFileError):
            Labeler(3, ["a", "b"])
        with pytest.raises(InputFileError):
            Labeler(3, ["a", "b", "a"])
        labeler = Labeler(3, ["a", "b", "c"])
        with pytest.raises(InputFileError):
            labeler.resolve("d")
        with pytest.raises(InputFileError):
            labeler.resolve(3)
        with pytest.raises(InputFileError):
            labeler.resolve(True)
        with pytest.raises(InputFileError):
            labeler.resolve("²")


class TestSystemPayloads:
    def test_round_trip_with_labels(self):
        system = uniform_system(3)
        payload = system_to_payload(system, ["red", "green", "blue"])
        assert payload["labels"] == ["red", "green", "blue"]
        back, labels = system_from_payload(payload)
        assert labels == ["red", "green", "blue"]
        assert back.cells == system.cells

    def test_round_trip_of_random_induced_system(self):
        _, system = random_induced(4, 17)
        back, labels = system_from_payload(system_to_payload(system))
        assert labels is None
        assert back.cells == system.cells

    def test_strict_load_rejects_bad_values(self):
        from bwrum import OutOfRangeProbability

        system = uniform_system(3)
        payload = system_to_payload(system)
        payload["subsets"][0]["probs"][0]["p"] = "2/1"
        with pytest.raises(OutOfRangeProbability):
            system_from_payload(payload)

    def test_lenient_load_defers_to_validate(self):
        system = uniform_system(3)
        payload = system_to_payload(system)
        payload["subsets"][0]["probs"][0]["p"] = "2/1"
        loaded, _ = system_from_payload(payload, lenient=True)
        report = validate(loaded)
        assert not report.ok

    def test_missing_fields_are_reported(self):
        with pytest.raises(InputFileError, match="'n'"):
            system_from_payload({"subsets": []})
        with pytest.raises(InputFileError, match="'subsets'"):
            system_from_payload({"n": 3})
        with pytest.raises(InputFileError):
            system_from_payload({"n": 1, "subsets": []})
        # Fields of the wrong JSON type are reported, not crashed on.
        for payload in (
            {"n": 2, "subsets": 5},
            {"n": 2, "subsets": [5]},
            {"n": 2, "subsets": [{"members": "01", "probs": []}]},
            {"n": 2, "subsets": [{"members": [0, 1], "probs": 5}]},
            {"n": 2, "labels": 5, "subsets": []},
            {"n": 2, "labels": "ab", "subsets": []},
        ):
            with pytest.raises(InputFileError):
                system_from_payload(payload)

    def test_incomplete_cell_set_is_an_input_error(self):
        payload = system_to_payload(uniform_system(3))
        payload["subsets"] = payload["subsets"][:1]
        with pytest.raises(InputFileError):
            system_from_payload(payload)


class TestCountPayloads:
    def test_round_trip_with_labels(self):
        dataset = ChoiceCountDataset.build(
            3, [({0, 1}, 0, 1, 4), ({0, 1}, 1, 0, 6), ({0, 1, 2}, 2, 0, 1)]
        )
        payload = counts_to_payload(dataset, ["a", "b", "c"])
        back, labels = counts_from_payload(payload)
        assert back.records == dataset.records
        assert labels == ["a", "b", "c"]

    def test_count_must_be_integer(self):
        payload = {
            "n": 2,
            "records": [{"members": [0, 1], "best": 0, "worst": 1, "count": "4"}],
        }
        with pytest.raises(InputFileError):
            counts_from_payload(payload)

    def test_wrongly_typed_fields_are_input_errors(self):
        record = {"members": [0, 1], "best": 0, "worst": 1, "count": 4}
        for payload in (
            {"n": 2, "records": 5},
            {"n": 2, "records": [5]},
            {"n": 2, "records": [dict(record, members="01")]},
            {"n": 2, "labels": "ab", "records": [record]},
            {"n": 2, "labels": ["a", 1], "records": [record]},
        ):
            with pytest.raises(InputFileError):
                counts_from_payload(payload)


class TestDistributionPayloads:
    def test_round_trip(self):
        dist = make_distribution(
            3, {(0, 1, 2): Fraction(2, 3), (2, 1, 0): Fraction(1, 3)}
        )
        back, labels = distribution_from_payload(distribution_to_payload(dist))
        assert back.mass == dist.mass
        assert labels is None

    def test_duplicate_rankings_accumulate(self):
        payload = {
            "n": 2,
            "distribution": [
                {"ranking": [0, 1], "mass": "1/4"},
                {"ranking": [0, 1], "mass": "1/4"},
                {"ranking": [1, 0], "mass": "1/2"},
            ],
        }
        dist, _ = distribution_from_payload(payload)
        assert dist.mass == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_labels_resolve_in_rankings(self):
        payload = {
            "n": 2,
            "labels": ["left", "right"],
            "distribution": [{"ranking": ["right", "left"], "mass": "1/1"}],
        }
        dist, labels = distribution_from_payload(payload)
        assert dist.mass == {(1, 0): Fraction(1)}
        assert labels == ["left", "right"]


class TestDesignPayloads:
    def test_round_trip(self):
        design = [(0b011, 10), (0b111, 0)]
        payload = design_to_payload(design, 3)
        assert design_from_payload(payload, 3, None) == design

    def test_trials_must_be_nonnegative_integers(self):
        payload = {"design": [{"members": [0, 1], "trials": -2}]}
        with pytest.raises(InputFileError):
            design_from_payload(payload, 3, None)
        payload = {"design": [{"members": [0, 1], "trials": 1.5}]}
        with pytest.raises(InputFileError):
            design_from_payload(payload, 3, None)


class TestFilesAndDigests:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "system.json"
        payload = system_to_payload(uniform_system(3))
        dump_json(payload, path)
        assert load_json(path) == payload
        assert path.read_text().endswith("\n")

    def test_load_failures(self, tmp_path):
        with pytest.raises(InputFileError):
            load_json(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(InputFileError):
            load_json(bad)
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(InputFileError):
            load_json(array)

    def test_digests_are_stable_content_hashes(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"n": 2}')
        first = input_digest(path)
        assert first == input_digest(path)
        assert len(first) == 64
        path.write_text('{"n": 3}')
        assert input_digest(path) != first

    def test_argument_digest_separates_parts(self):
        assert argument_digest(["ab", "c"]) != argument_digest(["a", "bc"])
        assert argument_digest(["x"]) == argument_digest(["x"])


def test_assemble_system_accepts_what_new_system_rejects():
    entries = [(0b11, (0, 1), Fraction(2)), (0b11, (1, 0), Fraction(-1))]
    loose = assemble_system(2, entries)
    report = validate(loose)
    assert not report.ok
    assert report.range_violations
