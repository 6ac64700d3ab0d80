"""Systems, validation, and ingestion from counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrum import (
    ChoiceCountDataset,
    DuplicateCell,
    EmptySubsetNoSmoothing,
    InconsistentDimensions,
    MissingCell,
    NormalizationViolation,
    OutOfRange,
    OutOfRangeProbability,
    SeededRng,
    as_mask,
    exact_fraction,
    from_counts,
    members,
    new_system,
    pair_complement_check,
    uniform_system,
    validate,
)
from bwrum.core import assemble_system, choice_subsets, ordered_pairs, required_cells

from conftest import random_valid_system


def _pair_entries(p):
    q = Fraction(1) - exact_fraction(p)
    return [(0b11, (0, 1), p), (0b11, (1, 0), q)]


class TestExactFraction:
    def test_float_goes_through_decimal_repr(self):
        assert exact_fraction(0.6) == Fraction(3, 5)
        assert exact_fraction(0.1) == Fraction(1, 10)

    def test_strings(self):
        assert exact_fraction("1/6") == Fraction(1, 6)
        assert exact_fraction(" 0.25 ") == Fraction(1, 4)

    def test_int_and_fraction_pass_through(self):
        assert exact_fraction(1) == Fraction(1)
        f = Fraction(2, 7)
        assert exact_fraction(f) is f

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            exact_fraction(object())


class TestMasks:
    def test_as_mask_round_trip(self):
        assert as_mask([0, 2], 3) == 0b101
        assert members(0b101) == (0, 2)
        assert as_mask(0b101, 3) == 0b101

    def test_as_mask_rejects_out_of_range(self):
        with pytest.raises(InconsistentDimensions):
            as_mask([3], 3)
        with pytest.raises(InconsistentDimensions):
            as_mask(1 << 3, 3)

    def test_choice_subsets_count(self):
        for n in range(2, 7):
            assert len(list(choice_subsets(n))) == 2**n - n - 1

    def test_choice_subsets_ascending_size(self):
        sizes = [bin(mask).count("1") for mask in choice_subsets(5)]
        assert sizes == sorted(sizes)


class TestNewSystem:
    def test_minimal_pair_system(self):
        system = new_system(2, _pair_entries(Fraction(1, 3)))
        assert system.prob([0, 1], 0, 1) == Fraction(1, 3)
        assert system.prob([0, 1], 1, 0) == Fraction(2, 3)

    def test_missing_cell(self):
        with pytest.raises(MissingCell):
            new_system(2, _pair_entries(Fraction(1, 3))[:1])

    def test_duplicate_cell(self):
        entries = _pair_entries(Fraction(1, 2)) + [(0b11, (0, 1), Fraction(1, 2))]
        with pytest.raises(DuplicateCell):
            new_system(2, entries)

    def test_normalization(self):
        with pytest.raises(NormalizationViolation):
            new_system(2, [(0b11, (0, 1), "1/3"), (0b11, (1, 0), "1/3")])

    def test_range(self):
        with pytest.raises(OutOfRangeProbability):
            new_system(2, [(0b11, (0, 1), "3/2"), (0b11, (1, 0), "-1/2")])

    def test_membership(self):
        with pytest.raises(InconsistentDimensions):
            new_system(2, [(0b11, (0, 0), 1)])

    def test_size_floor(self):
        with pytest.raises(InconsistentDimensions):
            new_system(1, [])

    def test_size_cap_is_enforced(self):
        with pytest.raises(OutOfRange):
            new_system(11, [])


class TestValidate:
    def test_reports_instead_of_raising(self):
        system = assemble_system(2, [(0b11, (0, 1), "2/3"), (0b11, (1, 0), "2/3")])
        report = validate(system)
        assert not report.ok
        assert report.sum_violations == ((0b11, Fraction(1, 3)),)
        assert report.range_violations == ()

    def test_range_violations_reported(self):
        system = assemble_system(2, [(0b11, (0, 1), "3/2"), (0b11, (1, 0), "-1/2")])
        report = validate(system)
        assert len(report.range_violations) == 2

    def test_clean_system_passes(self):
        assert validate(uniform_system(4)).ok

    def test_pair_complement(self):
        assert pair_complement_check(uniform_system(3))


class TestUniformSystem:
    def test_cells(self):
        system = uniform_system(4)
        full = 0b1111
        assert system.prob(full, 0, 3) == Fraction(1, 12)
        assert system.prob([0, 1], 1, 0) == Fraction(1, 2)
        assert system.prob([1, 2, 3], 2, 3) == Fraction(1, 6)


class TestFromCounts:
    def test_plug_in_frequencies(self):
        dataset = ChoiceCountDataset.build(
            2, [([0, 1], 0, 1, 30), ([0, 1], 1, 0, 10)]
        )
        result = from_counts(dataset)
        assert result.system.prob([0, 1], 0, 1) == Fraction(3, 4)
        assert result.unobserved_subsets == ()

    def test_smoothing_formula(self):
        dataset = ChoiceCountDataset.build(
            2, [([0, 1], 0, 1, 3), ([0, 1], 1, 0, 0)]
        )
        result = from_counts(dataset, 1)
        # (3 + 1) / (3 + 1 * 2) and (0 + 1) / 5
        assert result.system.prob([0, 1], 0, 1) == Fraction(4, 5)
        assert result.system.prob([0, 1], 1, 0) == Fraction(1, 5)

    def test_unobserved_subsets_filled_uniformly(self):
        dataset = ChoiceCountDataset.build(
            3, [([0, 1], 0, 1, 5), ([0, 1], 1, 0, 5)]
        )
        result = from_counts(dataset)
        assert set(result.unobserved_subsets) == {0b101, 0b110, 0b111}
        assert result.system.prob([0, 1, 2], 0, 2) == Fraction(1, 6)

    def test_zero_total_needs_smoothing(self):
        dataset = ChoiceCountDataset.build(
            2, [([0, 1], 0, 1, 0), ([0, 1], 1, 0, 0)]
        )
        with pytest.raises(EmptySubsetNoSmoothing):
            from_counts(dataset)
        result = from_counts(dataset, "1/2")
        assert result.system.prob([0, 1], 0, 1) == Fraction(1, 2)

    def test_negative_smoothing_rejected(self):
        dataset = ChoiceCountDataset.build(2, [([0, 1], 0, 1, 1), ([0, 1], 1, 0, 1)])
        with pytest.raises(OutOfRange):
            from_counts(dataset, -1)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange):
            ChoiceCountDataset.build(2, [([0, 1], 0, 1, -1)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(2, 4))
def test_random_valid_systems_validate(seed, n):
    system = random_valid_system(n, SeededRng(seed))
    report = validate(system)
    assert report.ok
    total_cells = sum(
        len(list(ordered_pairs(mask))) for mask in choice_subsets(n)
    )
    assert len(system.cells) == total_cells
    assert set(system.cells) == set(required_cells(n))


@settings(max_examples=20, deadline=None)
@given(
    counts=st.lists(st.integers(0, 50), min_size=6, max_size=6),
    smoothing=st.sampled_from([0, 1, Fraction(1, 2)]),
)
def test_counts_round_trip_normalizes(counts, smoothing):
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    records = [([0, 1, 2], a, b, c) for (a, b), c in zip(pairs, counts)]
    dataset = ChoiceCountDataset.build(3, records)
    if sum(counts) == 0 and smoothing == 0:
        with pytest.raises(EmptySubsetNoSmoothing):
            from_counts(dataset, smoothing)
        return
    result = from_counts(dataset, smoothing)
    assert validate(result.system).ok
