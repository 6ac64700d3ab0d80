"""Lattice transforms, the sign test, and the alternating inequality family."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrum import (
    InvalidContext,
    OutOfRange,
    SeededRng,
    WitnessConstructionFailed,
    all_polynomials,
    bm_polynomial,
    check_representable,
    falmagne_inequality,
    moebius_reconstruct,
    new_system,
    uniform_system,
)
from bwrum.core import choice_subsets, full_mask, iter_submasks, ordered_pairs, popcount

from conftest import random_induced, random_valid_system


def negative_pair_system():
    """Uniform at n=3 except the (0, 1) pair cell collapses to zero."""
    entries = []
    for mask in choice_subsets(3):
        for a, b in ordered_pairs(mask):
            if mask == 0b011:
                value = Fraction(1 if (a, b) == (1, 0) else 0)
            elif popcount(mask) == 2:
                value = Fraction(1, 2)
            else:
                value = Fraction(1, 6)
            entries.append((mask, (a, b), value))
    return new_system(3, entries)


def skewed_pair_system():
    """Uniform triple cells with one badly skewed pair subset.

    Every polynomial value is nonnegative, yet uniform triple cells pin
    each ranking's mass at 1/6, which puts 1/2 on the (0, 1) pair cell
    instead of the stored 4/5.  No witness distribution exists.
    """
    entries = []
    for mask in choice_subsets(3):
        for a, b in ordered_pairs(mask):
            if popcount(mask) == 3:
                value = Fraction(1, 6)
            elif mask == 0b011:
                value = Fraction(4, 5) if (a, b) == (0, 1) else Fraction(1, 5)
            else:
                value = Fraction(1, 2)
            entries.append((mask, (a, b), value))
    return new_system(3, entries)


class TestPolynomialValues:
    def test_uniform_four_by_context_size(self):
        table = all_polynomials(uniform_system(4))
        expected = {0: Fraction(1, 12), 1: Fraction(1, 12), 2: Fraction(1, 4)}
        assert len(table.values) == 12 * 4
        for a, b, mask, value in table.items_sorted():
            assert value == expected[popcount(mask)], (a, b, mask)

    def test_value_accessor_matches_direct_sum(self):
        system = uniform_system(4)
        table = all_polynomials(system)
        assert table.value(0, 1, [2, 3]) == Fraction(1, 4)
        assert table.value(0, 1, ()) == bm_polynomial(system, 0, 1, ())

    def test_value_accessor_rejects_bad_contexts(self):
        table = all_polynomials(uniform_system(3))
        with pytest.raises(InvalidContext):
            table.value(0, 0, ())
        with pytest.raises(InvalidContext):
            table.value(0, 1, [1])
        with pytest.raises(InvalidContext):
            table.value(0, 4, ())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(2, 4))
    def test_recurrence_agrees_with_direct_sum(self, seed, n):
        system = random_valid_system(n, SeededRng(seed))
        for (a, b, mask), value in all_polynomials(system).values.items():
            assert value == bm_polynomial(system, a, b, mask)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(2, 4))
    def test_inversion_recovers_every_cell(self, seed, n):
        system = random_valid_system(n, SeededRng(seed))
        table = all_polynomials(system)
        base = full_mask(n)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                rest = base & ~(1 << a) & ~(1 << b)
                for context in iter_submasks(rest):
                    recovered = moebius_reconstruct(table, a, b, context)
                    assert recovered == system.prob(base & ~context, a, b)


class TestSignTest:
    def test_uniform_system_is_representable_with_verified_witness(self):
        report = check_representable(uniform_system(4), construct_witness=True)
        assert report.representable
        assert report.verdict == "Representable"
        assert not report.approximate
        assert report.negatives == ()
        assert report.witness_verified is True
        assert len(report.witness.mass) == 24
        assert all(p == Fraction(1, 24) for p in report.witness.mass.values())

    def test_induced_distributions_always_pass(self):
        for n, seed in ((3, 11), (4, 12), (4, 13)):
            _, system = random_induced(n, seed)
            report = check_representable(system)
            assert report.representable, (n, seed)
            assert report.witness is None

    def test_negative_value_is_certified(self):
        report = check_representable(negative_pair_system())
        assert not report.representable
        assert report.verdict == "NotRepresentable"
        assert report.negatives == ((0, 1, 0b100, Fraction(-1, 6)),)
        assert report.most_negative == (0, 1, 0b100, Fraction(-1, 6))

    def test_tolerance_only_flags_values_below_it(self):
        system = negative_pair_system()
        forgiving = check_representable(system, tolerance=Fraction(1, 6))
        assert forgiving.representable
        assert forgiving.approximate
        assert forgiving.negatives == ()
        strict = check_representable(system, tolerance=Fraction(1, 7))
        assert not strict.representable
        assert strict.approximate
        with pytest.raises(OutOfRange):
            check_representable(system, tolerance=Fraction(-1, 10))

    def test_sign_test_alone_does_not_imply_a_witness(self):
        system = skewed_pair_system()
        assert check_representable(system).representable
        with pytest.raises(WitnessConstructionFailed):
            check_representable(system, construct_witness=True)


class TestInequalityFamily:
    def test_empty_family_is_the_bare_probability(self):
        system = uniform_system(4)
        assert falmagne_inequality(system, 0, 1, {0, 1}, []) == Fraction(1, 2)

    def test_family_with_empty_member_cancels_to_zero(self):
        system = uniform_system(4)
        assert falmagne_inequality(system, 0, 1, {0, 1}, [()]) == 0

    def test_singleton_family_is_a_difference(self):
        system = uniform_system(4)
        value = falmagne_inequality(system, 0, 1, {0, 1}, [{2}])
        assert value == Fraction(1, 2) - Fraction(1, 6)

    def test_singleton_members_reduce_to_the_polynomial(self):
        system = uniform_system(4)
        value = falmagne_inequality(system, 0, 1, {0, 1}, [{2}, {3}])
        assert value == all_polynomials(system).value(0, 1, {2, 3})
        assert value == Fraction(1, 4)

    def test_rejects_malformed_arguments(self):
        system = uniform_system(3)
        with pytest.raises(InvalidContext):
            falmagne_inequality(system, 0, 0, {0, 1}, [])
        with pytest.raises(InvalidContext):
            falmagne_inequality(system, 0, 2, {0, 1}, [])
        with pytest.raises(InvalidContext):
            falmagne_inequality(system, 0, 1, {0, 1}, [{0, 1, 2}])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        masks=st.lists(st.integers(0, 14), max_size=3),
    )
    def test_nonnegative_under_any_representation(self, seed, masks):
        _, system = random_induced(4, seed)
        assert falmagne_inequality(system, 0, 1, {0, 1}, masks) >= 0
