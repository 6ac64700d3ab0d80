"""Witness construction, the forward oracle, and symmetrisation of witnesses."""

import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrum import (
    LP_MAX_N,
    ConstructionInconsistent,
    DimensionTooLarge,
    InconsistentDimensions,
    InvalidContext,
    MalformedPattern,
    NormalizationViolation,
    NotRepresentable,
    OutOfRangeProbability,
    all_rankings,
    build_construction,
    build_distribution,
    bw_from_distribution,
    check_representable,
    f_prime,
    lemma_b_check,
    make_distribution,
    new_system,
    system_from_distribution,
    uniform_system,
    verify_reconstruction,
)
from bwrum.core import choice_subsets, full_mask, ordered_pairs

from conftest import random_induced
from test_polynomials import negative_pair_system, skewed_pair_system


class TestMakeDistribution:
    def test_accumulates_and_drops_zero_masses(self):
        dist = make_distribution(
            3, {(0, 1, 2): Fraction(3, 4), (2, 1, 0): Fraction(1, 4), (1, 0, 2): 0}
        )
        assert dist.mass == {(0, 1, 2): Fraction(3, 4), (2, 1, 0): Fraction(1, 4)}
        assert dist.mass_of([0, 1, 2]) == Fraction(3, 4)
        assert dist.mass_of((1, 0, 2)) == 0
        assert dist.support() == ((0, 1, 2), (2, 1, 0))
        assert dist.total() == 1

    def test_rejects_non_rankings(self):
        with pytest.raises(InconsistentDimensions):
            make_distribution(3, {(0, 1): 1})
        with pytest.raises(InconsistentDimensions):
            make_distribution(3, {(0, 1, 1): 1})

    def test_rejects_negative_and_unnormalized_masses(self):
        with pytest.raises(OutOfRangeProbability):
            make_distribution(2, {(0, 1): Fraction(3, 2), (1, 0): Fraction(-1, 2)})
        with pytest.raises(NormalizationViolation):
            make_distribution(2, {(0, 1): Fraction(1, 2)})


class TestForwardOracle:
    def test_point_mass_cells_are_indicators(self):
        dist = make_distribution(3, {(2, 0, 1): 1})
        assert bw_from_distribution(dist, {0, 1, 2}, 2, 1) == 1
        assert bw_from_distribution(dist, {0, 1, 2}, 0, 1) == 0
        assert bw_from_distribution(dist, {0, 1}, 0, 1) == 1
        assert bw_from_distribution(dist, {1, 2}, 2, 1) == 1

    def test_mixture_cells_add_mass(self):
        dist = make_distribution(
            3, {(0, 1, 2): Fraction(1, 3), (2, 1, 0): Fraction(2, 3)}
        )
        assert bw_from_distribution(dist, {0, 2}, 0, 2) == Fraction(1, 3)
        assert bw_from_distribution(dist, {0, 1, 2}, 2, 0) == Fraction(2, 3)
        assert bw_from_distribution(dist, {0, 1, 2}, 0, 1) == 0

    def test_rejects_bad_subsets_and_pairs(self):
        dist = make_distribution(3, {(0, 1, 2): 1})
        with pytest.raises(InvalidContext):
            bw_from_distribution(dist, {0}, 0, 0)
        with pytest.raises(InvalidContext):
            bw_from_distribution(dist, {0, 1}, 0, 2)
        with pytest.raises(InvalidContext):
            bw_from_distribution(dist, {0, 1}, 1, 1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(2, 4))
    def test_bulk_induction_matches_per_cell_route(self, seed, n):
        dist, system = random_induced(n, seed)
        for mask in choice_subsets(n):
            for a, b in ordered_pairs(mask):
                assert system.prob(mask, a, b) == bw_from_distribution(dist, mask, a, b)

    def test_verification_pinpoints_a_changed_cell(self):
        dist, system = random_induced(3, 99)
        report = verify_reconstruction(system, dist)
        assert report.ok
        skew = dict(dist.mass)
        ranking, mass = next(iter(skew.items()))
        other = (1, 0, 2) if ranking != (1, 0, 2) else (0, 1, 2)
        skew[ranking] = mass / 2
        skew[other] = skew.get(other, Fraction(0)) + mass / 2
        bad = type(dist)(n=3, mass=skew)
        changed = verify_reconstruction(system, bad)
        assert not changed.ok
        mask, a, b, expected, actual = changed.mismatches[0]
        assert expected == system.prob(mask, a, b)
        assert actual == bw_from_distribution(bad, mask, a, b)


class TestDeclarativeConstruction:
    def test_uniform_witness_is_uniform(self):
        built = build_construction(uniform_system(4))
        assert all(p == Fraction(1, 24) for p in built.distribution.mass.values())
        assert len(built.distribution.mass) == 24

    def test_two_alternatives_read_off_the_pair_cell(self):
        system = new_system(
            2, [(0b11, (0, 1), Fraction(2, 7)), (0b11, (1, 0), Fraction(5, 7))]
        )
        dist = build_distribution(system)
        assert dist.mass == {(0, 1): Fraction(2, 7), (1, 0): Fraction(5, 7)}

    def test_point_mass_round_trip(self):
        for ranking in ((2, 0, 3, 1), (1, 2, 0)):
            dist = make_distribution(len(ranking), {ranking: 1})
            rebuilt = build_distribution(system_from_distribution(dist))
            assert rebuilt.mass == {ranking: 1}

    def test_mixture_round_trip_verifies(self):
        for seed in (5, 6, 7):
            dist, system = random_induced(4, seed)
            built = build_construction(system)
            assert built.mode in ("exact-solve", "kernel-completed")
            assert built.distribution.total() == 1
            assert verify_reconstruction(system, built.distribution).ok

    def test_negative_polynomial_raises_before_any_solve(self):
        with pytest.raises(NotRepresentable):
            build_distribution(negative_pair_system())

    def test_inconsistent_equations_raise(self):
        with pytest.raises(ConstructionInconsistent):
            build_distribution(skewed_pair_system())

    def test_construction_is_cached_per_system(self):
        system = uniform_system(3)
        assert build_construction(system) is build_construction(system)

    def test_refuses_oversized_systems_before_eliminating(self):
        system = uniform_system(LP_MAX_N + 1)
        started = time.perf_counter()
        with pytest.raises(DimensionTooLarge):
            build_distribution(system)
        with pytest.raises(DimensionTooLarge):
            check_representable(system, construct_witness=True)
        assert time.perf_counter() - started < 5.0


def _relabel(pi, ranking):
    return tuple(pi[x] for x in ranking)


class TestStabiliserAveraging:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(2, 4), data=st.data())
    def test_witness_is_invariant_under_a_symmetry_of_its_input(self, seed, n, data):
        pi = tuple(data.draw(st.permutations(range(n))))
        support = data.draw(st.integers(1, factorial(n)))
        source, _ = random_induced(n, seed, support_size=support)
        # Average the source over the cyclic group pi generates, so the
        # induced system is fixed by pi.
        identity = tuple(range(n))
        powers = [identity]
        while (step := _relabel(pi, powers[-1])) != identity:
            powers.append(step)
        mass = {}
        for sigma in powers:
            for ranking, p in source.mass.items():
                image = _relabel(sigma, ranking)
                mass[image] = mass.get(image, Fraction(0)) + p / len(powers)
        system = system_from_distribution(make_distribution(n, mass))
        witness = build_distribution(system)
        assert verify_reconstruction(system, witness).ok
        for ranking in all_rankings(n):
            assert witness.mass_of(_relabel(pi, ranking)) == witness.mass_of(ranking)


class TestShareValues:
    def test_two_alternatives_share_is_the_pair_cell(self):
        system = new_system(
            2, [(0b11, (0, 1), Fraction(1, 3)), (0b11, (1, 0), Fraction(2, 3))]
        )
        assert f_prime(system, [0], [1]) == Fraction(1, 3)

    def test_uniform_four_share_values(self):
        system = uniform_system(4)
        assert f_prime(system, [0], [3]) == Fraction(1, 12)
        assert f_prime(system, [0, 1], [3]) == Fraction(1, 48)
        assert f_prime(system, [0, 1], [3, 2]) == Fraction(1, 72)

    def test_rejects_malformed_patterns(self):
        system = uniform_system(3)
        with pytest.raises(MalformedPattern):
            f_prime(system, [0, 1], [1])
        with pytest.raises(MalformedPattern):
            f_prime(system, [0], [5])
        with pytest.raises(MalformedPattern):
            f_prime(system, [0], [])


class TestDensityIdentity:
    def test_holds_everywhere_on_representable_systems(self):
        for seed in (21, 22):
            _, system = random_induced(4, seed)
            n = system.n
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    rest = full_mask(n) & ~(1 << a) & ~(1 << b)
                    sub = rest
                    while True:
                        assert lemma_b_check(system, a, b, sub), (seed, a, b, sub)
                        if sub == 0:
                            break
                        sub = (sub - 1) & rest

    def test_empty_set_case_is_the_adjacency_value(self):
        assert lemma_b_check(uniform_system(4), 1, 2, ())

    def test_rejects_overlapping_sets(self):
        with pytest.raises(InvalidContext):
            lemma_b_check(uniform_system(4), 0, 1, {1, 2})
        with pytest.raises(InvalidContext):
            lemma_b_check(uniform_system(4), 0, 0, {2})

