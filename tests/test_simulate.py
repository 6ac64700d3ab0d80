"""Seeded sampling: exactness of the law, utilities, and dataset simulation."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrum import (
    InvalidContext,
    OutOfRange,
    RankingSampler,
    SeededRng,
    from_counts,
    make_distribution,
    random_distribution,
    ranking_from_utilities,
    sample_best_worst,
    sample_ranking,
    simulate_dataset,
    system_from_distribution,
    utilities_from_ranking,
    validate,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(123)
        b = SeededRng(123)
        assert [a.randrange(1000) for _ in range(20)] == [
            b.randrange(1000) for _ in range(20)
        ]

    def test_spawned_streams_are_deterministic_and_distinct(self):
        base = SeededRng(9)
        first = [base.spawn(1).randrange(10**6) for _ in range(5)]
        again = [SeededRng(9).spawn(1).randrange(10**6) for _ in range(5)]
        other = [SeededRng(9).spawn(2).randrange(10**6) for _ in range(5)]
        assert first == again
        assert first != other

    def test_algorithm_is_named(self):
        assert SeededRng(0).algorithm == "mt19937"

    def test_seed_range_is_enforced(self):
        with pytest.raises(OutOfRange):
            SeededRng(-1)
        with pytest.raises(OutOfRange):
            SeededRng(1 << 64)
        SeededRng((1 << 64) - 1)


class TestRankingSampler:
    def test_law_is_exact_over_the_whole_denominator(self):
        dist = make_distribution(
            3,
            {
                (0, 1, 2): Fraction(1, 2),
                (2, 1, 0): Fraction(1, 3),
                (1, 0, 2): Fraction(1, 6),
            },
        )
        sampler = RankingSampler(dist)
        hits: dict[tuple, int] = {}
        for u in range(sampler.denominator):
            r = sampler.ranking_at(u)
            hits[r] = hits.get(r, 0) + 1
        assert {
            r: Fraction(c, sampler.denominator) for r, c in hits.items()
        } == dist.mass

    def test_point_mass_always_returns_its_ranking(self):
        dist = make_distribution(4, {(3, 1, 0, 2): 1})
        rng = SeededRng(5)
        assert all(sample_ranking(dist, rng) == (3, 1, 0, 2) for _ in range(10))

    def test_empty_support_is_rejected(self):
        from bwrum import RankingDistribution

        with pytest.raises(OutOfRange):
            RankingSampler(RankingDistribution(n=2, mass={}))


class TestUtilities:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 6))
    def test_round_trip_and_range(self, seed, n):
        rng = SeededRng(seed)
        dist = random_distribution(n, rng, support_size=1)
        ranking = next(iter(dist.mass))
        values = utilities_from_ranking(ranking)
        assert sorted(values) == list(range(1, n + 1))
        assert values[ranking[0]] == n
        assert values[ranking[-1]] == 1
        assert ranking_from_utilities(values) == ranking


class TestSampleBestWorst:
    def test_point_mass_pair_is_determined(self):
        dist = make_distribution(3, {(2, 0, 1): 1})
        rng = SeededRng(0)
        assert sample_best_worst(dist, {0, 1, 2}, rng) == (2, 1)
        assert sample_best_worst(dist, {0, 1}, rng) == (0, 1)
        best, worst = sample_best_worst(dist, {1, 2}, rng)
        assert (best, worst) == (2, 1)
        values = utilities_from_ranking((2, 0, 1))
        assert all(values[best] >= values[c] >= values[worst] for c in (1, 2))

    def test_subset_needs_two_members(self):
        dist = make_distribution(2, {(0, 1): 1})
        with pytest.raises(InvalidContext):
            sample_best_worst(dist, {0}, SeededRng(1))


class TestSimulateDataset:
    def test_zero_trials_still_emit_all_cells(self):
        dist = make_distribution(3, {(0, 1, 2): 1})
        dataset = simulate_dataset(dist, [({0, 1}, 0), ({0, 1, 2}, 4)], SeededRng(3))
        counts = {(m, a, b): c for m, a, b, c in dataset.records}
        assert counts[(0b011, 0, 1)] == 0
        assert counts[(0b011, 1, 0)] == 0
        assert counts[(0b111, 0, 2)] == 4
        assert sum(counts.values()) == 4

    def test_design_errors(self):
        dist = make_distribution(2, {(0, 1): 1})
        with pytest.raises(InvalidContext):
            simulate_dataset(dist, [({0}, 5)], SeededRng(0))
        with pytest.raises(OutOfRange):
            simulate_dataset(dist, [({0, 1}, -1)], SeededRng(0))

    def test_counts_ingest_back_into_a_valid_system(self):
        rng = SeededRng(42)
        dist = random_distribution(3, rng)
        design = [({0, 1}, 30), ({0, 2}, 30), ({1, 2}, 30), ({0, 1, 2}, 60)]
        dataset = simulate_dataset(dist, design, rng)
        result = from_counts(dataset, smoothing=1)
        assert validate(result.system).ok

    def test_point_mass_counts_are_concentrated(self):
        dist = make_distribution(3, {(1, 2, 0): 1})
        dataset = simulate_dataset(dist, [({0, 1, 2}, 25)], SeededRng(8))
        counts = {(m, a, b): c for m, a, b, c in dataset.records}
        assert counts[(0b111, 1, 0)] == 25


class TestRandomDistribution:
    def test_deterministic_given_seed(self):
        a = random_distribution(4, SeededRng(77), support_size=5)
        b = random_distribution(4, SeededRng(77), support_size=5)
        assert a.mass == b.mass

    def test_support_and_normalization(self):
        dist = random_distribution(4, SeededRng(1), support_size=7)
        assert len(dist.mass) == 7
        assert dist.total() == 1
        assert all(p > 0 for p in dist.mass.values())
        induced = system_from_distribution(dist)
        assert validate(induced).ok

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            random_distribution(3, SeededRng(0), support_size=0)
        with pytest.raises(OutOfRange):
            random_distribution(3, SeededRng(0), support_size=factorial(3) + 1)
        with pytest.raises(OutOfRange):
            random_distribution(3, SeededRng(0), resolution=0)
