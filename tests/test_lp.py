"""The feasibility oracle: its verdicts, and one elimination shared with construction.

The oracle and witness construction solve the same cell equations, so
their agreement is checked where it can fail: every witness is also
re-checked by the forward oracle, which shares no code with the solver.
"""

from fractions import Fraction

import pytest

from bwrum import measure
from bwrum import (
    ConstructionInconsistent,
    DimensionTooLarge,
    LP_MAX_N,
    NotRepresentable,
    RankingDistribution,
    SeededRng,
    all_rankings,
    build_distribution,
    check_representable,
    lp_feasibility_oracle,
    system_from_distribution,
    uniform_system,
    verify_reconstruction,
)

from conftest import random_induced, random_valid_system
from test_polynomials import negative_pair_system, skewed_pair_system


class TestVerdicts:
    def test_uniform_is_feasible_by_presolve(self):
        result = lp_feasibility_oracle(uniform_system(4))
        assert result.feasible
        assert result.method == "presolve"
        assert verify_reconstruction(uniform_system(4), result.distribution).ok

    def test_negative_pair_system_is_infeasible(self):
        result = lp_feasibility_oracle(negative_pair_system())
        assert not result.feasible
        assert result.method == "presolve"
        assert result.distribution is None

    def test_skewed_pair_system_is_infeasible(self):
        result = lp_feasibility_oracle(skewed_pair_system())
        assert not result.feasible
        assert result.distribution is None

    def test_phase_one_produces_a_verified_point(self):
        dist, system = random_induced(4, 0)
        result = lp_feasibility_oracle(system)
        assert result.feasible
        assert result.method == "phase1"
        assert result.distribution.total() == 1
        assert all(p >= 0 for p in result.distribution.mass.values())
        assert verify_reconstruction(system, result.distribution).ok

    def test_two_alternatives(self):
        from fractions import Fraction

        from bwrum import new_system

        system = new_system(
            2, [(0b11, (0, 1), Fraction(1, 8)), (0b11, (1, 0), Fraction(7, 8))]
        )
        result = lp_feasibility_oracle(system)
        assert result.feasible
        assert result.distribution.mass == {(0, 1): Fraction(1, 8), (1, 0): Fraction(7, 8)}

    def test_refuses_oversized_systems(self):
        system = uniform_system(LP_MAX_N + 1)
        with pytest.raises(DimensionTooLarge):
            lp_feasibility_oracle(system)


class TestAgreementWithConstruction:
    def test_verdicts_match_on_sampled_systems(self):
        for seed in range(12):
            system = random_valid_system(3, SeededRng(777000 + seed))
            result = lp_feasibility_oracle(system)
            try:
                dist = build_distribution(system)
            except (NotRepresentable, ConstructionInconsistent):
                dist = None
            assert result.feasible == (dist is not None), seed
            if dist is not None:
                assert verify_reconstruction(system, dist).ok
                assert verify_reconstruction(system, result.distribution).ok

    def test_feasible_on_everything_induced(self):
        for n, seed in ((3, 31), (4, 32), (4, 33)):
            _, system = random_induced(n, seed)
            assert lp_feasibility_oracle(system).feasible


class TestOneElimination:
    def test_construction_and_oracle_share_one_reduction(self, monkeypatch):
        built = []

        class CountingReduction(measure.Reduction):
            def __init__(self, rows):
                built.append(len(rows))
                super().__init__(rows)

        measure._cell_reduction.cache_clear()
        monkeypatch.setattr(measure, "Reduction", CountingReduction)
        system = uniform_system(4)
        assert verify_reconstruction(system, build_distribution(system)).ok
        assert lp_feasibility_oracle(system).feasible
        assert len(built) == 1


def signed_mass_system(seed: int):
    """The n=4 system induced by uniform masses after twelve signed unit moves.

    Each move takes 1/48 from one random ranking and gives it to another,
    so the masses still sum to one but some may be negative.  The induced
    system then satisfies every linear identity of the cell equations.
    """
    rng = SeededRng(seed)
    rankings = all_rankings(4)
    steps = [0] * len(rankings)
    for _ in range(12):
        steps[rng.randrange(24)] += 1
        steps[rng.randrange(24)] -= 1
    mass = {r: Fraction(2 + s, 48) for r, s in zip(rankings, steps)}
    return mass, system_from_distribution(RankingDistribution(n=4, mass=mass))


# Seeds below 200 whose system has a negative mass, passes the sign test
# and is decided by phase 1, with the verdict on which the former
# Fraction-tableau simplex and the kernel completion agreed.
PHASE_ONE_VERDICTS = {
    9: True, 12: True, 18: False, 44: False, 48: True, 52: True, 63: True,
    67: False, 82: False, 85: False, 87: False, 118: True, 135: False,
    136: False, 137: True, 153: True, 169: True, 180: True, 181: False, 182: True,
}


class TestSignedMassSystems:
    def test_pinned_phase_one_verdicts(self):
        for seed, feasible in PHASE_ONE_VERDICTS.items():
            mass, system = signed_mass_system(seed)
            assert min(mass.values()) < 0, seed
            assert check_representable(system).representable, seed
            result = lp_feasibility_oracle(system)
            assert (result.feasible, result.method) == (feasible, "phase1"), seed
            try:
                dist = build_distribution(system)
            except ConstructionInconsistent:
                dist = None
            assert (dist is not None) == feasible, seed
            if feasible:
                assert verify_reconstruction(system, result.distribution).ok, seed
                assert verify_reconstruction(system, dist).ok, seed
