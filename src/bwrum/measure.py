"""Witness distributions over full rankings, and the oracles that audit them.

A system is representable when some probability distribution over the
n! full rankings induces every best-worst cell: the cell for (B, a, b)
must equal the total mass of rankings in which a is the best and b the
worst member of B.  This module constructs such witnesses, evaluates
the induced cells from any distribution (the forward oracle used as
ground truth everywhere), and re-checks constructed witnesses cell by
cell.

A witness is a nonnegative solution of the cell equations: one per
(subset, best, worst) cell, whose 0/1 coefficients mark the rankings
that put that pair first and last within the subset and whose
right-hand side is the cell itself, plus total mass one.  Their rows
depend only on n and are reduced once per n; :mod:`bwrum.linear` solves
them for each system, and the feasibility verdict of :mod:`bwrum.lp`
comes from the same solve.  The polynomial table is the Moebius inverse
of the cells, so it only pre-screens by its signs: equations with the
polynomial values on the right-hand side would be these same equations
after a unitriangular change of rows.  What stays independent of the
solver is the forward oracle, which scans the rankings on its own and
re-checks every witness.

Finally the masses are averaged over the system's permutation
stabiliser, the relabellings of 0..n-1 that leave every cell unchanged.
Each relabelled witness reproduces the system as well, so the average
is still a witness, and it inherits every symmetry of the input: the
uniform system gets the uniform distribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import TYPE_CHECKING, Sequence

from .core import (
    ONE,
    ZERO,
    BWSystem,
    SubsetLike,
    as_mask,
    choice_subsets,
    full_mask,
    members,
    new_system,
    ordered_pairs,
    popcount,
)
from .errors import (
    ConstructionInconsistent,
    InconsistentDimensions,
    InvalidContext,
    MalformedPattern,
    NormalizationViolation,
    NotRepresentable,
    OutOfRangeProbability,
)
from .linear import INCONSISTENT, PARTICULAR, Reduction, nonnegative_solution, require_size
from .polynomials import (  # noqa: F401  all_polynomials stays importable from here
    PolynomialTable,
    _check_context,
    _most_negative,
    all_polynomials,
)
from .rankings import PatternDescriptor, Ranking, all_rankings, matches

if TYPE_CHECKING:
    from .simulate import RankingSampler


@dataclass(frozen=True)
class RankingDistribution:
    """Probability masses on full rankings; absent keys mean zero."""

    n: int
    mass: dict[Ranking, Fraction]

    def mass_of(self, ranking: Sequence[int]) -> Fraction:
        return self.mass.get(tuple(ranking), ZERO)

    def support(self) -> tuple[Ranking, ...]:
        return tuple(sorted(r for r, p in self.mass.items() if p))

    def total(self) -> Fraction:
        return sum(self.mass.values(), ZERO)

    @functools.cached_property
    def _sampler(self) -> RankingSampler:
        """The exact sampler :func:`bwrum.simulate.sample_ranking` draws from, built once."""
        from .simulate import RankingSampler

        return RankingSampler(self)


def make_distribution(n: int, mass: dict[Sequence[int], object]) -> RankingDistribution:
    """Validate and normalize raw masses into a distribution.

    Keys must be rankings of 0..n-1, masses nonnegative rationals
    summing to exactly one.
    """
    from .core import exact_fraction

    cleaned: dict[Ranking, Fraction] = {}
    expected = list(range(n))
    for ranking, raw in mass.items():
        key = tuple(ranking)
        if sorted(key) != expected:
            raise InconsistentDimensions(f"{key!r} is not a ranking of 0..{n - 1}")
        value = exact_fraction(raw)
        if value < ZERO:
            raise OutOfRangeProbability(f"mass {value} of ranking {key} is negative")
        if value:
            cleaned[key] = cleaned.get(key, ZERO) + value
    total = sum(cleaned.values(), ZERO)
    if total != ONE:
        raise NormalizationViolation(f"masses sum to {total}, expected 1")
    return RankingDistribution(n=n, mass=cleaned)


# ---------------------------------------------------------------------------
# Forward oracle


def bw_from_distribution(dist: RankingDistribution, B: SubsetLike, a: int, b: int) -> Fraction:
    """Induced probability of (a, b) in B: mass of the pattern S(a; B; b).

    This is the ground-truth direction; everything that constructs
    distributions is checked against it.
    """
    mask = as_mask(B, dist.n)
    if popcount(mask) < 2:
        raise InvalidContext(f"subset {members(mask)} has fewer than two members")
    inside = all(0 <= x < dist.n and (mask >> x) & 1 for x in (a, b))
    if a == b or not inside:
        raise InvalidContext(f"({a}, {b}) is not an ordered pair inside {members(mask)}")
    descriptor = PatternDescriptor(prefix=(a,), ground=mask, suffix=(b,))
    return sum(
        (p for ranking, p in dist.mass.items() if p and matches(descriptor, ranking)),
        ZERO,
    )


def _induced_cells(
    n: int, items: Sequence[tuple[Ranking, Fraction]]
) -> dict[tuple[int, int, int], Fraction]:
    """All induced cells at once, by scanning each ranking per subset."""
    cells: dict[tuple[int, int, int], Fraction] = {}
    for mask in choice_subsets(n):
        acc: dict[tuple[int, int], Fraction] = {}
        for ranking, p in items:
            best = worst = -1
            for x in ranking:
                if (mask >> x) & 1:
                    if best < 0:
                        best = x
                    worst = x
            key = (best, worst)
            acc[key] = acc.get(key, ZERO) + p
        for a, b in ordered_pairs(mask):
            cells[(mask, a, b)] = acc.get((a, b), ZERO)
    return cells


def system_from_distribution(dist: RankingDistribution) -> BWSystem:
    """The complete system induced by a distribution; always representable."""
    items = [(r, p) for r, p in dist.mass.items() if p]
    cells = _induced_cells(dist.n, items)
    return new_system(
        dist.n, ((mask, (a, b), value) for (mask, a, b), value in cells.items())
    )


@dataclass(frozen=True)
class VerificationReport:
    """Cells where a system and a distribution's induced cells differ."""

    n: int
    mismatches: tuple[tuple[int, int, int, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_reconstruction(system: BWSystem, dist: RankingDistribution) -> VerificationReport:
    """Compare every cell of the system to the distribution, exactly."""
    items = [(r, p) for r, p in dist.mass.items() if p]
    induced = _induced_cells(system.n, items)
    mismatches = []
    for (mask, a, b), actual in induced.items():
        expected = system.prob(mask, a, b)
        if expected != actual:
            mismatches.append((mask, a, b, expected, actual))
    mismatches.sort(key=lambda row: (popcount(row[0]), row[0], row[1], row[2]))
    return VerificationReport(n=system.n, mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# Construction: the cell equations, reduced once per n


def _cell_rows(n: int) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """The cells in equation order, and one 0/1 row per cell plus the total."""
    rankings = all_rankings(n)
    cell_order: list[tuple[int, int, int]] = []
    rows: list[list[int]] = []
    for mask in choice_subsets(n):
        per_ranking = []
        for ranking in rankings:
            best = worst = -1
            for x in ranking:
                if (mask >> x) & 1:
                    if best < 0:
                        best = x
                    worst = x
            per_ranking.append((best, worst))
        for a, b in ordered_pairs(mask):
            cell_order.append((mask, a, b))
            rows.append([int(pair == (a, b)) for pair in per_ranking])
    rows.append([1] * len(rankings))
    return cell_order, rows


@functools.cache
def _cell_reduction(n: int) -> tuple[list[tuple[int, int, int]], Reduction]:
    require_size(n)
    cell_order, rows = _cell_rows(n)
    return cell_order, Reduction(rows)


def _solve_cells(system: BWSystem) -> tuple[dict[Ranking, Fraction] | None, str]:
    """Nonnegative ranking masses reproducing every cell, or None, and the deciding stage."""
    cell_order, reduction = _cell_reduction(system.n)
    rhs = [system.prob(mask, a, b) for mask, a, b in cell_order]
    rhs.append(ONE)
    values, stage = nonnegative_solution(reduction, rhs)
    if values is None:
        return None, stage
    return {r: v for r, v in zip(all_rankings(system.n), values) if v}, stage


# ---------------------------------------------------------------------------
# Symmetrisation over the system's permutation stabiliser


def _stabiliser(system: BWSystem) -> list[tuple[int, ...]]:
    """Permutations pi of 0..n-1 with P(pi B, pi a, pi b) = P(B, a, b) on every cell.

    Cells are compared smallest subsets first, so a permutation that
    moves some pair probability is rejected after a few lookups.
    """
    cells = sorted(system.cells.items(), key=lambda item: popcount(item[0][0]))
    group = []
    for pi in permutations(range(system.n)):
        for (mask, a, b), value in cells:
            image = 0
            for x in members(mask):
                image |= 1 << pi[x]
            if system.cells[(image, pi[a], pi[b])] != value:
                break
        else:
            group.append(pi)
    return group


def _symmetrised(
    masses: dict[Ranking, Fraction], group: Sequence[tuple[int, ...]]
) -> dict[Ranking, Fraction]:
    """Average of the masses relabelled by every permutation in the group.

    Relabelling a witness by a permutation that fixes every cell gives
    another witness, so the average is a convex combination of
    witnesses and reproduces the system too.
    """
    total: dict[Ranking, Fraction] = {}
    for pi in group:
        for ranking, p in masses.items():
            image = tuple(pi[x] for x in ranking)
            total[image] = total.get(image, ZERO) + p
    return {ranking: p / len(group) for ranking, p in total.items()}


# ---------------------------------------------------------------------------
# Construction objects and the public construction API


class Construction:
    """A constructed witness for one system.

    Exposes the distribution, how it was solved (``mode``), pattern
    measures under it, and the share values.
    """

    def __init__(
        self,
        system: BWSystem,
        distribution: RankingDistribution,
        mode: str,
        table: PolynomialTable,
    ):
        self.system = system
        self.distribution = distribution
        self.mode = mode
        self.table = table

    def pattern_measure(self, prefix: Sequence[int], suffix: Sequence[int]) -> Fraction:
        """Total mass of the full-ground pattern S(prefix; A; suffix)."""
        descriptor = PatternDescriptor(tuple(prefix), full_mask(self.system.n), tuple(suffix))
        return sum(
            (p for ranking, p in self.distribution.mass.items() if matches(descriptor, ranking)),
            ZERO,
        )

    def f_prime(self, prefix: Sequence[int], suffix: Sequence[int]) -> Fraction:
        """Share value of a pattern: its measure divided by (listed count - 1)."""
        key = (tuple(prefix), tuple(suffix))
        listed = key[0] + key[1]
        n = self.system.n
        if len(set(listed)) != len(listed):
            raise MalformedPattern(f"listed elements {listed} repeat an alternative")
        if any(not (0 <= x < n) for x in listed):
            raise MalformedPattern(f"listed elements {listed} leave the base set 0..{n - 1}")
        if not 2 <= len(listed) <= n:
            raise MalformedPattern(
                f"need between 2 and {n} listed elements, got {len(listed)}"
            )
        return self.pattern_measure(key[0], key[1]) / (len(listed) - 1)


def build_construction(system: BWSystem) -> Construction:
    """A witness for a representable system, built on first request and kept on it."""
    return system._construction


def _construct(system: BWSystem) -> Construction:
    """Sign test, one solve of the cell equations, then averaging over the stabiliser."""
    table = system._polynomials
    negatives = [
        (a, b, mask, value) for a, b, mask, value in table.items_sorted() if value < ZERO
    ]
    if negatives:
        a, b, mask, value = _most_negative(negatives)
        raise NotRepresentable(
            f"{len(negatives)} polynomial value(s) are negative; most negative is "
            f"pair ({a}, {b}), context {members(mask)}: {value}"
        )

    masses, stage = _solve_cells(system)
    if stage == INCONSISTENT:
        raise ConstructionInconsistent(
            "the witness equations for this system are inconsistent; "
            "no ranking distribution reproduces every cell"
        )
    if masses is None:
        raise ConstructionInconsistent(
            "the witness equations admit solutions, but none with all masses nonnegative"
        )
    mode = "exact-solve" if stage == PARTICULAR else "kernel-completed"
    group = _stabiliser(system)
    if len(group) > 1:
        masses = _symmetrised(masses, group)

    return Construction(
        system=system,
        distribution=RankingDistribution(n=system.n, mass=masses),
        mode=mode,
        table=table,
    )


def build_distribution(system: BWSystem) -> RankingDistribution:
    """A distribution reproducing every cell of a representable system.

    Raises :class:`NotRepresentable` when the sign test fails and
    :class:`ConstructionInconsistent` when no nonnegative solution of
    the witness equations exists.
    """
    return build_construction(system).distribution


def f_prime(
    system: BWSystem,
    prefix: Sequence[int],
    suffix: Sequence[int],
) -> Fraction:
    """Share value of a pattern under the constructed witness."""
    return build_construction(system).f_prime(prefix, suffix)


def lemma_b_check(
    system: BWSystem,
    a: int,
    b: int,
    B: SubsetLike,
) -> bool:
    """Identity check: summed pattern densities over arrangements of B.

    Sums the constructed witness's density (measure over (n-k)!) of the
    patterns placing a directly above and b directly below the unlisted
    block, over every ordering and split of B around the pair, and
    compares exactly against the polynomial value for (a, b, B) scaled
    the same way, with k = |B| + 2.
    """
    mask = as_mask(B, system.n)
    _check_context(system.n, a, b, mask)
    built = build_construction(system)
    n = system.n
    k = popcount(mask) + 2
    scale = factorial(n - k)
    left = ZERO
    for order in permutations(members(mask)):
        for cut in range(len(order) + 1):
            left += built.pattern_measure(order[:cut] + (a,), (b,) + order[cut:])
    return Fraction(left, scale) == Fraction(built.table.values[(a, b, mask)], scale)

