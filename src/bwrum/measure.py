"""Witness distributions over full rankings, and the oracles that audit them.

A system is representable when some probability distribution over the
n! full rankings induces every best-worst cell: the cell for (B, a, b)
must equal the total mass of rankings in which a is the best and b the
worst member of B.  This module constructs such witnesses, evaluates
the induced cells from any distribution (the forward oracle used as
ground truth everywhere), and re-checks constructed witnesses cell by
cell.

A witness is a nonnegative solution of the sandwich equations: one per
(best, worst, outside-set) sandwich event, whose measure must equal the
corresponding polynomial value, plus total mass one.  Their 0/1 rows
depend only on n and are reduced once per n; :mod:`bwrum.linear` solves
them for each system.  Finally the masses are averaged over the system's permutation
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
    iter_submasks,
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
from .polynomials import PolynomialTable, all_polynomials
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
    if a == b or not ((mask >> a) & 1 and (mask >> b) & 1):
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
# Declarative construction: the sandwich equations, reduced once per n


def _sandwich_member(pos: Sequence[int], n: int, x: int, y: int, outside: int) -> bool:
    """Is the ranking (given by positions) in the sandwich event (x, y, outside)?

    The event: x precedes y, every member of ``outside`` sits before x
    or after y, and everything else sits strictly between them.  Its
    measure under a witness must equal the polynomial value for
    (x, y, outside).
    """
    px, py = pos[x], pos[y]
    if px > py:
        return False
    for z in range(n):
        if z == x or z == y:
            continue
        inside = px < pos[z] < py
        if (outside >> z) & 1:
            if inside:
                return False
        elif not inside:
            return False
    return True


def _equation_tags(n: int) -> list[tuple]:
    tags: list[tuple] = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            rest = full_mask(n) & ~(1 << x) & ~(1 << y)
            for outside in sorted(iter_submasks(rest), key=lambda s: (popcount(s), s)):
                tags.append(("cell", x, y, outside))
    tags.append(("total",))
    return tags


@functools.cache
def _sandwich_reduction(n: int) -> tuple[list[tuple], Reduction]:
    """The equation tags for n and the reduction of their 0/1 rows."""
    require_size(n)
    tags = _equation_tags(n)
    positions = []
    for ranking in all_rankings(n):
        pos = [0] * n
        for i, x in enumerate(ranking):
            pos[x] = i
        positions.append(pos)
    rows = [
        [int(_sandwich_member(pos, n, *tag[1:])) for pos in positions]
        if tag[0] == "cell"
        else [1] * len(positions)
        for tag in tags
    ]
    return tags, Reduction(rows)


def _declarative_masses(
    system: BWSystem, table: PolynomialTable
) -> tuple[dict[Ranking, Fraction], str]:
    tags, reduction = _sandwich_reduction(system.n)
    rhs = [table.values[tag[1:]] if tag[0] == "cell" else ONE for tag in tags]
    values, stage = nonnegative_solution(reduction, rhs)
    if stage == INCONSISTENT:
        raise ConstructionInconsistent(
            "the witness equations for this system are inconsistent; "
            "no ranking distribution reproduces every cell"
        )
    if values is None:
        raise ConstructionInconsistent(
            "the witness equations admit solutions, but none with all masses nonnegative"
        )
    mode = "exact-solve" if stage == PARTICULAR else "kernel-completed"
    masses = {
        ranking: value
        for ranking, value in zip(all_rankings(system.n), values)
        if value
    }
    return masses, mode


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
    measures under it, and the share values.  Pattern measures
    are memoized because audits revisit the same descriptors.
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
        self._measures: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def pattern_measure(self, prefix: Sequence[int], suffix: Sequence[int]) -> Fraction:
        """Total mass of the full-ground pattern S(prefix; A; suffix)."""
        key = (tuple(prefix), tuple(suffix))
        cached = self._measures.get(key)
        if cached is not None:
            return cached
        descriptor = PatternDescriptor(key[0], full_mask(self.system.n), key[1])
        value = sum(
            (p for ranking, p in self.distribution.mass.items() if matches(descriptor, ranking)),
            ZERO,
        )
        self._measures[key] = value
        return value

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
    """Sign test, declarative solve, then averaging over the stabiliser."""
    table = all_polynomials(system)
    negatives = [
        (a, b, mask, value) for a, b, mask, value in table.items_sorted() if value < ZERO
    ]
    if negatives:
        a, b, mask, value = min(
            negatives, key=lambda e: (e[3], e[0], e[1], members(e[2]))
        )
        raise NotRepresentable(
            f"{len(negatives)} polynomial value(s) are negative; most negative is "
            f"pair ({a}, {b}), context {members(mask)}: {value}"
        )

    masses, mode = _declarative_masses(system, table)
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
    if a == b or (mask >> a) & 1 or (mask >> b) & 1:
        raise InvalidContext(
            f"the pair ({a}, {b}) must be distinct and disjoint from {members(mask)}"
        )
    built = build_construction(system)
    n = system.n
    k = popcount(mask) + 2
    scale = factorial(n - k)
    left = ZERO
    for order in permutations(members(mask)):
        for cut in range(len(order) + 1):
            left += built.pattern_measure(order[:cut] + (a,), (b,) + order[cut:])
    return Fraction(left, scale) == Fraction(built.table.values[(a, b, mask)], scale)

