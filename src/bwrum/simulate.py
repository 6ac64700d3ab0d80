"""Sampling rankings and best-worst observations from a distribution.

Utilities are integer ranks derived from sampled rankings: the best
alternative of a ranking of length n gets value n, the worst gets 1,
so ties are impossible by construction.  Sampling is exact: masses are
brought to a common denominator L and a uniform draw from 0..L-1
selects a ranking, so every ranking is hit with exactly its mass (the
underlying generator's ``randrange`` is itself rejection-based and
unbiased).

Reproducibility: :class:`SeededRng` wraps the Mersenne Twister behind a
64-bit seed.  Parallel streams derive their seeds by XOR-ing the base
seed with a mixed stream index, so any (seed, stream) pair names one
deterministic sequence.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from typing import ClassVar, Sequence

from .core import ChoiceCountDataset, SubsetLike, as_mask, members, popcount
from .errors import InvalidContext, OutOfRange
from .measure import RankingDistribution
from .rankings import Ranking, all_rankings

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """Finalizing mixer (splitmix64): spreads a stream index over 64 bits."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(eq=False)
class SeededRng:
    """Deterministic random source: a Mersenne Twister behind a 64-bit seed."""

    seed: int
    algorithm: ClassVar[str] = "mt19937"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise OutOfRange(f"seed must fit in 64 bits, got {self.seed}")
        self._rng = random.Random(self.seed)

    def randrange(self, upper: int) -> int:
        """Uniform integer in 0..upper-1, bias-free."""
        return self._rng.randrange(upper)

    def spawn(self, stream_index: int) -> "SeededRng":
        """An independent stream: base seed XOR mixed index."""
        return SeededRng((self.seed ^ _mix64(stream_index)) & _MASK64)


class RankingSampler:
    """Cumulative integer weights over a distribution's support.

    ``ranking_at(u)`` maps a uniform draw u in 0..denominator-1 to a
    ranking; each ranking owns exactly mass * denominator values of u,
    so the sampling law equals the distribution with no rounding.
    """

    def __init__(self, dist: RankingDistribution):
        support = [(r, p) for r, p in sorted(dist.mass.items()) if p]
        if not support:
            raise OutOfRange("cannot sample from an empty distribution")
        self.denominator = lcm(*(p.denominator for _, p in support))
        self.rankings = [r for r, _ in support]
        weights = [p.numerator * (self.denominator // p.denominator) for _, p in support]
        self.cumulative = list(accumulate(weights))

    def ranking_at(self, u: int) -> Ranking:
        return self.rankings[bisect_right(self.cumulative, u)]

    def draw(self, rng: SeededRng) -> Ranking:
        return self.ranking_at(rng.randrange(self.denominator))


def sample_ranking(dist: RankingDistribution, rng: SeededRng) -> Ranking:
    """One ranking, drawn with probability exactly equal to its mass."""
    return dist._sampler.draw(rng)


def utilities_from_ranking(ranking: Sequence[int]) -> tuple[int, ...]:
    """Rank values by alternative id: the best scores n, the worst 1."""
    n = len(ranking)
    values = [0] * n
    for index, x in enumerate(ranking):
        values[x] = n - index
    return tuple(values)


def ranking_from_utilities(values: Sequence[int]) -> Ranking:
    """Inverse of :func:`utilities_from_ranking`: sort ids by value, descending."""
    return tuple(sorted(range(len(values)), key=lambda x: -values[x]))


def sample_best_worst(
    dist: RankingDistribution,
    B: SubsetLike,
    rng: SeededRng,
) -> tuple[int, int]:
    """Draw a ranking and return the best and worst members of B under it."""
    mask = as_mask(B, dist.n)
    if popcount(mask) < 2:
        raise InvalidContext(f"subset {members(mask)} has fewer than two members")
    ranking = sample_ranking(dist, rng)
    best = worst = -1
    for x in ranking:
        if (mask >> x) & 1:
            if best < 0:
                best = x
            worst = x
    return best, worst


def simulate_dataset(
    dist: RankingDistribution,
    design: Sequence[tuple[SubsetLike, int]],
    rng: SeededRng,
) -> ChoiceCountDataset:
    """Independent best-worst draws per design row, tallied into a dataset.

    Every cell of every designed subset appears in the output, zero
    counts included, so downstream ingestion knows the subset was
    observed.
    """
    records: list[tuple[SubsetLike, int, int, int]] = []
    for subset, trials in design:
        mask = as_mask(subset, dist.n)
        if popcount(mask) < 2:
            raise InvalidContext(f"design subset {members(mask)} has fewer than two members")
        if trials < 0:
            raise OutOfRange(f"negative trial count {trials} for subset {members(mask)}")
        counts: dict[tuple[int, int], int] = {}
        for _ in range(trials):
            pair = sample_best_worst(dist, mask, rng)
            counts[pair] = counts.get(pair, 0) + 1
        mem = members(mask)
        for a in mem:
            for b in mem:
                if a != b:
                    records.append((mask, a, b, counts.get((a, b), 0)))
    return ChoiceCountDataset.build(dist.n, records)


def random_distribution(
    n: int,
    rng: SeededRng,
    *,
    support_size: int | None = None,
    resolution: int = 1000,
) -> RankingDistribution:
    """A seeded random distribution with exact rational masses.

    Picks ``support_size`` distinct rankings (all of them by default)
    and weights each by a positive integer below ``resolution``, then
    normalizes.  Deterministic given the rng state.
    """
    total = factorial(n)
    if support_size is None:
        support_size = total
    if not 1 <= support_size <= total:
        raise OutOfRange(f"support size {support_size} is outside 1..{total}")
    if resolution < 1:
        raise OutOfRange(f"resolution must be positive, got {resolution}")
    pool = list(all_rankings(n))
    for i in range(support_size):
        j = i + rng.randrange(total - i)
        pool[i], pool[j] = pool[j], pool[i]
    chosen = pool[:support_size]
    weights = [1 + rng.randrange(resolution) for _ in chosen]
    denominator = sum(weights)
    return RankingDistribution(
        n=n,
        mass={r: Fraction(w, denominator) for r, w in zip(chosen, weights)},
    )
