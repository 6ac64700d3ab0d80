"""Pattern sets of full rankings: membership, enumeration, counting.

A pattern S(prefix; G; suffix) collects the rankings in which the
prefix elements appear in the given order, every element of the ground
set G that is not listed appears after the whole prefix and before the
whole suffix, and the suffix elements appear in the given order.
Elements outside G that are not listed are unconstrained.  When no
unlisted ground element exists the prefix chain still links directly to
the suffix chain, so a fully listed pattern over the whole base set
pins down a single ranking.

Rankings are stored best-first; the rank value of alternative x in a
ranking of length n is n minus its index, so larger means better.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Iterable, Sequence

from .core import SubsetLike, as_mask, full_mask, iter_submasks, members, popcount
from .errors import InvalidContext, MalformedDescriptor, OutOfRange

Ranking = tuple[int, ...]


@dataclass(frozen=True)
class PatternDescriptor:
    """Immutable description of a pattern: ordered prefix, ground mask, ordered suffix."""

    prefix: tuple[int, ...]
    ground: int
    suffix: tuple[int, ...]

    @property
    def listed(self) -> tuple[int, ...]:
        return self.prefix + self.suffix


def pattern(prefix: Sequence[int], ground: SubsetLike, suffix: Sequence[int], n: int) -> PatternDescriptor:
    """Build a descriptor and validate it against a base set of size n."""
    desc = PatternDescriptor(tuple(prefix), as_mask(ground, n), tuple(suffix))
    _check_descriptor(desc, n)
    return desc


def _check_descriptor(descriptor: PatternDescriptor, n: int) -> None:
    listed = descriptor.listed
    if len(set(listed)) != len(listed):
        raise MalformedDescriptor(f"listed elements {listed} repeat an alternative")
    for x in listed:
        if not isinstance(x, int) or not (0 <= x < n):
            raise MalformedDescriptor(f"listed alternative {x!r} is outside 0..{n - 1}")
    if descriptor.ground < 0 or descriptor.ground >= (1 << n):
        raise MalformedDescriptor(
            f"ground mask {descriptor.ground:#x} does not fit a base set of size {n}"
        )


def all_rankings(n: int) -> tuple[Ranking, ...]:
    """Every full ranking of 0..n-1, in lexicographic order."""
    return tuple(permutations(range(n)))


def matches(descriptor: PatternDescriptor, ranking: Sequence[int]) -> bool:
    """Does a full ranking satisfy the descriptor's chain conditions?"""
    n = len(ranking)
    _check_descriptor(descriptor, n)
    if sorted(ranking) != list(range(n)):
        raise MalformedDescriptor(f"{ranking!r} is not a ranking of 0..{n - 1}")
    pos = {x: i for i, x in enumerate(ranking)}

    prefix, suffix = descriptor.prefix, descriptor.suffix
    for earlier, later in zip(prefix, prefix[1:]):
        if pos[earlier] > pos[later]:
            return False
    for earlier, later in zip(suffix, suffix[1:]):
        if pos[earlier] > pos[later]:
            return False

    listed = set(prefix) | set(suffix)
    lo = pos[prefix[-1]] if prefix else -1
    hi = pos[suffix[0]] if suffix else n
    unlisted = [x for x in members(descriptor.ground) if x not in listed]
    if not unlisted:
        # Chain bridging: with nothing in between, the prefix still has
        # to finish before the suffix starts.
        return lo < hi
    return all(lo < pos[x] < hi for x in unlisted)


def enumerate_pattern(descriptor: PatternDescriptor, n: int) -> frozenset[Ranking]:
    """All rankings matching the descriptor.

    Built constructively: permute the unlisted ground elements between
    the chains, then interleave the unconstrained elements into every
    gap.
    """
    _check_descriptor(descriptor, n)
    listed = set(descriptor.listed)
    unlisted = [x for x in members(descriptor.ground) if x not in listed]
    free = [x for x in range(n) if x not in listed and not (descriptor.ground >> x) & 1]

    out: set[Ranking] = set()
    for middle in permutations(unlisted):
        skeletons: list[Ranking] = [descriptor.prefix + middle + descriptor.suffix]
        for x in free:
            skeletons = [
                seq[:i] + (x,) + seq[i:] for seq in skeletons for i in range(len(seq) + 1)
            ]
        out.update(skeletons)
    return frozenset(out)


def count_pattern(n: int, m: int, k: int) -> int:
    """Closed-form size of a pattern with k listed elements.

    Here m is the number of alternatives outside the ground set and k
    the number of listed elements (all belonging to the ground set).
    The count (n-m-k)! * n!/(n-m)! does not depend on how the k listed
    elements divide between prefix and suffix.
    """
    if n < 2 or m < 0 or k < 1 or k > n - m:
        raise OutOfRange(
            f"count_pattern needs n >= 2, m >= 0 and 1 <= k <= n-m; got n={n}, m={m}, k={k}"
        )
    return factorial(n - m - k) * factorial(n) // factorial(n - m)


def split_partition(n: int, a: int, b: int, B: SubsetLike) -> tuple[PatternDescriptor, ...]:
    """Descriptors partitioning S(a; A-B; b) by how B's elements sit outside.

    For every subset C of B, every ordering of C, and every split of
    that ordering into a part above a and a part below b, one
    full-ground descriptor is emitted.  The resulting pattern sets are
    pairwise disjoint and their union is S(a; A-B; b).  Order: subsets
    by size then members, orderings lexicographic, splits with the
    longest top part first.
    """
    mask = as_mask(B, n)
    for x in (a, b):
        if not (0 <= x < n):
            raise InvalidContext(f"alternative {x} is outside 0..{n - 1}")
    if a == b:
        raise InvalidContext(f"the pair must be distinct, got ({a}, {b})")
    if (mask >> a) & 1 or (mask >> b) & 1:
        raise InvalidContext(f"{a} and {b} must lie outside the subset {members(mask)}")

    ground = full_mask(n)
    out: list[PatternDescriptor] = []
    subsets = sorted(iter_submasks(mask), key=lambda s: (popcount(s), members(s)))
    for sub in subsets:
        for order in permutations(members(sub)):
            for cut in range(len(order), -1, -1):
                out.append(
                    PatternDescriptor(
                        prefix=order[:cut] + (a,),
                        ground=ground,
                        suffix=(b,) + order[cut:],
                    )
                )
    return tuple(out)


def s_union(n: int, elements: Sequence[int]) -> tuple[PatternDescriptor, ...]:
    """The k-1 full-ground descriptors splitting a listed chain at each interior point."""
    elems = tuple(elements)
    if len(elems) < 2:
        raise MalformedDescriptor(f"need at least two elements, got {elems}")
    ground = full_mask(n)
    descriptors = tuple(
        PatternDescriptor(prefix=elems[:j], ground=ground, suffix=elems[j:])
        for j in range(1, len(elems))
    )
    for desc in descriptors:
        _check_descriptor(desc, n)
    return descriptors


def insertion_identity_check(prefix: Sequence[int], suffix: Sequence[int], n: int) -> bool:
    """Check that inserting each unlisted element next to the chain partitions the pattern.

    Both insertion sides are verified by enumeration: the union over
    unlisted a of S(prefix+a; A; suffix) and of S(prefix; A; a+suffix)
    must each be disjoint and equal to S(prefix; A; suffix).  With no
    unlisted element left the identity is vacuous and reported true.
    """
    ground = full_mask(n)
    parent = pattern(prefix, ground, suffix, n)
    base = enumerate_pattern(parent, n)
    listed = set(parent.listed)
    unlisted = [x for x in range(n) if x not in listed]
    if not unlisted:
        return True

    def disjoint_union(parts: Iterable[frozenset[Ranking]]) -> tuple[set[Ranking], int]:
        union: set[Ranking] = set()
        size = 0
        for part in parts:
            size += len(part)
            union |= part
        return union, size

    below = disjoint_union(
        enumerate_pattern(
            PatternDescriptor(parent.prefix + (x,), ground, parent.suffix), n
        )
        for x in unlisted
    )
    above = disjoint_union(
        enumerate_pattern(
            PatternDescriptor(parent.prefix, ground, (x,) + parent.suffix), n
        )
        for x in unlisted
    )
    return all(
        union == base and size == len(base) for union, size in (below, above)
    )


def nested_sum_identity(n: int, m: int) -> int:
    """Evaluate the nested (m-1)-fold sum literally; its value is binomial(n, m).

    The indices run 1 <= i_1 <= i_2 <= ... <= i_{m-1} <= n-m+1 and the
    innermost summand is n-m+2-i_{m-1}.
    """
    if not 2 <= m < n:
        raise OutOfRange(f"need 2 <= m < n, got m={m}, n={n}")
    upper = n - m + 1

    def level(depth: int, lower: int) -> int:
        if depth == m - 1:
            return sum(n - m + 2 - i for i in range(lower, upper + 1))
        return sum(level(depth + 1, i) for i in range(lower, upper + 1))

    return level(1, 1)
