"""Signed subset-lattice transforms of a best-worst system and the sign test.

For an ordered pair (a, b) and a context set B disjoint from {a, b},
the polynomial value is the alternating sum over C of B of
(-1)^(|B|-|C|) times the probability of (a, b) in the complement of C.
The values invert back to the probabilities by summing over subcontexts.

The sign test, every value nonnegative, is a necessary condition for a
ranking-distribution representation, not a sufficient one: the n = 4
signed-mass system of seed 18 in the tests passes every polynomial and
yet no nonnegative masses reproduce it.  The exact solve in
:mod:`bwrum.linear`, which ``construct_witness`` runs, decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import (
    ZERO,
    BWSystem,
    SubsetLike,
    as_mask,
    exact_fraction,
    full_mask,
    iter_submasks,
    members,
    popcount,
)
from .errors import (
    ConstructionInconsistent,
    InvalidContext,
    NotRepresentable,
    OutOfRange,
    WitnessConstructionFailed,
)

if TYPE_CHECKING:
    from .measure import RankingDistribution

REPRESENTABLE = "Representable"
NOT_REPRESENTABLE = "NotRepresentable"


def _check_context(n: int, a: int, b: int, context_mask: int) -> None:
    if a == b:
        raise InvalidContext(f"best and worst coincide ({a})")
    for x in (a, b):
        if not (0 <= x < n):
            raise InvalidContext(f"alternative {x} is outside 0..{n - 1}")
    if (context_mask >> a) & 1 or (context_mask >> b) & 1:
        raise InvalidContext(
            f"context {members(context_mask)} must not contain {a} or {b}"
        )


def bm_polynomial(system: BWSystem, a: int, b: int, context: SubsetLike) -> Fraction:
    """Reference evaluation: the direct alternating sum over subcontexts."""
    mask = as_mask(context, system.n)
    _check_context(system.n, a, b, mask)
    base = full_mask(system.n)
    size = popcount(mask)
    total = ZERO
    for sub in iter_submasks(mask):
        if (size - popcount(sub)) % 2:
            total -= system.prob(base & ~sub, a, b)
        else:
            total += system.prob(base & ~sub, a, b)
    return total


@dataclass(frozen=True)
class PolynomialTable:
    """All polynomial values of a system, keyed by (best, worst, context mask)."""

    n: int
    values: dict[tuple[int, int, int], Fraction]

    def value(self, a: int, b: int, context: SubsetLike) -> Fraction:
        mask = as_mask(context, self.n)
        _check_context(self.n, a, b, mask)
        return self.values[(a, b, mask)]

    def items_sorted(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """Deterministic iteration: by pair, then context size, then members."""
        for (a, b, mask) in sorted(
            self.values, key=lambda key: (key[0], key[1], popcount(key[2]), members(key[2]))
        ):
            yield a, b, mask, self.values[(a, b, mask)]


def all_polynomials(system: BWSystem) -> PolynomialTable:
    """Every polynomial value, via the subtraction recurrence.

    Contexts are visited by increasing size so each value is the stored
    probability of the context's complement minus all strictly smaller
    values for the same pair.
    """
    n = system.n
    base = full_mask(n)
    values: dict[tuple[int, int, int], Fraction] = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            rest = base & ~(1 << a) & ~(1 << b)
            contexts = sorted(iter_submasks(rest), key=popcount)
            for mask in contexts:
                total = system.prob(base & ~mask, a, b)
                for sub in iter_submasks(mask):
                    if sub != mask:
                        total -= values[(a, b, sub)]
                values[(a, b, mask)] = total
    return PolynomialTable(n=n, values=values)


def moebius_reconstruct(table: PolynomialTable, a: int, b: int, context: SubsetLike) -> Fraction:
    """Sum the table over subcontexts, recovering the stored probability."""
    mask = as_mask(context, table.n)
    _check_context(table.n, a, b, mask)
    total = ZERO
    for sub in iter_submasks(mask):
        total += table.values[(a, b, sub)]
    return total


def falmagne_inequality(
    system: BWSystem,
    a: int,
    b: int,
    base_subset: SubsetLike,
    family: Sequence[SubsetLike],
) -> Fraction:
    """Alternating sum over unions of a subset family, anchored at a base subset.

    The value is the sum over index sets J' of the family of
    (-1)^|J'| times the probability of (a, b) in the base subset joined
    with the union over J'.  An empty family gives the bare base
    probability; a one-element family gives the difference against the
    enlarged subset.  Under a ranking-distribution representation every
    such value is nonnegative; the caller interprets the sign.
    """
    n = system.n
    base = as_mask(base_subset, n)
    if a == b:
        raise InvalidContext(f"the pair must be distinct, got ({a}, {a})")
    if not ((base >> a) & 1 and (base >> b) & 1):
        raise InvalidContext(f"{a} and {b} must both belong to the base subset {members(base)}")
    member_masks = []
    for entry in family:
        mask = as_mask(entry, n)
        if mask == full_mask(n):
            raise InvalidContext("family members must be proper subsets or empty")
        member_masks.append(mask)

    total = ZERO
    for chosen in range(1 << len(member_masks)):
        union = base
        bits = 0
        for j, mask in enumerate(member_masks):
            if (chosen >> j) & 1:
                union |= mask
                bits += 1
        term = system.prob(union, a, b)
        total += term if bits % 2 == 0 else -term
    return total


def _most_negative(
    negatives: Sequence[tuple[int, int, int, Fraction]],
) -> tuple[int, int, int, Fraction]:
    """The smallest value; ties broken by (best, worst, context members)."""
    return min(negatives, key=lambda entry: (entry[3], entry[0], entry[1], members(entry[2])))


@dataclass(frozen=True)
class RepresentabilityReport:
    """Verdict of the sign test plus optional witness distribution.

    ``negatives`` lists (best, worst, context mask, value) for every
    strictly negative polynomial, sorted by pair then context members.
    ``approximate`` is set when a nonzero tolerance was used.
    """

    n: int
    verdict: str
    negatives: tuple[tuple[int, int, int, Fraction], ...]
    approximate: bool = False
    witness: "RankingDistribution | None" = None
    witness_verified: bool | None = None

    @property
    def representable(self) -> bool:
        return self.verdict == REPRESENTABLE

    @property
    def most_negative(self) -> tuple[int, int, int, Fraction] | None:
        """The worst certificate; ties broken by (best, worst, context members)."""
        if not self.negatives:
            return None
        return _most_negative(self.negatives)


def check_representable(
    system: BWSystem,
    construct_witness: bool = False,
    *,
    tolerance: object = 0,
) -> RepresentabilityReport:
    """The exact sign test over all polynomials, a necessary condition.

    A nonzero ``tolerance`` flags only values below its negation, marks
    the verdict approximate, and exists for data ingested from floats;
    the default is the exact test.  With ``construct_witness`` a
    distribution reproducing every cell is built and verified before
    being attached; failure to produce or verify one on a system that
    passed the sign test raises :class:`WitnessConstructionFailed`.
    """
    tol = exact_fraction(tolerance)
    if tol < ZERO:
        raise OutOfRange(f"tolerance must be nonnegative, got {tol}")
    table = system._polynomials
    negatives = tuple(
        sorted(
            (
                (a, b, mask, value)
                for a, b, mask, value in table.items_sorted()
                if value < -tol
            ),
            key=lambda entry: (entry[0], entry[1], members(entry[2])),
        )
    )
    verdict = NOT_REPRESENTABLE if negatives else REPRESENTABLE

    witness = None
    witness_verified = None
    if construct_witness and not negatives:
        from . import measure

        try:
            witness = measure.build_distribution(system)
        except (NotRepresentable, ConstructionInconsistent) as exc:
            raise WitnessConstructionFailed(
                f"sign test passed but no witness distribution exists: {exc}"
            ) from exc
        verification = measure.verify_reconstruction(system, witness)
        if not verification.ok:
            raise WitnessConstructionFailed(
                f"constructed distribution misses {len(verification.mismatches)} cell(s)"
            )
        witness_verified = True

    return RepresentabilityReport(
        n=system.n,
        verdict=verdict,
        negatives=negatives,
        approximate=tol != ZERO,
        witness=witness,
        witness_verified=witness_verified,
    )
