"""Finite best-worst choice systems over a base set of n alternatives.

A system stores, for every subset B of the base set with at least two
members and every ordered pair (a, b) of distinct members of B, the
probability that a is chosen as best and b as worst when B is offered.
All probabilities are exact rationals and every subset's cells must sum
to exactly one.

Alternatives are the integers 0..n-1 throughout the library; display
labels are applied only at the I/O boundary.  Subsets travel as plain
int bitmasks (bit i set means alternative i is a member), which keeps
dictionary keys cheap and comparisons exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from .errors import (
    DuplicateCell,
    EmptySubsetNoSmoothing,
    InconsistentDimensions,
    MissingCell,
    NormalizationViolation,
    OutOfRange,
    OutOfRangeProbability,
)

if TYPE_CHECKING:
    from .measure import Construction
    from .polynomials import PolynomialTable

SubsetLike = Union[int, Iterable[int]]

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_MAX_N = 10


def exact_fraction(value: object) -> Fraction:
    """Convert a value to a Fraction without any binary rounding.

    Strings are parsed as "num/den" or decimal literals.  Floats are
    first rendered through their shortest decimal repr, so 0.6 becomes
    3/5 rather than the nearest binary double.  Fractions and ints pass
    through unchanged.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_mask(subset: SubsetLike, n: int) -> int:
    """Normalize a subset given as a bitmask or an iterable of ids."""
    if isinstance(subset, int):
        mask = subset
        if mask < 0 or mask >= (1 << n):
            raise InconsistentDimensions(
                f"subset mask {mask:#x} does not fit a base set of size {n}"
            )
        return mask
    mask = 0
    for member in subset:
        if not isinstance(member, int) or member < 0 or member >= n:
            raise InconsistentDimensions(
                f"alternative {member!r} is outside the base set 0..{n - 1}"
            )
        mask |= 1 << member
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Alternatives in a mask, ascending."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def choice_subsets(n: int) -> Iterator[int]:
    """Masks of all subsets with at least two members, ascending popcount.

    Within a popcount class the order is by mask value, which makes the
    iteration deterministic for reports and tests.
    """
    by_size: dict[int, list[int]] = {}
    for mask in range(1 << n):
        size = popcount(mask)
        if size >= 2:
            by_size.setdefault(size, []).append(mask)
    for size in sorted(by_size):
        yield from by_size[size]


def ordered_pairs(mask: int) -> Iterator[tuple[int, int]]:
    mem = members(mask)
    for a in mem:
        for b in mem:
            if a != b:
                yield a, b


def required_cells(n: int) -> Iterator[tuple[int, int, int]]:
    """Every (subset mask, best, worst) cell a complete system must fill."""
    for mask in choice_subsets(n):
        for a, b in ordered_pairs(mask):
            yield mask, a, b


@dataclass(frozen=True)
class BWSystem:
    """A complete best-worst choice system on the base set 0..n-1.

    ``cells`` maps (subset mask, best, worst) to an exact probability.
    Instances are immutable by convention; treat ``cells`` as read-only.
    """

    n: int
    cells: dict[tuple[int, int, int], Fraction]

    def prob(self, subset: SubsetLike, best: int, worst: int) -> Fraction:
        """Probability that ``best`` is chosen best and ``worst`` worst in ``subset``."""
        mask = as_mask(subset, self.n)
        try:
            return self.cells[(mask, best, worst)]
        except KeyError:
            raise MissingCell(
                f"no cell for subset {members(mask)}, best={best}, worst={worst}"
            ) from None

    @cached_property
    def _polynomials(self) -> PolynomialTable:
        """The table the sign test and witness construction both read, computed once."""
        from .polynomials import all_polynomials

        return all_polynomials(self)

    @cached_property
    def _construction(self) -> Construction:
        """The witness :func:`bwrum.measure.build_construction` returns, built once."""
        from .measure import _construct

        return _construct(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of re-checking a system's defining identities.

    ``sum_violations`` lists (subset mask, deviation) for subsets whose
    cells do not add to one; the deviation is the exact signed excess.
    ``range_violations`` lists cells outside [0, 1].
    """

    n: int
    sum_violations: tuple[tuple[int, Fraction], ...]
    range_violations: tuple[tuple[int, int, int, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.sum_violations and not self.range_violations


def _check_size(n: int) -> None:
    if n < 2:
        raise InconsistentDimensions(f"a base set needs at least 2 alternatives, got {n}")
    if n > DEFAULT_MAX_N:
        raise OutOfRange(f"base set of size {n} exceeds the cap of {DEFAULT_MAX_N}")


def assemble_system(
    n: int, entries: Iterable[tuple[SubsetLike, tuple[int, int], object]]
) -> BWSystem:
    """Build a system checking structure only, not probability values.

    Membership, duplicates, and completeness are enforced; ranges and
    normalization are not, so the result may fail :func:`validate`.
    This is the entry point for auditing suspect data.
    """
    _check_size(n)
    cells: dict[tuple[int, int, int], Fraction] = {}
    for subset, pair, raw in entries:
        mask = as_mask(subset, n)
        best, worst = pair
        if best == worst:
            raise InconsistentDimensions(f"best and worst coincide ({best}) in {members(mask)}")
        for x in (best, worst):
            if not (0 <= x < n) or not (mask >> x) & 1:
                raise InconsistentDimensions(
                    f"alternative {x} is not a member of subset {members(mask)}"
                )
        if popcount(mask) < 2:
            raise InconsistentDimensions(
                f"subset {members(mask)} has fewer than two members"
            )
        key = (mask, best, worst)
        if key in cells:
            raise DuplicateCell(
                f"cell for subset {members(mask)}, best={best}, worst={worst} appears twice"
            )
        cells[key] = exact_fraction(raw)

    for mask, a, b in required_cells(n):
        if (mask, a, b) not in cells:
            raise MissingCell(
                f"no cell for subset {members(mask)}, best={a}, worst={b}"
            )

    return BWSystem(n=n, cells=cells)


def new_system(
    n: int, entries: Iterable[tuple[SubsetLike, tuple[int, int], object]]
) -> BWSystem:
    """Build and fully validate a system from explicit cell entries.

    Each entry is (subset, (best, worst), probability).  Probabilities
    may be Fractions, ints, or strings such as "1/6"; they are converted
    exactly.  Raises if any required cell is missing or duplicated, any
    probability leaves [0, 1], or any subset's cells do not sum to one.
    """
    system = assemble_system(n, entries)
    report = validate(system)
    if report.range_violations:
        mask, a, b, p = report.range_violations[0]
        raise OutOfRangeProbability(
            f"probability {p} for subset {members(mask)}, best={a}, worst={b} "
            "is outside [0, 1]"
        )
    if report.sum_violations:
        mask, deviation = report.sum_violations[0]
        raise NormalizationViolation(
            f"cells of subset {members(mask)} sum to {ONE + deviation}, expected 1"
        )
    return system


def validate(system: BWSystem) -> ValidationReport:
    """Re-check normalization and ranges, reporting exact deviations.

    Unlike :func:`new_system` this never raises; it is the right tool
    for auditing data that arrived from outside.
    """
    sum_violations: list[tuple[int, Fraction]] = []
    range_violations: list[tuple[int, int, int, Fraction]] = []
    for mask in choice_subsets(system.n):
        total = ZERO
        for a, b in ordered_pairs(mask):
            p = system.prob(mask, a, b)
            if p < ZERO or p > ONE:
                range_violations.append((mask, a, b, p))
            total += p
        if total != ONE:
            sum_violations.append((mask, total - ONE))
    return ValidationReport(
        n=system.n,
        sum_violations=tuple(sum_violations),
        range_violations=tuple(range_violations),
    )


def pair_complement_check(system: BWSystem) -> bool:
    """True when every two-element subset satisfies p(a,b) + p(b,a) = 1."""
    for mask in choice_subsets(system.n):
        if popcount(mask) != 2:
            continue
        a, b = members(mask)
        if system.prob(mask, a, b) + system.prob(mask, b, a) != ONE:
            return False
    return True


@dataclass(frozen=True)
class ChoiceCountDataset:
    """Raw best-worst choice counts: (subset mask, best, worst, count) records."""

    n: int
    records: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def build(
        cls, n: int, records: Iterable[tuple[SubsetLike, int, int, int]]
    ) -> "ChoiceCountDataset":
        rows = []
        for subset, best, worst, count in records:
            mask = as_mask(subset, n)
            if best == worst or not (mask >> best) & 1 or not (mask >> worst) & 1:
                raise InconsistentDimensions(
                    f"record ({members(mask)}, best={best}, worst={worst}) is ill-formed"
                )
            if popcount(mask) < 2:
                raise InconsistentDimensions(
                    f"record subset {members(mask)} has fewer than two members"
                )
            if count < 0:
                raise OutOfRange(f"negative count {count} for subset {members(mask)}")
            rows.append((mask, best, worst, count))
        return cls(n=n, records=tuple(rows))


@dataclass(frozen=True)
class IngestResult:
    """A system estimated from counts plus which subsets had no data at all.

    ``unobserved_subsets`` holds masks that never appeared in the dataset;
    their cells were filled with the uniform distribution.
    """

    system: BWSystem
    unobserved_subsets: tuple[int, ...] = field(default_factory=tuple)


def from_counts(dataset: ChoiceCountDataset, smoothing: object = 0) -> IngestResult:
    """Estimate a system from counts with additive smoothing.

    Each observed subset's cell becomes (count + s) / (total + s * m)
    where m is the number of ordered pairs in the subset and s the
    smoothing constant.  Subsets that never appear in the data are
    filled uniformly and reported in the result.  A subset that appears
    only with zero counts needs s > 0, otherwise its probabilities are
    undefined and :class:`EmptySubsetNoSmoothing` is raised.
    """
    s = exact_fraction(smoothing)
    if s < ZERO:
        raise OutOfRange(f"smoothing must be nonnegative, got {s}")
    n = dataset.n
    _check_size(n)

    grouped: dict[int, dict[tuple[int, int], int]] = {}
    for mask, best, worst, count in dataset.records:
        pairs = grouped.setdefault(mask, {})
        pairs[(best, worst)] = pairs.get((best, worst), 0) + count

    entries: list[tuple[int, tuple[int, int], Fraction]] = []
    unobserved: list[int] = []
    for mask in choice_subsets(n):
        size = popcount(mask)
        pair_count = size * (size - 1)
        if mask not in grouped:
            unobserved.append(mask)
            uniform = Fraction(1, pair_count)
            for a, b in ordered_pairs(mask):
                entries.append((mask, (a, b), uniform))
            continue
        counts = grouped[mask]
        total = sum(counts.values())
        if total == 0 and s == ZERO:
            raise EmptySubsetNoSmoothing(
                f"subset {members(mask)} has only zero counts and smoothing is 0"
            )
        denom = total + s * pair_count
        for a, b in ordered_pairs(mask):
            entries.append((mask, (a, b), Fraction(counts.get((a, b), 0) + s) / denom))

    system = new_system(n, entries)
    return IngestResult(system=system, unobserved_subsets=tuple(unobserved))


def uniform_system(n: int) -> BWSystem:
    """The system in which every subset's cells are equal."""
    entries = []
    for mask in choice_subsets(n):
        size = popcount(mask)
        p = Fraction(1, size * (size - 1))
        for a, b in ordered_pairs(mask):
            entries.append((mask, (a, b), p))
    return new_system(n, entries)
