"""Witness distributions over full rankings, and the oracles that audit them.

A system is representable when some probability distribution over the
n! full rankings induces every best-worst cell: the cell for (B, a, b)
must equal the total mass of rankings in which a is the best and b the
worst member of B.  This module constructs such witnesses, evaluates
the induced cells from any distribution (the forward oracle used as
ground truth everywhere), and re-checks constructed witnesses cell by
cell.

A witness is built by treating the defining identities of the
construction as one simultaneous linear system over the ranking masses:
one equation per (best, worst, outside-set) sandwich event, whose
measure must equal the corresponding polynomial value, plus total mass
one.  The system's coefficient matrix depends only on n, so its exact
Gauss-Jordan reduction is computed once per n with row operations
tracked; each concrete system then costs a right-hand-side transform.
When the particular solution has negative entries, a small exact
phase-1 pivot over the kernel coordinates completes it to a nonnegative
one.  Finally the masses are averaged over the system's permutation
stabiliser, the relabellings of 0..n-1 that leave every cell unchanged.
Each relabelled witness reproduces the system as well, so the average
is still a witness, and it inherits every symmetry of the input: the
uniform system gets the uniform distribution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd
from typing import Sequence

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
from .polynomials import PolynomialTable, all_polynomials
from .rankings import PatternDescriptor, Ranking, all_rankings, matches

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
# Declarative construction: the witness equations, reduced once per n


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


class _ReducedSystem:
    """Gauss-Jordan reduction of the witness equations for one n.

    The reduction tracks its row operations in an auxiliary matrix, so
    any right-hand side can be transformed in one matrix-vector pass;
    the coefficient work is paid once per n and shared by every system.
    """

    def __init__(self, n: int):
        self.n = n
        rankings = all_rankings(n)
        self.rankings = rankings
        self.tags = _equation_tags(n)
        ncols = len(rankings)
        positions = []
        for ranking in rankings:
            pos = [0] * n
            for i, x in enumerate(ranking):
                pos[x] = i
            positions.append(pos)

        rows: list[list[Fraction]] = []
        for tag in self.tags:
            if tag[0] == "cell":
                _, x, y, outside = tag
                rows.append(
                    [
                        ONE if _sandwich_member(positions[j], n, x, y, outside) else ZERO
                        for j in range(ncols)
                    ]
                )
            else:
                rows.append([ONE] * ncols)

        nrows = len(rows)
        trans = [[ONE if i == j else ZERO for j in range(nrows)] for i in range(nrows)]
        rank = 0
        pivots: list[tuple[int, int]] = []
        for col in range(ncols):
            pivot_row = next((r for r in range(rank, nrows) if rows[r][col]), None)
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            trans[rank], trans[pivot_row] = trans[pivot_row], trans[rank]
            inv = ONE / rows[rank][col]
            if inv != ONE:
                rows[rank] = [v * inv for v in rows[rank]]
                trans[rank] = [v * inv for v in trans[rank]]
            for r in range(nrows):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
                    trans[r] = [v - f * w for v, w in zip(trans[r], trans[rank])]
            pivots.append((rank, col))
            rank += 1
            if rank == nrows:
                break

        self.reduced = rows
        self.trans = trans
        self.rank = rank
        self.pivots = pivots
        pivot_cols = {c for _, c in pivots}
        self.free_cols = [c for c in range(ncols) if c not in pivot_cols]
        self.ncols = ncols
        self.nrows = nrows
        self._kernel: list[list[Fraction]] | None = None

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction] | None:
        """Particular solution with free coordinates zero, or None if inconsistent."""
        transformed = []
        for r in range(self.nrows):
            row = self.trans[r]
            transformed.append(sum((row[j] * rhs[j] for j in range(self.nrows) if row[j]), ZERO))
        if any(transformed[r] for r in range(self.rank, self.nrows)):
            return None
        x = [ZERO] * self.ncols
        for r, c in self.pivots:
            x[c] = transformed[r]
        return x

    def kernel_basis(self) -> list[list[Fraction]]:
        if self._kernel is None:
            basis = []
            for fc in self.free_cols:
                vec = [ZERO] * self.ncols
                vec[fc] = ONE
                for r, c in self.pivots:
                    vec[c] = -self.reduced[r][fc]
                basis.append(vec)
            self._kernel = basis
        return self._kernel


_REDUCED_CACHE: dict[int, _ReducedSystem] = {}


def _reduced_system(n: int) -> _ReducedSystem:
    cached = _REDUCED_CACHE.get(n)
    if cached is None:
        cached = _ReducedSystem(n)
        _REDUCED_CACHE[n] = cached
    return cached


def _reduce_row(cells: list[int], den: int) -> tuple[list[int], int]:
    """Divide a tableau row and its denominator by their common factor."""
    g = den
    for v in cells:
        if v:
            g = gcd(g, v)
            if g == 1:
                return cells, den
    return [v // g for v in cells], den // g


def _complete_nonnegative(
    x: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]
) -> list[Fraction] | None:
    """Shift a solution inside the kernel until all coordinates are nonnegative.

    Searches for kernel coefficients t with x + sum_j t_j * basis_j >= 0
    by an exact phase-1 pivot: rows already nonnegative start with their
    surplus variable basic, artificials appear only on violated rows,
    and Bland's rule (lowest eligible index, lowest basic index on
    ratio ties) guarantees termination.  Each tableau row is held as
    integers over one positive denominator, with the right-hand side as
    the final entry, so the pivot loop runs on plain integers instead
    of per-entry normalised rationals.  Returns None when no
    nonnegative solution exists.
    """
    count = len(x)
    if all(v >= ZERO for v in x):
        return list(x)
    if not basis:
        return None
    d = len(basis)
    art_start = 2 * d + count
    n_art = sum(1 for v in x if v < ZERO)
    ncols = art_start + n_art
    rhs_col = ncols
    rows: list[list[int]] = []
    dens: list[int] = []
    basic: list[int] = []
    next_art = art_start
    for i in range(count):
        zs = [basis[j][i] for j in range(d)]
        den = 1
        for z in zs:
            if z:
                den = den * z.denominator // gcd(den, z.denominator)
        rhs = x[i] if x[i] >= ZERO else -x[i]
        den = den * rhs.denominator // gcd(den, rhs.denominator)
        row = [0] * (ncols + 1)
        sign = 1 if x[i] >= ZERO else -1
        for j, z in enumerate(zs):
            if z:
                scaled = z.numerator * (den // z.denominator)
                row[j] = -sign * scaled
                row[d + j] = sign * scaled
        row[2 * d + i] = sign * den
        if sign < 0:
            row[next_art] = den
            basic.append(next_art)
            next_art += 1
        else:
            basic.append(2 * d + i)
        row[rhs_col] = rhs.numerator * (den // rhs.denominator)
        rows.append(row)
        dens.append(den)

    # Reduced phase-1 objective over non-artificial columns, with the
    # total infeasibility carried as the final entry.
    obj_exact = [ZERO] * (art_start + 1)
    for r in range(count):
        if basic[r] >= art_start:
            den = dens[r]
            row = rows[r]
            for c in range(art_start):
                if row[c]:
                    obj_exact[c] += Fraction(row[c], den)
            obj_exact[art_start] += Fraction(row[rhs_col], den)
    oden = 1
    for v in obj_exact:
        if v:
            oden = oden * v.denominator // gcd(oden, v.denominator)
    obj = [v.numerator * (oden // v.denominator) for v in obj_exact]

    while True:
        enter = next((c for c in range(art_start) if obj[c] > 0), -1)
        if enter < 0:
            break
        best_num = best_coef = 0
        leave = -1
        for r in range(count):
            coef = rows[r][enter]
            if coef > 0:
                num = rows[r][rhs_col]
                if leave < 0:
                    best_num, best_coef, leave = num, coef, r
                else:
                    left = num * best_coef
                    right = best_num * coef
                    if left < right or (left == right and basic[r] < basic[leave]):
                        best_num, best_coef, leave = num, coef, r
        if leave < 0:
            return None
        # The leaving row's old denominator cancels when the row is
        # rescaled to make the pivot entry one.
        prow, pden = _reduce_row(rows[leave], rows[leave][enter])
        rows[leave] = prow
        dens[leave] = pden
        for r in range(count):
            if r == leave:
                continue
            row = rows[r]
            f = row[enter]
            if f:
                updated = [v * pden - f * w for v, w in zip(row, prow)]
                rows[r], dens[r] = _reduce_row(updated, dens[r] * pden)
        f = obj[enter]
        if f:
            pslice = prow[:art_start]
            pslice.append(prow[rhs_col])
            updated = [v * pden - f * w for v, w in zip(obj, pslice)]
            obj, oden = _reduce_row(updated, oden * pden)
        basic[leave] = enter

    if obj[art_start]:
        return None
    shift = [ZERO] * d
    for r in range(count):
        var = basic[r]
        if var < d:
            shift[var] += Fraction(rows[r][rhs_col], dens[r])
        elif var < 2 * d:
            shift[var - d] -= Fraction(rows[r][rhs_col], dens[r])
    result = [
        x[i] + sum((basis[j][i] * shift[j] for j in range(d) if shift[j]), ZERO)
        for i in range(count)
    ]
    if any(v < ZERO for v in result):
        raise ConstructionInconsistent("kernel completion produced a negative mass")
    return result


def _declarative_masses(
    system: BWSystem, table: PolynomialTable
) -> tuple[dict[Ranking, Fraction], str, tuple[str, ...]]:
    reduced = _reduced_system(system.n)
    rhs = [
        table.values[(tag[1], tag[2], tag[3])] if tag[0] == "cell" else ONE
        for tag in reduced.tags
    ]
    particular = reduced.solve(rhs)
    if particular is None:
        raise ConstructionInconsistent(
            "the witness equations for this system are inconsistent; "
            "no ranking distribution reproduces every cell"
        )
    if all(v >= ZERO for v in particular):
        values, mode, notes = particular, "exact-solve", ()
    else:
        completed = _complete_nonnegative(particular, reduced.kernel_basis())
        if completed is None:
            raise ConstructionInconsistent(
                "the witness equations admit solutions, but none with all masses nonnegative"
            )
        values = completed
        mode = "kernel-completed"
        notes = ("particular solution had negative entries; completed inside the kernel",)
    masses = {
        ranking: value
        for ranking, value in zip(reduced.rankings, values)
        if value
    }
    return masses, mode, notes


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
        diagnostics: tuple[str, ...],
        table: PolynomialTable,
    ):
        self.system = system
        self.distribution = distribution
        self.mode = mode
        self.diagnostics = diagnostics
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


_CONSTRUCTION_CACHE: OrderedDict[int, Construction] = OrderedDict()
_CONSTRUCTION_CACHE_LIMIT = 8


def build_construction(system: BWSystem) -> Construction:
    """Construct (or fetch from cache) a witness for a representable system."""
    key = id(system)
    hit = _CONSTRUCTION_CACHE.get(key)
    if hit is not None and hit.system is system:
        _CONSTRUCTION_CACHE.move_to_end(key)
        return hit

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

    masses, mode, notes = _declarative_masses(system, table)
    group = _stabiliser(system)
    if len(group) > 1:
        masses = _symmetrised(masses, group)

    built = Construction(
        system=system,
        distribution=RankingDistribution(n=system.n, mass=masses),
        mode=mode,
        diagnostics=notes,
        table=table,
    )
    _CONSTRUCTION_CACHE[key] = built
    while len(_CONSTRUCTION_CACHE) > _CONSTRUCTION_CACHE_LIMIT:
        _CONSTRUCTION_CACHE.popitem(last=False)
    return built


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

