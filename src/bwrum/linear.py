"""Exact nonnegative solutions of linear equations with 0/1 coefficients.

Witness construction and the feasibility oracle end in one question: is
there an x >= 0 with Ax = b, where A has 0/1 entries and depends only
on the number of alternatives, while b changes with every system?  This
module answers it.  It knows nothing of rankings or cells; the caller
builds the rows and the right-hand sides.

A :class:`Reduction` is the exact Gauss-Jordan reduction of A, with its
row operations tracked so that any b is transformed in one
matrix-vector pass; it is built once per A and shared by every b.  A
solution then comes from one of three stages: the particular solution
with every free coordinate zero, a phase-1 pivot on the reduced rows
when that particular solution has negative entries, or neither, when the
equations are inconsistent or have no nonnegative point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import ONE, ZERO
from .errors import ConstructionInconsistent, DimensionTooLarge

LP_MAX_N = 6

# Stages reported by nonnegative_solution.
INCONSISTENT = "inconsistent"
PARTICULAR = "particular"
PHASE_ONE = "phase 1"
NO_NONNEGATIVE_POINT = "no nonnegative point"


def require_size(n: int) -> None:
    """Refuse base sets whose n! unknowns the exact elimination cannot finish."""
    if n > LP_MAX_N:
        raise DimensionTooLarge(
            f"exact solving handles n <= {LP_MAX_N}; got n = {n} ({n}! mass variables)"
        )


class Reduction:
    """Gauss-Jordan reduction of 0/1 rows, with tracked row operations.

    The reduction tracks its row operations in an auxiliary matrix, so
    any right-hand side can be transformed in one matrix-vector pass;
    the coefficient work is paid once and shared by every right-hand side.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = [[ONE if v else ZERO for v in row] for row in rows]
        nrows = len(rows)
        ncols = len(rows[0])
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
        self.ncols = ncols
        self.nrows = nrows

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


def nonnegative_solution(
    reduction: Reduction, rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, str]:
    """A solution x >= 0 of the reduced equations for ``rhs``, or None.

    Also returns the stage that decided: ``INCONSISTENT`` or
    ``NO_NONNEGATIVE_POINT`` with None, ``PARTICULAR`` or ``PHASE_ONE``
    with a solution.
    """
    particular = reduction.solve(rhs)
    if particular is None:
        return None, INCONSISTENT
    if all(v >= ZERO for v in particular):
        return particular, PARTICULAR
    completed = _complete_nonnegative(reduction, particular)
    if completed is None:
        return None, NO_NONNEGATIVE_POINT
    return completed, PHASE_ONE


def _reduce_row(cells: list[int], den: int) -> tuple[list[int], int]:
    """Divide a tableau row and its denominator by their common factor."""
    g = den
    for v in cells:
        if v:
            g = gcd(g, v)
            if g == 1:
                return cells, den
    return [v // g for v in cells], den // g


def _complete_nonnegative(reduction: Reduction, x: Sequence[Fraction]) -> list[Fraction] | None:
    """Pivot from a particular solution to a nonnegative one, if any exists.

    The reduced rows already form a basic tableau: each has a one in its
    pivot column, zeros in every other pivot column, and the particular
    solution's value there as its right-hand side.  Phase 1 starts on
    them directly.  A row whose value is negative is negated and gets an
    artificial variable, which is basic in it instead of the pivot
    column; minimising the sum of the artificials reaches zero exactly
    when a nonnegative solution exists, and Bland's rule (lowest
    eligible index, lowest basic index on ratio ties) guarantees
    termination.  An artificial never re-enters, so it is kept only as
    its index in ``basic``, never as a column.  Each tableau row is held
    as integers over one positive denominator, with the right-hand side
    as the final entry, so the pivot loop runs on plain integers instead
    of per-entry normalised rationals.  Returns None when no nonnegative
    solution exists.
    """
    rhs_col = reduction.ncols
    rows: list[list[int]] = []
    dens: list[int] = []
    basic: list[int] = []
    for r, c in reduction.pivots:
        entries = reduction.reduced[r]
        value = x[c]
        den = lcm(value.denominator, *(v.denominator for v in entries))
        sign = -1 if value < ZERO else 1
        row = [sign * v.numerator * (den // v.denominator) for v in entries]
        row.append(sign * value.numerator * (den // value.denominator))
        basic.append(c if sign > 0 else rhs_col + len(rows))
        rows.append(row)
        dens.append(den)
    count = len(rows)

    # Reduced phase-1 objective: the sum of the artificial rows, with the
    # total infeasibility carried as the final entry.
    artificial = [r for r in range(count) if basic[r] >= rhs_col]
    oden = lcm(*(dens[r] for r in artificial))
    obj = [0] * (rhs_col + 1)
    for r in artificial:
        scale = oden // dens[r]
        obj = [v + scale * w for v, w in zip(obj, rows[r])]
    obj, oden = _reduce_row(obj, oden)

    while True:
        enter = next((c for c in range(rhs_col) if obj[c] > 0), -1)
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
            updated = [v * pden - f * w for v, w in zip(obj, prow)]
            obj, oden = _reduce_row(updated, oden * pden)
        basic[leave] = enter

    if obj[rhs_col]:
        return None
    result = [ZERO] * rhs_col
    for r in range(count):
        if basic[r] < rhs_col:
            result[basic[r]] = Fraction(rows[r][rhs_col], dens[r])
    if any(v < ZERO for v in result):
        raise ConstructionInconsistent("phase 1 produced a negative mass")
    return result
