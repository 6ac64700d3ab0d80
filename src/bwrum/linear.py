"""Exact nonnegative solutions of linear equations with 0/1 coefficients.

Witness construction and the feasibility oracle end in one question: is
there an x >= 0 with Ax = b, where A has 0/1 entries and depends only
on the number of alternatives, while b changes with every system?  This
module answers it.  It knows nothing of rankings or cells; the caller
builds the rows and the right-hand sides.

A :class:`Reduction` is the exact Gauss-Jordan reduction of A, held as
integer rows over one positive denominator each.  Identity columns
appended to A record the row operations, so any b is transformed in one
pass; the reduction is built once per A and shared by every b.  A
solution then comes from one of three stages: the particular solution
with every free coordinate zero, a phase-1 pivot on the reduced rows
when that particular solution has negative entries, or neither, when the
equations are inconsistent or have no nonnegative point.  The
elimination and phase 1 update their rows with one integer pivot,
:func:`_pivot`, so no rational matrix is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import ZERO
from .errors import ConstructionInconsistent, DimensionTooLarge

# The cold elimination at n = 6 (481 equations, 720 unknowns, rank 290)
# takes about 1.5 s of CPU time with Python 3.11 on x86_64.  n = 7 (1345
# equations, 5040 unknowns) has not been measured, so it stays refused.
LP_MAX_N = 6

# Stages reported by nonnegative_solution.
INCONSISTENT = "inconsistent"
PARTICULAR = "particular"
PHASE_ONE = "phase 1"
NO_NONNEGATIVE_POINT = "no nonnegative point"


def require_size(n: int) -> None:
    """Refuse base sets above ``LP_MAX_N``, the largest measured elimination."""
    if n > LP_MAX_N:
        raise DimensionTooLarge(
            f"exact solving handles n <= {LP_MAX_N}; got n = {n} ({n}! mass variables)"
        )


class Reduction:
    """Gauss-Jordan reduction of 0/1 rows, held as integers.

    Each row is a list of integers over one positive denominator in
    ``dens``.  The elimination starts from the 0/1 rows with identity
    columns appended; afterwards the first ``ncols`` entries of each row
    are the reduced row echelon form and the appended ones are the row
    operations that produced it, which :meth:`solve` replays on any
    right-hand side.  The coefficient work is paid once and shared by
    every right-hand side.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        nrows = len(rows)
        ncols = len(rows[0])
        table = [
            [1 if v else 0 for v in row] + [int(i == j) for j in range(nrows)]
            for i, row in enumerate(rows)
        ]
        dens = [1] * nrows
        rank = 0
        pivots: list[tuple[int, int]] = []
        for col in range(ncols):
            pivot_row = next((r for r in range(rank, nrows) if table[r][col]), None)
            if pivot_row is None:
                continue
            table[rank], table[pivot_row] = table[pivot_row], table[rank]
            dens[rank], dens[pivot_row] = dens[pivot_row], dens[rank]
            _pivot(table, dens, rank, col)
            pivots.append((rank, col))
            rank += 1
            if rank == nrows:
                break

        self.rows = table
        self.dens = dens
        self.rank = rank
        self.pivots = pivots
        self.ncols = ncols

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction] | None:
        """Particular solution with free coordinates zero, or None if inconsistent."""
        ncols = self.ncols
        transformed = [
            sum((b * v for v, b in zip(row[ncols:], rhs) if v), ZERO) / den
            for row, den in zip(self.rows, self.dens)
        ]
        if any(transformed[self.rank :]):
            return None
        x = [ZERO] * ncols
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


def _pivot(rows: list[list[int]], dens: list[int], r: int, c: int) -> None:
    """Make column ``c`` a unit column with its one in row ``r``.

    Row ``r`` is rescaled, its sign flipped if its lead is negative, so
    that the lead equals its denominator; every other row loses its
    multiple of it.
    """
    lead = rows[r][c]
    prow, pden = _reduce_row(rows[r] if lead > 0 else [-v for v in rows[r]], abs(lead))
    rows[r], dens[r] = prow, pden
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            updated = [v * pden - f * w for v, w in zip(row, prow)]
            rows[i], dens[i] = _reduce_row(updated, dens[i] * pden)


def _complete_nonnegative(reduction: Reduction, x: Sequence[Fraction]) -> list[Fraction] | None:
    """Pivot from a particular solution to a nonnegative one, if any exists.

    The reduced rows already form a basic tableau: each has a one in its
    pivot column, zeros in every other pivot column, and the particular
    solution's value there as its right-hand side, held as each integer
    row's final entry.  Phase 1 starts on them directly.  A row whose
    value is negative is negated and gets an artificial variable, which
    is basic in it instead of the pivot column; minimising the sum of the
    artificials reaches zero exactly when a nonnegative solution exists,
    and Bland's rule (lowest eligible index, lowest basic index on ratio
    ties) guarantees termination.  An artificial never re-enters, so it
    is kept only as its index in ``basic``, never as a column.  The
    objective, that sum, is the tableau's last row, which :func:`_pivot`
    updates with the others.  Returns None when no nonnegative solution
    exists.
    """
    rhs_col = reduction.ncols
    rows: list[list[int]] = []
    dens: list[int] = []
    basic: list[int] = []
    obj, oden = [0] * (rhs_col + 1), 1
    for r, c in reduction.pivots:
        value = x[c]
        den = lcm(reduction.dens[r], value.denominator)
        scale = den // reduction.dens[r] * (-1 if value < ZERO else 1)
        row = [scale * v for v in reduction.rows[r][:rhs_col]]
        row.append(abs(value.numerator) * (den // value.denominator))
        if value < ZERO:
            obj, oden = _reduce_row([v * den + w * oden for v, w in zip(obj, row)], oden * den)
        basic.append(c if value >= ZERO else rhs_col + len(rows))
        rows.append(row)
        dens.append(den)
    count = len(rows)
    rows.append(obj)
    dens.append(oden)

    while True:
        enter = next((c for c in range(rhs_col) if rows[count][c] > 0), -1)
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
        _pivot(rows, dens, leave, enter)
        basic[leave] = enter

    if rows[count][rhs_col]:
        return None
    result = [ZERO] * rhs_col
    for r in range(count):
        if basic[r] < rhs_col:
            result[basic[r]] = Fraction(rows[r][rhs_col], dens[r])
    if any(v < ZERO for v in result):
        raise ConstructionInconsistent("phase 1 produced a negative mass")
    return result
