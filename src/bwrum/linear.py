"""Exact nonnegative solutions of linear equations with 0/1 coefficients.

Witness construction and the feasibility oracle end in one question: is
there an x >= 0 with Ax = b, where A has 0/1 entries and depends only
on the number of alternatives, while b changes with every system?  This
module answers it.  It knows nothing of rankings or cells; the caller
builds the rows and the right-hand sides.

Both the elimination and phase 1 work on a dictionary (Chvátal, *Linear
Programming*, 1983, ch. 2-3): one row per basic variable and one column
per nonbasic variable, where row i reads

    basic[i] = sum over j of rows[i][j] / dens[i] * nonbasic[j]

in integers over one positive denominator per row.  The columns of the
basic variables, which a full tableau would carry as unit vectors, are
never stored.  One exchange pivot, :func:`_pivot`, swaps a basic and a
nonbasic variable in place; it is the only row update, so no rational
matrix is ever formed.

A :class:`Reduction` is the exact Gauss-Jordan reduction of A in this
form, built once per A and shared by every b.  A solution then comes
from one of three stages: the particular solution with every free
coordinate zero, phase 1 on the reduced rows when that particular
solution has negative entries, or neither, when the equations are
inconsistent or have no nonnegative point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import ZERO
from .errors import ConstructionInconsistent, DimensionTooLarge

# Cold eliminations, in CPU time with Python 3.11 on x86_64: n = 6 (481
# equations, 720 unknowns, rank 290) takes about 0.6 s, and n = 7 (1345
# equations, 5040 unknowns, rank 890) about 32 s at a peak RSS of 133 MiB.
# Phase 1 at n = 7, on about 4,150 free columns, has not been measured,
# so n = 7 stays refused.
LP_MAX_N = 6

# Stages reported by nonnegative_solution.
INCONSISTENT = "inconsistent"
PARTICULAR = "particular"
PHASE_ONE = "phase 1"
NO_NONNEGATIVE_POINT = "no nonnegative point"


def require_size(n: int) -> None:
    """Refuse base sets above ``LP_MAX_N``, the largest size whose whole solve is measured."""
    if n > LP_MAX_N:
        raise DimensionTooLarge(
            f"exact solving handles n <= {LP_MAX_N}; got n = {n} ({n}! mass variables)"
        )


class Reduction:
    """Gauss-Jordan reduction of 0/1 rows, held as an integer dictionary.

    The variables are numbered: unknown x_j is j, for j below ``ncols``,
    and w_i = (Ax)_i, the value of equation i, is ``ncols + i``.  The
    elimination starts from the bare 0/1 rows, with every w basic and
    every x nonbasic, and its pivot (r, c) swaps x_c into the basis in
    place of the w of row r.  Afterwards ``basic`` and ``nonbasic`` name
    each row's and each column's variable:

    - a pivot row r reads x_c = (its entries on the pivot columns, each
      of which now holds a w) + (its entries on the free columns, which
      still hold their x).  The first part is the row operations that
      :meth:`solve` replays on a right-hand side; the second is minus
      the free part of the reduced row echelon form.
    - a row past ``rank`` expresses its own w through the pivoted ones
      and is zero on the free columns: a linear identity of A, which a
      consistent right-hand side satisfies.

    The coefficient work is paid once and shared by every right-hand
    side.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        nrows = len(rows)
        ncols = len(rows[0])
        table = [[1 if v else 0 for v in row] for row in rows]
        dens = [1] * nrows
        basic = list(range(ncols, ncols + nrows))
        nonbasic = list(range(ncols))
        rank = 0
        pivots: list[tuple[int, int]] = []
        for col in range(ncols):
            pivot_row = next((r for r in range(rank, nrows) if table[r][col]), None)
            if pivot_row is None:
                continue
            for seq in (table, dens, basic):
                seq[rank], seq[pivot_row] = seq[pivot_row], seq[rank]
            _pivot(table, dens, basic, nonbasic, rank, col)
            pivots.append((rank, col))
            rank += 1
            if rank == nrows:
                break

        self.rows = table
        self.dens = dens
        self.basic = basic
        self.nonbasic = nonbasic
        self.rank = rank
        self.pivots = pivots
        self.ncols = ncols

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction] | None:
        """Particular solution with free coordinates zero, or None if inconsistent."""
        ncols = self.ncols
        # A w column takes its equation's right-hand side; a free x is zero,
        # marked None so that its entries are skipped.
        column_values = [rhs[v - ncols] if v >= ncols else None for v in self.nonbasic]
        values = [
            sum((b * v for v, b in zip(row, column_values) if v and b is not None), ZERO) / den
            for row, den in zip(self.rows, self.dens)
        ]
        rank = self.rank
        if any(v != rhs[w - ncols] for v, w in zip(values[rank:], self.basic[rank:])):
            return None
        x = [ZERO] * ncols
        for r, c in self.pivots:
            x[c] = values[r]
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
    """Divide a dictionary row and its denominator by their common factor."""
    g = den
    for v in cells:
        if v:
            g = gcd(g, v)
            if g == 1:
                return cells, den
    return [v // g for v in cells], den // g


def _pivot(
    rows: list[list[int]],
    dens: list[int],
    basic: list[int],
    nonbasic: list[int],
    r: int,
    s: int,
) -> None:
    """Exchange the basic variable of row ``r`` with the nonbasic one of column ``s``.

    Row ``r`` is solved for the entering variable, with the leaving one
    taking its column; every other row has the entering variable
    substituted out.  ``rows`` may hold one more row than ``basic``, an
    objective, which is updated like the others.
    """
    prow = rows[r]
    lead = prow[s]
    sign = -1 if lead > 0 else 1
    new = [sign * v for v in prow]
    new[s] = -sign * dens[r]
    new, pden = _reduce_row(new, abs(lead))
    rows[r], dens[r] = new, pden
    for i, row in enumerate(rows):
        f = row[s]
        if f and i != r:
            updated = [v * pden + f * w for v, w in zip(row, new)]
            updated[s] = f * new[s]
            rows[i], dens[i] = _reduce_row(updated, dens[i] * pden)
    basic[r], nonbasic[s] = nonbasic[s], basic[r]


def _complete_nonnegative(reduction: Reduction, x: Sequence[Fraction]) -> list[Fraction] | None:
    """Pivot from a particular solution to a nonnegative one, if any exists.

    The reduced rows, with the right-hand side fixed, already form a
    feasible dictionary but for sign: each pivot variable equals its
    particular value plus its free-column entries.  A row whose value
    is negative gets an artificial variable, basic in its place, and
    that row's pivot variable joins the free ones as a column.  The
    dictionary's last column is the constant term, which never enters.
    Minimising the sum of the artificials reaches zero exactly when a
    nonnegative solution exists, and Bland's rule (lowest eligible
    variable, lowest basic variable on ratio ties) guarantees
    termination.  An artificial never re-enters, so its column is
    deleted when it leaves.  The objective, that sum, is the last row,
    which :func:`_pivot` updates with the others.  Returns None when no
    nonnegative solution exists.
    """
    ncols = reduction.ncols
    free = [j for j, v in enumerate(reduction.nonbasic) if v < ncols]
    negative = [r for r, c in reduction.pivots if x[c] < ZERO]
    nonbasic = [reduction.nonbasic[j] for j in free] + [reduction.pivots[r][1] for r in negative]
    rows: list[list[int]] = []
    dens: list[int] = []
    basic: list[int] = []
    obj, oden = [0] * (len(nonbasic) + 1), 1
    for r, c in reduction.pivots:
        value = x[c]
        reduced, rden = reduction.rows[r], reduction.dens[r]
        den = lcm(rden, value.denominator)
        scale = den // rden * (-1 if value < ZERO else 1)
        row = [scale * reduced[j] for j in free]
        row += [den if k == r else 0 for k in negative]
        row.append(abs(value.numerator) * (den // value.denominator))
        if value < ZERO:
            obj, oden = _reduce_row([v * den + w * oden for v, w in zip(obj, row)], oden * den)
        basic.append(c if value >= ZERO else ncols + r)
        rows.append(row)
        dens.append(den)
    count = len(rows)
    rows.append(obj)
    dens.append(oden)

    while True:
        objective = rows[count]
        eligible = [v for v, o in zip(nonbasic, objective) if o < 0]
        if not eligible:
            break
        enter = nonbasic.index(min(eligible))
        best_num = best_coef = 0
        leave = -1
        for r in range(count):
            coef = -rows[r][enter]
            if coef > 0:
                num = rows[r][-1]
                if leave < 0:
                    best_num, best_coef, leave = num, coef, r
                else:
                    left = num * best_coef
                    right = best_num * coef
                    if left < right or (left == right and basic[r] < basic[leave]):
                        best_num, best_coef, leave = num, coef, r
        if leave < 0:
            return None
        _pivot(rows, dens, basic, nonbasic, leave, enter)
        if nonbasic[enter] >= ncols:
            del nonbasic[enter]
            for row in rows:
                del row[enter]

    if rows[count][-1]:
        return None
    result = [ZERO] * ncols
    for r in range(count):
        if basic[r] < ncols:
            result[basic[r]] = Fraction(rows[r][-1], dens[r])
    if any(v < ZERO for v in result):
        raise ConstructionInconsistent("phase 1 produced a negative mass")
    return result
