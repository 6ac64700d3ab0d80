"""Exact nonnegative solutions of linear equations with 0/1 coefficients.

Both routes to a representability verdict end in the same question: is
there an x >= 0 with Ax = b, where A has 0/1 entries and depends only
on the number of alternatives, while b changes with every system?  This
module answers it once for both.  It knows nothing of rankings or cells;
callers build the rows and the right-hand sides.

A :class:`Reduction` is the exact Gauss-Jordan reduction of A, with its
row operations tracked so that any b is transformed in one
matrix-vector pass; it is built once per A and shared by every b.  A
solution then comes from one of three stages: the particular solution
with every free coordinate zero, a phase-1 pivot inside the kernel of A
when that particular solution has negative entries, or neither, when the
equations are inconsistent or have no nonnegative point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .core import ONE, ZERO
from .errors import ConstructionInconsistent, DimensionTooLarge

LP_MAX_N = 6

# Stages reported by nonnegative_solution.
INCONSISTENT = "inconsistent"
PARTICULAR = "particular"
KERNEL_COMPLETED = "kernel-completed"
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


def nonnegative_solution(
    reduction: Reduction, rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, str]:
    """A solution x >= 0 of the reduced equations for ``rhs``, or None.

    Also returns the stage that decided: ``INCONSISTENT`` or
    ``NO_NONNEGATIVE_POINT`` with None, ``PARTICULAR`` or
    ``KERNEL_COMPLETED`` with a solution.
    """
    particular = reduction.solve(rhs)
    if particular is None:
        return None, INCONSISTENT
    if all(v >= ZERO for v in particular):
        return particular, PARTICULAR
    completed = _complete_nonnegative(particular, reduction.kernel_basis())
    if completed is None:
        return None, NO_NONNEGATIVE_POINT
    return completed, KERNEL_COMPLETED


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
