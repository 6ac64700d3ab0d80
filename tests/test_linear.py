"""The shared exact solver for x >= 0, Ax = b, checked on small systems of its own."""

from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwrum import linear, measure
from bwrum.linear import (
    INCONSISTENT,
    NO_NONNEGATIVE_POINT,
    PARTICULAR,
    PHASE_ONE,
    Reduction,
    nonnegative_solution,
)

from test_lp import PHASE_ONE_VERDICTS, signed_mass_system


def _times(rows, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]


def _solve_square(matrix, rhs):
    """The unique solution of a square system, or None when it is singular."""
    size = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] / aug[r][r] for r in range(size)]


def _brute_force_feasible(rows, rhs):
    """Is there an x >= 0 with Ax = b?  Tries every basic solution.

    A feasible system has a basic feasible solution: one supported on
    linearly independent columns C, which some square nonsingular block
    A[R, C] determines.  Trying every such block (and x = 0) is therefore
    a complete search.
    """
    nrows, ncols = len(rows), len(rows[0])
    for size in range(min(nrows, ncols) + 1):
        for rsub in combinations(range(nrows), size):
            for csub in combinations(range(ncols), size):
                block = [[rows[r][c] for c in csub] for r in rsub]
                part = _solve_square(block, [rhs[r] for r in rsub])
                if part is None or any(v < 0 for v in part):
                    continue
                x = [Fraction(0)] * ncols
                for c, v in zip(csub, part):
                    x[c] = v
                if _times(rows, x) == list(rhs):
                    return True
    return False


def _reference_reduction(rows, ncols=None):
    """Fraction Gauss-Jordan: the reduced rows (zero rows last) and the pivots.

    Pivots are sought in the first ``ncols`` columns only (all by
    default), so a right-hand side appended as a last column is carried
    along without becoming a pivot.
    """
    table = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(table[0]) if ncols is None else ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(table)) if table[r][col]), None)
        if pivot is None:
            continue
        table[rank], table[pivot] = table[pivot], table[rank]
        table[rank] = [v / table[rank][col] for v in table[rank]]
        for r in range(len(table)):
            if r != rank and table[r][col]:
                f = table[r][col]
                table[r] = [v - f * w for v, w in zip(table[r], table[rank])]
        pivots.append((rank, col))
    return table, pivots


def _dictionary_row(reduction, r):
    """Row r of the reduction as (its part of the RREF, its row operations).

    The row reads basic = sum of entry * nonbasic.  Moving every x to
    the left and every w = Ax to the right gives rref . x = ops . w,
    an identity in x.
    """
    ncols, den = reduction.ncols, reduction.dens[r]
    rref = [Fraction(0)] * ncols
    ops = [Fraction(0)] * len(reduction.basic)
    basic = reduction.basic[r]
    if basic < ncols:
        rref[basic] += 1
    else:
        ops[basic - ncols] -= 1
    for v, var in zip(reduction.rows[r], reduction.nonbasic):
        if var < ncols:
            rref[var] -= Fraction(v, den)
        else:
            ops[var - ncols] += Fraction(v, den)
    return rref, ops


def _assert_matches_reference(rows):
    """The integer reduction is the reference RREF, and its row
    operations turn the input rows into it."""
    reduction = Reduction(rows)
    expected, pivots = _reference_reduction(rows)
    assert reduction.pivots == pivots
    assert reduction.rank == len(pivots)
    assert all(den > 0 for den in reduction.dens)
    # Stored rows are in lowest terms, whatever the pivots left behind.
    assert all(gcd(den, *row) == 1 for row, den in zip(reduction.rows, reduction.dens))
    for r, want in enumerate(expected):
        rref, ops = _dictionary_row(reduction, r)
        assert rref == want
        assert _times(list(zip(*rows)), ops) == want


def _reference_nonnegative_solution(rows, rhs):
    """Fraction full-tableau Bland phase 1 from the reference reduction.

    The reduced rows with the transformed right-hand side form a basic
    tableau; a row whose value is negative is negated and an artificial
    becomes basic in it.  The objective row is the sum of those rows.
    The entering column is the lowest one with a positive objective
    entry, and ratio ties go to the lowest basic variable, artificials
    (numbered from ncols on) last.  Returns (x, stage) like
    nonnegative_solution.
    """
    ncols = len(rows[0])
    table, pivots = _reference_reduction(
        [list(row) + [b] for row, b in zip(rows, rhs)], ncols
    )
    if any(row[ncols] for row in table[len(pivots):]):
        return None, INCONSISTENT
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = table[r][ncols]
    if all(v >= 0 for v in x):
        return x, PARTICULAR
    tableau, basic = [], []
    for r, c in pivots:
        row = table[r]
        if row[ncols] < 0:
            row = [-v for v in row]
            basic.append(ncols + r)
        else:
            basic.append(c)
        tableau.append(row)
    obj = [sum((row[j] for row, b in zip(tableau, basic) if b >= ncols), Fraction(0))
           for j in range(ncols + 1)]
    while True:
        enter = next((c for c in range(ncols) if obj[c] > 0), None)
        if enter is None:
            break
        candidates = [r for r, row in enumerate(tableau) if row[enter] > 0]
        if not candidates:
            return None, NO_NONNEGATIVE_POINT
        leave = min(candidates, key=lambda r: (tableau[r][ncols] / tableau[r][enter], basic[r]))
        prow = [v / tableau[leave][enter] for v in tableau[leave]]
        tableau[leave] = prow
        for r, row in enumerate(tableau):
            if r != leave and row[enter]:
                tableau[r] = [v - row[enter] * w for v, w in zip(row, prow)]
        obj = [v - obj[enter] * w for v, w in zip(obj, prow)]
        basic[leave] = enter
    if obj[ncols]:
        return None, NO_NONNEGATIVE_POINT
    x = [Fraction(0)] * ncols
    for row, b in zip(tableau, basic):
        if b < ncols:
            x[b] = row[ncols]
    return x, PHASE_ONE


@st.composite
def small_systems(draw):
    """0/1 rows (at most 4 x 6) and a right-hand side.

    The right-hand side is either A x0 for a small signed integer x0, so
    the equations are consistent but x0 itself may be negative, or drawn
    freely, so they may be inconsistent.
    """
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-2, 3), min_size=ncols, max_size=ncols))
        rhs = _times(rows, x0)
    else:
        free = draw(st.lists(st.integers(-1, 3), min_size=nrows, max_size=nrows))
        rhs = [Fraction(v) for v in free]
    return rows, rhs


def _consistent(rows, x0):
    return rows, _times(rows, x0)


# Systems where the ratio test ties and the tie-break decides which
# vertex phase 1 reaches.  Draws of small_systems almost never have one:
# 20,000 random draws of that size held none.  Breaking ties by the
# lowest row, by the highest basic variable or by the last row each
# changes the answer on at least one of these two.
RATIO_TIES = [
    _consistent(
        [[0, 1, 0, 1, 0, 1, 1], [1, 0, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 1, 0], [1, 0, 1, 1, 0, 1, 1]],
        [1, 0, 2, 1, -1, 0, 3],
    ),
    _consistent(
        [
            [0, 0, 0, 1, 1, 1, 1, 0, 1],
            [0, 1, 1, 1, 0, 0, 0, 0, 0],
            [1, 1, 0, 1, 1, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0, 0, 1, 0],
        ],
        [-2, 1, 3, -1, 2, 1, 1, -2, 1],
    ),
]


def _reducing_every_row():
    """Make every pivot reduce each row it touches, as one whose
    denominator has grown past a machine word would be."""
    return patch.object(linear, "_REDUCE_ABOVE", 0)


class TestReduction:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_matches_the_fraction_reference(self, system):
        rows, _ = system
        _assert_matches_reference(rows)

    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_matches_the_fraction_reference_reducing_every_row(self, system):
        rows, _ = system
        with _reducing_every_row():
            _assert_matches_reference(rows)

    def test_rows_the_pivots_leave_unreduced_are_stored_in_lowest_terms(self):
        # Larger than any small_systems draw: the elimination leaves a row
        # with a common factor, which only the final reduction removes.
        rows = [
            [1, 0, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 0],
            [1, 0, 1, 1, 0, 1],
            [1, 1, 1, 0, 0, 0],
            [0, 0, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 1],
        ]
        _assert_matches_reference(rows)

    @pytest.mark.parametrize("n", [3, 4])
    def test_cell_rows_match_the_fraction_reference(self, n):
        _, rows = measure._cell_rows(n)
        _assert_matches_reference(rows)


class TestNonnegativeSolution:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_agrees_with_brute_force(self, system):
        rows, rhs = system
        x, stage = nonnegative_solution(Reduction(rows), rhs)
        assert (x is not None) == _brute_force_feasible(rows, rhs)
        if x is None:
            assert stage in (INCONSISTENT, NO_NONNEGATIVE_POINT)
        else:
            assert stage in (PARTICULAR, PHASE_ONE)
            assert all(v >= 0 for v in x)
            assert _times(rows, x) == rhs

    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    @example(RATIO_TIES[0])
    @example(RATIO_TIES[1])
    def test_matches_the_fraction_reference_phase_one(self, system):
        rows, rhs = system
        assert nonnegative_solution(Reduction(rows), rhs) == _reference_nonnegative_solution(
            rows, rhs
        )

    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    @example(RATIO_TIES[0])
    @example(RATIO_TIES[1])
    def test_matches_the_fraction_reference_phase_one_reducing_every_row(self, system):
        rows, rhs = system
        with _reducing_every_row():
            result = nonnegative_solution(Reduction(rows), rhs)
        assert result == _reference_nonnegative_solution(rows, rhs)

    def test_cell_rows_match_the_fraction_reference_phase_one(self):
        # The 20 pinned signed-mass systems at n = 4 all reach phase 1.
        cell_order, rows = measure._cell_rows(4)
        reduction = Reduction(rows)
        for seed in PHASE_ONE_VERDICTS:
            _, system = signed_mass_system(seed)
            rhs = [system.prob(mask, a, b) for mask, a, b in cell_order] + [Fraction(1)]
            result = nonnegative_solution(reduction, rhs)
            assert result[1] in (PHASE_ONE, NO_NONNEGATIVE_POINT), seed
            assert result == _reference_nonnegative_solution(rows, rhs), seed

    def test_negative_particular_solution_without_free_columns(self):
        # The only solution is (1, -1); no free column can repair it.
        x, stage = nonnegative_solution(Reduction([[1, 0], [0, 1]]), [Fraction(1), Fraction(-1)])
        assert (x, stage) == (None, NO_NONNEGATIVE_POINT)

    def test_phase_one_ends_with_an_artificial_basic_at_zero(self):
        # The particular solution is (1, -1, 0), so the second reduced row
        # x1 - x2 = -1 is negated and gets an artificial.  x2 enters, the
        # ratio test ties at 1 and Bland's rule drops x0 from the first
        # row, which leaves the artificial basic at zero: the phase-1
        # optimum is reached with it still in the basis.
        rows = [[1, 1, 0], [1, 0, 1]]
        x, stage = nonnegative_solution(Reduction(rows), [Fraction(0), Fraction(1)])
        assert stage == PHASE_ONE
        assert x == [0, 0, 1]
