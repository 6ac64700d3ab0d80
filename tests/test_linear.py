"""The shared exact solver for x >= 0, Ax = b, checked on small systems of its own."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrum import measure
from bwrum.linear import (
    INCONSISTENT,
    NO_NONNEGATIVE_POINT,
    PARTICULAR,
    PHASE_ONE,
    Reduction,
    nonnegative_solution,
)


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


def _reference_reduction(rows):
    """Fraction Gauss-Jordan: the reduced rows (zero rows last) and the pivots."""
    table = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(table[0])):
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


def _assert_matches_reference(rows):
    """The integer reduction is the reference RREF, and its appended
    columns are row operations that turn the input rows into it."""
    reduction = Reduction(rows)
    expected, pivots = _reference_reduction(rows)
    assert reduction.pivots == pivots
    assert reduction.rank == len(pivots)
    assert all(den > 0 for den in reduction.dens)
    ncols = reduction.ncols
    for row, den, want in zip(reduction.rows, reduction.dens, expected):
        assert [Fraction(v, den) for v in row[:ncols]] == want
        ops = [Fraction(v, den) for v in row[ncols:]]
        assert _times(list(zip(*rows)), ops) == want


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


class TestReduction:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_matches_the_fraction_reference(self, system):
        rows, _ = system
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
