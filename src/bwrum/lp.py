"""Exact linear feasibility oracle over ranking masses.

Decides whether nonnegative masses on all n! rankings can reproduce a
system: one equation per (subset, best, worst) cell, whose 0/1
coefficients mark the rankings ranking that pair first and last within
the subset, plus total mass one.  The right-hand side is the system's
cells themselves, not the polynomial values the witness construction
in :mod:`bwrum.measure` solves for, so the two routes share the solver
in :mod:`bwrum.linear` but not their equations.  The forward oracle in
:mod:`bwrum.measure` shares code with neither, and every witness the
command line reports is re-checked against it.

The cell equations depend only on n and are reduced once per n.  The
verdict's ``method`` is "presolve" when the reduction alone decides
(inconsistent equations, or a nonnegative particular solution) and
"phase1" when the phase-1 pivot on the reduced rows runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import ONE, BWSystem, choice_subsets, ordered_pairs
from .linear import LP_MAX_N  # noqa: F401  (re-exported: the size cap of both routes)
from .linear import INCONSISTENT, PARTICULAR, Reduction, nonnegative_solution, require_size
from .measure import RankingDistribution
from .rankings import all_rankings


@dataclass(frozen=True)
class LpResult:
    """Oracle verdict; ``distribution`` carries a feasible point when one exists.

    ``method`` records how the verdict was reached: "presolve" when the
    reduction already decided, "phase1" when the phase-1 pivot ran.
    """

    feasible: bool
    distribution: RankingDistribution | None
    method: str


def _cell_rows(n: int) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """The cells in equation order, and one 0/1 row per cell plus the total."""
    rankings = all_rankings(n)
    cell_order: list[tuple[int, int, int]] = []
    rows: list[list[int]] = []
    for mask in choice_subsets(n):
        per_ranking = []
        for ranking in rankings:
            best = worst = -1
            for x in ranking:
                if (mask >> x) & 1:
                    if best < 0:
                        best = x
                    worst = x
            per_ranking.append((best, worst))
        for a, b in ordered_pairs(mask):
            cell_order.append((mask, a, b))
            rows.append([int(pair == (a, b)) for pair in per_ranking])
    rows.append([1] * len(rankings))
    return cell_order, rows


@functools.cache
def _cell_reduction(n: int) -> tuple[list[tuple[int, int, int]], Reduction]:
    require_size(n)
    cell_order, rows = _cell_rows(n)
    return cell_order, Reduction(rows)


def lp_feasibility_oracle(system: BWSystem) -> LpResult:
    """Feasibility verdict for the cell equations, with a witness when feasible."""
    cell_order, reduction = _cell_reduction(system.n)
    rhs = [system.prob(mask, a, b) for mask, a, b in cell_order]
    rhs.append(ONE)
    masses, stage = nonnegative_solution(reduction, rhs)
    method = "presolve" if stage in (INCONSISTENT, PARTICULAR) else "phase1"
    if masses is None:
        return LpResult(feasible=False, distribution=None, method=method)
    rankings = all_rankings(system.n)
    return LpResult(
        feasible=True,
        distribution=RankingDistribution(
            n=system.n, mass={r: v for r, v in zip(rankings, masses) if v}
        ),
        method=method,
    )
