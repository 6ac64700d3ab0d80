"""Exact linear feasibility oracle over ranking masses.

Decides whether nonnegative masses on all n! rankings can reproduce a
system.  The equations are the cell equations that witness construction
in :mod:`bwrum.measure` solves, reduced once per n and shared with it,
so this oracle is that same solve reported as a verdict.  What stays
independent of it is the forward oracle in :mod:`bwrum.measure`, which
shares no code with the solver; every witness the command line reports
is re-checked against it.

The verdict's ``method`` is "presolve" when the reduction alone decides
(inconsistent equations, or a nonnegative particular solution) and
"phase1" when the phase-1 pivot on the reduced rows runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BWSystem
from .linear import INCONSISTENT, PARTICULAR
from .measure import RankingDistribution, _solve_cells


@dataclass(frozen=True)
class LpResult:
    """Oracle verdict; ``distribution`` carries a feasible point when one exists.

    ``method`` records how the verdict was reached: "presolve" when the
    reduction already decided, "phase1" when the phase-1 pivot ran.
    """

    feasible: bool
    distribution: RankingDistribution | None
    method: str


def lp_feasibility_oracle(system: BWSystem) -> LpResult:
    """Feasibility verdict for the cell equations, with a witness when feasible."""
    masses, stage = _solve_cells(system)
    method = "presolve" if stage in (INCONSISTENT, PARTICULAR) else "phase1"
    if masses is None:
        return LpResult(feasible=False, distribution=None, method=method)
    return LpResult(
        feasible=True,
        distribution=RankingDistribution(n=system.n, mass=masses),
        method=method,
    )
