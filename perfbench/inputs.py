"""Seeded benchmark inputs and answer checks that share no code with bwrum.

Every expected verdict is fixed here, when the input is generated:

- a system induced from a distribution over rankings is representable;
- a blend (19/20 of an induced system plus 1/20 of a random valid one)
  is labelled not representable only after this module has found a
  violated linear identity
  P_{ab}(a, b) = P_{abc}(a, b) + P_{abc}(a, c) + P_{abc}(c, b),
  which every ranking distribution satisfies.

The forward computation below re-induces every witness the program
returns, so a wrong witness is caught without trusting bwrum's own
verifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Iterator

WEIGHT_RESOLUTION = 1000
BLEND_SHARE = Fraction(1, 20)
KINDS = ("full", "sparse", "blend")

Cells = dict[tuple[int, int, int], Fraction]


def mask_of(alternatives) -> int:
    return sum(1 << x for x in alternatives)


def choice_sets(n: int) -> list[tuple[int, ...]]:
    """Every subset with at least two members, smallest first."""
    return [s for k in range(2, n + 1) for s in combinations(range(n), k)]


def forward(n: int, mass: dict[tuple[int, ...], Fraction]) -> Cells:
    """Cells induced by ranking masses: best is first, worst last in the subset."""
    cells: Cells = {}
    for subset in choice_sets(n):
        mask = mask_of(subset)
        acc: dict[tuple[int, int], Fraction] = {}
        for ranking, p in mass.items():
            inside = [x for x in ranking if (mask >> x) & 1]
            key = (inside[0], inside[-1])
            acc[key] = acc.get(key, 0) + p
        for a in subset:
            for b in subset:
                if a != b:
                    cells[(mask, a, b)] = Fraction(acc.get((a, b), 0))
    return cells


def witness_problems(n: int, cells: Cells, mass: dict[tuple[int, ...], Fraction]) -> list[str]:
    """Why ``mass`` fails to witness ``cells``; empty when it is a witness."""
    rankings = set(permutations(range(n)))
    problems = []
    if any(tuple(r) not in rankings for r in mass):
        problems.append("a key is not a ranking of 0..n-1")
        return problems
    if any(p < 0 for p in mass.values()):
        problems.append("a mass is negative")
    if sum(mass.values()) != 1:
        problems.append("masses do not sum to 1")
    induced = forward(n, {tuple(r): p for r, p in mass.items()})
    wrong = sum(1 for key, p in cells.items() if induced.get(key) != p)
    if wrong:
        problems.append(f"{wrong} cell(s) differ from the re-induced witness")
    return problems


def violated_identity(n: int, cells: Cells) -> tuple[int, int, int] | None:
    """A triple (a, b, c) breaking the pair/triple identity, or None."""
    for a, b, c in permutations(range(n), 3):
        pair = cells[(mask_of((a, b)), a, b)]
        triple = mask_of((a, b, c))
        if pair != cells[(triple, a, b)] + cells[(triple, a, c)] + cells[(triple, c, b)]:
            return a, b, c
    return None


def random_masses(rng: random.Random, n: int, support: int) -> dict[tuple[int, ...], Fraction]:
    chosen = rng.sample(list(permutations(range(n))), support)
    weights = [rng.randint(1, WEIGHT_RESOLUTION) for _ in chosen]
    total = sum(weights)
    return {r: Fraction(w, total) for r, w in zip(chosen, weights)}


def random_valid(rng: random.Random, n: int) -> Cells:
    """Each subset's cells are random positive weights normalised to one."""
    cells: Cells = {}
    for subset in choice_sets(n):
        pairs = [(a, b) for a in subset for b in subset if a != b]
        weights = [rng.randint(1, WEIGHT_RESOLUTION) for _ in pairs]
        total = sum(weights)
        mask = mask_of(subset)
        for (a, b), w in zip(pairs, weights):
            cells[(mask, a, b)] = Fraction(w, total)
    return cells


def sparse_support(n: int) -> int:
    return max(2, factorial(n) // 5)


@dataclass(frozen=True)
class Case:
    """One input system with its expected verdict.

    ``source`` holds the ranking masses an induced case came from, which
    is the proof of its Representable label; blends have none.
    """

    kind: str
    n: int
    cells: Cells
    representable: bool
    source: dict[tuple[int, ...], Fraction] | None = None

    def entries(self) -> list[tuple[int, tuple[int, int], Fraction]]:
        return [(mask, (a, b), p) for (mask, a, b), p in self.cells.items()]


SUPPORT = {"full": factorial, "sparse": sparse_support}


def make_case(rng: random.Random, n: int, kind: str) -> Case:
    if kind in SUPPORT:
        masses = random_masses(rng, n, SUPPORT[kind](n))
        return Case(kind, n, forward(n, masses), True, masses)
    if kind == "blend":
        while True:
            base = forward(n, random_masses(rng, n, factorial(n)))
            noise = random_valid(rng, n)
            cells = {
                key: (1 - BLEND_SHARE) * p + BLEND_SHARE * noise[key]
                for key, p in base.items()
            }
            if violated_identity(n, cells) is not None:
                return Case(kind, n, cells, False)
    raise ValueError(f"unknown case kind {kind!r}")


def case_stream(n: int, stream: str, seed: int) -> Iterator[Case]:
    """Full, sparse and blend cases in strict rotation, so any prefix is in thirds."""
    rng = random.Random(f"{stream}:{n}:{seed}")
    while True:
        for kind in KINDS:
            yield make_case(rng, n, kind)


def warmup_case(n: int, stream: str, kind: str) -> Case:
    """The same input in every run, so set-up time does not depend on the seed."""
    return make_case(random.Random(f"{stream}-warmup:{n}"), n, kind)


# ---------------------------------------------------------------------------
# Files for the command-line workload, in the formats bwrum reads


def fraction_text(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def system_payload(n: int, cells: Cells, labels: list[str] | None = None) -> dict:
    name = (lambda x: labels[x]) if labels else (lambda x: x)
    subsets = []
    for subset in choice_sets(n):
        mask = mask_of(subset)
        probs = [
            {"best": name(a), "worst": name(b), "p": fraction_text(cells[(mask, a, b)])}
            for a in subset
            for b in subset
            if a != b
        ]
        subsets.append({"members": [name(x) for x in subset], "probs": probs})
    payload: dict = {"n": n}
    if labels:
        payload["labels"] = labels
    payload["subsets"] = subsets
    return payload


def cells_from_payload(payload: dict) -> Cells:
    """Read back a system payload written without labels."""
    cells: Cells = {}
    for subset in payload["subsets"]:
        mask = mask_of(subset["members"])
        for cell in subset["probs"]:
            cells[(mask, cell["best"], cell["worst"])] = Fraction(cell["p"])
    return cells


def masses_from_rows(rows: list[dict]) -> dict[tuple[int, ...], Fraction]:
    return {tuple(row["ranking"]): Fraction(row["mass"]) for row in rows}


def distribution_payload(n: int, mass: dict[tuple[int, ...], Fraction]) -> dict:
    rows = [{"ranking": list(r), "mass": fraction_text(p)} for r, p in sorted(mass.items())]
    return {"n": n, "distribution": rows}


def design_payload(n: int, trials: int) -> dict:
    return {"n": n, "design": [{"members": list(s), "trials": trials} for s in choice_sets(n)]}


def negk3_cells() -> Cells:
    """Uniform on three alternatives, except that the pair {0, 1} always picks 1 best."""
    cells: Cells = {}
    for subset in choice_sets(3):
        share = Fraction(1, len(subset) * (len(subset) - 1))
        for a in subset:
            for b in subset:
                if a != b:
                    cells[(mask_of(subset), a, b)] = share
    cells[(mask_of((0, 1)), 0, 1)] = Fraction(0)
    cells[(mask_of((0, 1)), 1, 0)] = Fraction(1)
    return cells


def smoothed_cells(n: int, counts_payload: dict, smoothing: Fraction) -> Cells:
    """Expected ingest output: (count + s) / (total + s * pairs) per observed subset."""
    grouped: dict[int, dict[tuple[int, int], int]] = {}
    for record in counts_payload["records"]:
        pairs = grouped.setdefault(mask_of(record["members"]), {})
        key = (record["best"], record["worst"])
        pairs[key] = pairs.get(key, 0) + record["count"]
    cells: Cells = {}
    for subset in choice_sets(n):
        mask = mask_of(subset)
        npairs = len(subset) * (len(subset) - 1)
        counts = grouped.get(mask)
        total = sum(counts.values()) if counts else 0
        for a in subset:
            for b in subset:
                if a != b:
                    if counts is None:
                        cells[(mask, a, b)] = Fraction(1, npairs)
                    else:
                        cells[(mask, a, b)] = (counts.get((a, b), 0) + smoothing) / (
                            total + smoothing * npairs
                        )
    return cells
