"""Acceptance battery: one test and one printed pass/fail line per criterion.

Each criterion is exact (rational equality, no tolerances) except the
final statistical one, which is seeded and deterministic.  Time limits
are asserted alongside the mathematical content.
"""

import time
from fractions import Fraction
from math import comb, factorial, sqrt

from bwrum import (
    SeededRng,
    all_polynomials,
    all_rankings,
    build_distribution,
    check_representable,
    count_pattern,
    enumerate_pattern,
    falmagne_inequality,
    insertion_identity_check,
    lemma_b_check,
    lp_feasibility_oracle,
    make_distribution,
    matches,
    moebius_reconstruct,
    nested_sum_identity,
    pattern,
    sample_best_worst,
    split_partition,
    uniform_system,
    verify_reconstruction,
)
from bwrum.core import choice_subsets, full_mask, iter_submasks, members, ordered_pairs
from bwrum.fixtures import emit_fixture
from bwrum.io import load_json, system_from_payload

from conftest import random_valid_system


def _finish(number: int, label: str, started: float, bound: float) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < bound else "FAIL"
    print(f"criterion {number} ({label}): {verdict} in {elapsed:.2f}s (limit {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded {bound}s: {elapsed:.2f}s"


def _shuffled(rng: SeededRng, n: int) -> list[int]:
    pool = list(range(n))
    for i in range(n - 1):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool


def test_criterion_1_paper_fixtures(tmp_path):
    started = time.perf_counter()

    sandwich = load_json(emit_fixture("example1", tmp_path)[0])
    labels = sandwich["labels"]

    def ids(tokens):
        return tuple(labels.index(t) for t in tokens)

    shape = sandwich["pattern"]
    rankings = enumerate_pattern(
        pattern(ids(shape["prefix"]), ids(shape["ground"]), ids(shape["suffix"]), 5), 5
    )
    rows = {ids(r) for r in sandwich["table_rows"]}
    mirrors = {ids(r) for r in sandwich["mirror_rows"]}
    assert len(rows) == 10 and len(mirrors) == 10
    assert rows | mirrors == rankings
    assert len(rankings) == 20

    pair = load_json(emit_fixture("example2", tmp_path)[0])
    shape = pair["pattern"]
    assert (
        len(
            enumerate_pattern(
                pattern(ids(shape["prefix"]), ids(shape["ground"]), ids(shape["suffix"]), 5), 5
            )
        )
        == 60
    )

    identity = load_json(emit_fixture("example3", tmp_path)[0])
    assert [row["n"] for row in identity["identity"]] == [5, 6, 7, 8]
    for row in identity["identity"]:
        n = row["n"]
        assert factorial(n - 3) * n == 2 * factorial(n - 3) + factorial(n - 2)
        assert row["total"] == sum(row["parts"])
    assert insertion_identity_check([identity["top"]], [identity["bottom"]], 5)

    table2 = load_json(emit_fixture("table2", tmp_path)[0])
    sizes = [len(entry["rankings"]) for entry in table2["components"]]
    assert sizes == [6, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1]
    assert sum(sizes) == 20
    descriptors = split_partition(5, 3, 4, (0, 1))
    union = set()
    for entry, descriptor in zip(table2["components"], descriptors):
        component = {ids(r) for r in entry["rankings"]}
        assert component == enumerate_pattern(descriptor, 5)
        assert not (union & component)
        union |= component
    parent = table2["parent"]
    assert union == enumerate_pattern(
        pattern(ids(parent["prefix"]), ids(parent["ground"]), ids(parent["suffix"]), 5), 5
    )

    _finish(1, "paper fixtures exact", started, 1.0)


def test_criterion_2_counting_lemma():
    started = time.perf_counter()
    rng = SeededRng(24001)
    cases = 0
    for n in range(2, 8):
        rankings = all_rankings(n)
        for m in range(n):
            span = n - m
            for k in range(1, span + 1):
                expected = count_pattern(n, m, k)
                assert expected == factorial(span - k) * factorial(n) // factorial(span)
                for cut in range(k + 1):
                    pool = _shuffled(rng, n)
                    ground = pool[m:]
                    listed = ground[:k]
                    descriptor = pattern(listed[:cut], ground, listed[cut:], n)
                    found = enumerate_pattern(descriptor, n)
                    assert len(found) == expected, (n, m, k, cut)
                    if n <= 6:
                        sieved = {r for r in rankings if matches(descriptor, r)}
                        assert sieved == found
                    cases += 1
    assert cases >= 200, cases
    _finish(2, f"counting lemma, {cases} cases", started, 30.0)


def test_criterion_3_nested_sum_identity():
    started = time.perf_counter()
    for n in range(3, 13):
        for m in range(2, n):
            assert nested_sum_identity(n, m) == comb(n, m), (n, m)
    _finish(3, "nested sums equal binomials", started, 1.0)


def test_criterion_4_moebius_round_trip():
    started = time.perf_counter()
    systems = []
    for n, count in ((3, 30), (4, 30), (5, 25), (6, 15)):
        for case in range(count):
            systems.append(random_valid_system(n, SeededRng(24400 + 100 * n + case)))
    assert len(systems) >= 100
    for system in systems:
        n = system.n
        table = all_polynomials(system)
        base = full_mask(n)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                rest = base & ~(1 << a) & ~(1 << b)
                for B in iter_submasks(rest):
                    assert moebius_reconstruct(table, a, b, B) == system.prob(
                        base & ~B, a, b
                    )
    _finish(4, f"inversion on {len(systems)} systems", started, 60.0)


def test_criterion_5_necessity(generated_battery):
    started = time.perf_counter()
    assert len(generated_battery) >= 100
    rng = SeededRng(24555)
    for n, _, system in generated_battery:
        table = all_polynomials(system)
        assert all(value >= 0 for value in table.values.values())
        subsets = list(choice_subsets(n))
        for _ in range(20):
            base = subsets[rng.randrange(len(subsets))]
            pairs = list(ordered_pairs(base))
            a, b = pairs[rng.randrange(len(pairs))]
            family = [
                rng.randrange(full_mask(n)) for _ in range(rng.randrange(4))
            ]
            assert falmagne_inequality(system, a, b, base, family) >= 0
    _finish(5, "sign and family inequalities", started, 60.0)


def test_criterion_6_sufficiency(generated_battery):
    started = time.perf_counter()
    for n, _, system in generated_battery:
        dist = build_distribution(system)
        assert all(mass >= 0 for mass in dist.mass.values())
        assert dist.total() == 1
        assert verify_reconstruction(system, dist).ok, n
    _finish(6, "construction", started, 120.0)


def test_criterion_7_oracle_agreement(generated_battery, tmp_path):
    started = time.perf_counter()
    for _, _, system in generated_battery:
        report = check_representable(system)
        result = lp_feasibility_oracle(system)
        assert report.representable == result.feasible
    negk3, _ = system_from_payload(load_json(emit_fixture("negk3", tmp_path)[0]))
    assert not check_representable(negk3).representable
    assert not lp_feasibility_oracle(negk3).feasible
    _finish(7, "dual oracles agree", started, 120.0)


def test_criterion_8_density_identity(generated_battery):
    started = time.perf_counter()
    systems = [system for n, _, system in generated_battery if n == 4]
    assert len(systems) >= 20
    for system in systems:
        base = full_mask(4)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                rest = base & ~(1 << a) & ~(1 << b)
                for B in iter_submasks(rest):
                    assert lemma_b_check(system, a, b, B), (a, b, members(B))
    _finish(8, f"density identity on {len(systems)} systems", started, 60.0)


def test_criterion_9_statistical_realization():
    started = time.perf_counter()
    uniform = make_distribution(
        4, {r: Fraction(1, 24) for r in all_rankings(4)}
    )
    rng = SeededRng(20260824)
    draws = 120_000
    counts: dict[tuple[int, int], int] = {}
    full = {0, 1, 2, 3}
    for _ in range(draws):
        pair = sample_best_worst(uniform, full, rng)
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 12
    target = draws / 12
    bound = 4 * sqrt(draws * (1 / 12) * (11 / 12))
    worst = max(abs(c - target) for c in counts.values())
    assert worst <= bound, f"worst deviation {worst} exceeds {bound:.1f}"
    _finish(9, f"max deviation {worst:.0f} <= {bound:.0f}", started, 10.0)
