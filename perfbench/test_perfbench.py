"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import random
import unittest
from unittest import mock
from fractions import Fraction
from itertools import islice

import inputs
import spans
import workloads
import yardstick
from checkout import ROOT, import_bwrum


def declared(kind: str) -> set[str]:
    """Metric names of one kind (``end_to_end`` or ``per_layer``) in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[kind]}


class GeneratorTest(unittest.TestCase):
    def take(self, n, stream, seed, count=6):
        return list(islice(inputs.case_stream(n, stream, seed), count))

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.take(4, "decide-n5", 3), self.take(4, "decide-n5", 3))
        self.assertNotEqual(self.take(4, "decide-n5", 3), self.take(4, "decide-n5", 4))
        self.assertNotEqual(self.take(4, "decide-n5", 3), self.take(4, "oracle-n4", 3))

    def test_kinds_rotate_in_thirds(self):
        kinds = [case.kind for case in self.take(3, "x", 1, 9)]
        self.assertEqual(kinds, list(inputs.KINDS) * 3)

    def test_cli_sessions_are_deterministic(self):
        root = workloads.WORK / "test-sessions"
        first = [(s.cells, s.dist_cells, s.sim_seed) for s in workloads.write_sessions(root, 5, 4)]
        files = sorted(p.read_bytes() for p in root.rglob("*.json"))
        again = [(s.cells, s.dist_cells, s.sim_seed) for s in workloads.write_sessions(root, 5, 4)]
        self.assertEqual(first, again)
        self.assertEqual(files, sorted(p.read_bytes() for p in root.rglob("*.json")))


class LabelTest(unittest.TestCase):
    def test_every_label_checks_out(self):
        for n in (3, 4):
            for case in islice(inputs.case_stream(n, "labels", 2), 12):
                with self.subTest(n=n, kind=case.kind):
                    for subset in inputs.choice_sets(n):
                        mask = inputs.mask_of(subset)
                        total = sum(case.cells[(mask, a, b)] for a in subset for b in subset if a != b)
                        self.assertEqual(total, 1)
                    if case.representable:
                        self.assertEqual(inputs.witness_problems(n, case.cells, case.source), [])
                        self.assertIsNone(inputs.violated_identity(n, case.cells))
                    else:
                        self.assertIsNotNone(inputs.violated_identity(n, case.cells))

    def test_negk3_breaks_the_identity(self):
        self.assertIsNotNone(inputs.violated_identity(3, inputs.negk3_cells()))

    def test_wrong_witness_is_caught(self):
        case = inputs.make_case(random.Random(1), 3, "full")
        bad = dict(case.source)
        first, second = list(bad)[:2]
        bad[first] += Fraction(1, 7)
        bad[second] -= Fraction(1, 7)
        self.assertTrue(inputs.witness_problems(3, case.cells, bad))
        outcome = workloads.Outcome(workloads.REPRESENTABLE, bad)
        self.assertIsNotNone(workloads.check_outcome(case, outcome))
        self.assertIsNone(workloads.check_outcome(case, workloads.Outcome(workloads.REPRESENTABLE, case.source)))


class SpanTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        #   0 polynomials.check_representable [0, 10]
        #   1   measure.build_construction [1, 4]
        #   2     polynomials.all_polynomials [2, 3]
        #   3   lp.lp_feasibility_oracle [5, 9]
        #   4 polynomials.check_representable [20, 21], another op
        tree = [
            ["polynomials.check_representable", 0.0, 10.0, None, 0, None],
            ["measure.build_construction", 1.0, 4.0, 0, 0, "kernel-completed"],
            ["polynomials.all_polynomials", 2.0, 3.0, 1, 0, None],
            ["lp.lp_feasibility_oracle", 5.0, 9.0, 0, 0, "phase1"],
            ["polynomials.check_representable", 20.0, 21.0, None, 1, None],
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 4.0, 1.0])
        recs = spans.records(tree, ops=[0])
        self.assertEqual(len(recs), 4)
        self.assertEqual(recs[0].child_seconds, {"measure": 3.0, "lp": 4.0})
        self.assertEqual(sum(r.own for r in recs), 10.0)
        values = workloads.span_metrics(recs, ops=1)
        self.assertEqual(values["self_ms.polynomials"], 4000.0)
        self.assertEqual(values["self_ms.measure"], 2000.0)
        self.assertEqual(values["self_ms.lp"], 4000.0)
        self.assertEqual(values["polynomials.sign_test_ms"], 7000.0)
        self.assertEqual(values["measure.mode.kernel_completed"], 1)
        self.assertEqual(values["lp.method.phase1"], 1)

    def test_install_and_uninstall(self):
        bw = import_bwrum()
        import bwrum.cli
        import bwrum.measure

        original = bw.check_representable
        system = bw.uniform_system(3)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(bwrum.cli.check_representable, original)
            self.assertIs(bwrum.measure.all_polynomials, bw.all_polynomials)
            tracer.op = "t"
            bw.check_representable(system)
        finally:
            tracer.uninstall()
        self.assertIs(bwrum.cli.check_representable, original)
        names = [s[spans.NAME] for s in tracer.spans if s[spans.OP] == "t"]
        self.assertEqual(names[0], "polynomials.check_representable")
        self.assertIn("polynomials.all_polynomials", names)

    def test_tail_percentile(self):
        value, pct, beyond = workloads.tail([float(i) for i in range(1, 41)])
        self.assertEqual((value, pct, beyond), (30.0, 75.0, 10))

    def test_normaliser_divides_by_the_readings_around_each_op(self):
        readings = iter([0.002, 0.002, 0.004])
        with mock.patch.object(yardstick, "measure", lambda: next(readings)):
            normalise = yardstick.Normaliser()
            self.assertAlmostEqual(normalise(0.010), 0.010 * yardstick.REFERENCE_S / 0.002)
            self.assertAlmostEqual(normalise(0.030), 0.030 * yardstick.REFERENCE_S / 0.003)


class SmokeTest(unittest.TestCase):
    """Short runs at n=3 for the library workloads and the CLI workload as is."""

    def test_decide_and_oracle_at_n3(self):
        for name, layer in (("decide-n5", "measure"), ("oracle-n4", "lp")):
            with self.subTest(name=name):
                run = workloads.LIBRARY[name].run(3, 1, 0.3, trace=False)
                self.assertEqual(run.failed, 0, run.problems)
                self.assertGreater(run.attempted, 0)
                self.assertGreater(run.metrics["setup_s"][0], 0)
                self.assertEqual(set(run.metrics), declared("end_to_end"))
                traced = workloads.LIBRARY[name].run(3, 1, 0.3, trace=True)
                self.assertEqual(traced.failed, 0, traced.problems)
                self.assertEqual(set(traced.metrics), set(workloads.LAYER_METRICS))
                self.assertEqual(set(traced.metrics), declared("per_layer"))
                self.assertGreater(traced.metrics[f"self_ms.{layer}"][0], 0)

    def test_cli_cold(self):
        run = workloads.run_cli(1, 1.0, trace=True)
        self.assertEqual(run.failed, 0, run.problems)
        self.assertGreater(run.metrics["cli.startup_ms"][0], 0)
        self.assertGreater(run.metrics["self_ms.io"][0], 0)


if __name__ == "__main__":
    unittest.main()
