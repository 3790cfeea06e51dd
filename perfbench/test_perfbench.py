"""Tests of the benchmark itself: the answer checks reject tampered answers,
the span wrappers are transparent, and the inputs are what they claim.

    python3 -m pytest perfbench
"""

import random
import sys
import unittest
from unittest import mock
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gf4codes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as w  # noqa: E402
from gf4codes import catalog  # noqa: E402


def small_enum_input(seed=0, n=24, k=4):
    rng = random.Random(seed)
    return w.EnumInput(n, k, tuple(w.self_orthogonal_rows(rng, n, k)))


def small_sweep_input(seed=0, n=24, k=3):
    rng = random.Random(seed)
    return w.SweepInput(n, k, tuple(w.self_orthogonal_rows(rng, n, k)),
                        tuple(w.self_orthogonal_rows(rng, n, k)))


class InputTests(unittest.TestCase):
    def test_inputs_are_seeded(self):
        self.assertEqual(w.sweep_inputs(5), w.sweep_inputs(5))
        self.assertNotEqual(w.enum_inputs(5), w.enum_inputs(6))

    def test_rows_are_independent_and_self_orthogonal(self):
        rng = random.Random(1)
        for n, k in ((24, 3), (30, 10), (48, 6), (96, 5)):
            rows = w.self_orthogonal_rows(rng, n, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = gf4codes.LinearCode.from_rows(rows)
            self.assertEqual((code.n, code.k), (n, k))
            self.assertTrue(code.is_hermitian_self_orthogonal())
            self.assertFalse(code.is_self_dual())


class EnumCheckTests(unittest.TestCase):
    def setUp(self):
        self.inp = small_enum_input()
        self.ans = w.enum_task(self.inp)

    def test_accepts_the_library_answer(self):
        self.assertEqual(w.check_enum(self.inp, self.ans), [])

    def test_rejects_a_coefficient_moved_by_one(self):
        coeffs = list(self.ans.coefficients)
        j = next(j for j in range(1, len(coeffs)) if coeffs[j])
        coeffs[j] -= 1
        coeffs[j + 1] += 1
        self.assertTrue(w.check_enum(self.inp, replace(self.ans, coefficients=tuple(coeffs))))

    def test_rejects_a_wrong_total(self):
        coeffs = list(self.ans.coefficients)
        coeffs[-1] += 3
        self.assertTrue(w.check_enum(self.inp, replace(self.ans, coefficients=tuple(coeffs))))

    def test_rejects_wrong_quantum_parameters(self):
        n, k, d, pure, degenerate = self.ans.quantum
        for q in ((n, k, d + 1, pure, degenerate), (n, k, d, not pure, degenerate)):
            self.assertTrue(w.check_enum(self.inp, replace(self.ans, quantum=q)))

    def test_dual_enumerator_matches_the_library(self):
        got, why = w.dual_enumerator(self.ans.coefficients, self.inp.k)
        self.assertIsNone(why)
        lib = gf4codes.macwilliams(gf4codes.WeightEnumerator(self.ans.coefficients), self.inp.k)
        self.assertEqual(tuple(got), lib.coefficients)
        head, _ = w.dual_enumerator(self.ans.coefficients, self.inp.k, upto=5)
        self.assertEqual(head, got[:6])

    def test_own_enumeration_matches_the_library(self):
        rows = [(r.lo, r.hi) for r in self.inp.rows]
        self.assertEqual(tuple(w.enumerate_weights(rows, self.inp.n)), self.ans.coefficients)


class SweepCheckTests(unittest.TestCase):
    def setUp(self):
        self.inp = small_sweep_input()
        self.ans = w.sweep_task(self.inp)

    def test_accepts_the_library_answer(self):
        self.assertEqual(w.check_sweep(self.inp, self.ans, None), [])
        self.assertEqual(w.check_sweep(self.inp, self.ans, self.ans), [])

    def test_rejects_a_bound_below_the_realized_dual_distance(self):
        bad = replace(self.ans, bounds=(self.ans.bounds[0], self.ans.bounds[1] - 1))
        self.assertTrue(w.check_sweep(self.inp, bad, None))

    def test_rejects_a_broken_round_trip(self):
        (lo, hi), *rest = self.ans.parsed1
        bad = replace(self.ans, parsed1=((lo ^ 1, hi), *rest))
        self.assertTrue(w.check_sweep(self.inp, bad, None))
        self.assertTrue(w.check_sweep(self.inp, bad, self.ans))

    def test_rejects_an_even_or_non_dual_vector(self):
        self.assertTrue(w.check_sweep(self.inp, replace(self.ans, x1=(0, 0)), None))
        row = self.inp.rows1[0]
        support = row.lo | row.hi
        unit = support & -support  # odd weight, but not orthogonal to row
        self.assertTrue(w.check_sweep(self.inp, replace(self.ans, x1=(unit, 0)), None))

    def test_rejects_an_answer_that_differs_from_the_reference(self):
        n, k, d, pure, degenerate = self.ans.quantum
        bad = replace(self.ans, quantum=(n, k, d + 1, pure, degenerate))
        self.assertTrue(w.check_sweep(self.inp, bad, None))
        self.assertTrue(w.check_sweep(self.inp, bad, self.ans))


class CliCheckTests(unittest.TestCase):
    def test_rejects_one_altered_line(self):
        good = w.CLI_QUANTUM_STDOUT
        self.assertEqual(w.check_cli("quantum", 0, good, "", good), [])
        bad = good.replace("d: 6", "d: 5")
        self.assertTrue(w.check_cli("quantum", 0, bad, "", good))
        self.assertTrue(w.check_cli("quantum", 3, good, "", good))
        self.assertTrue(w.check_cli("quantum", 0, good, "warning\n", good))

    def test_expected_output_is_the_readme(self):
        readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
        self.assertIn(w.CLI_DOUBLE_STDOUT.format(emit="c28.txt"), readme)
        self.assertIn(w.CLI_QUANTUM_STDOUT, readme)


class TracerTests(unittest.TestCase):
    def calls(self):
        a = catalog.get("c13_6_a").code
        b = catalog.get("c13_6_b").code
        ones = gf4codes.GF4Vector(13, lo=(1 << 13) - 1)
        res = gf4codes.double_pair(a, b, ones, ones)
        code = gf4codes.LinearCode.from_rows(list(res.code_double_prime.rows))
        return (gf4codes.weight_enumerator(code), gf4codes.quantum_params(code),
                code.dual().rows, gf4codes.rref(list(a.rows), 13),
                gf4codes.emit_matrix(gf4codes.parse_matrix(gf4codes.emit_matrix(code))),
                gf4codes.find_odd_dual_vector(a), res.bound_prime, res.bound_double_prime)

    def test_wrappers_return_what_the_functions_return(self):
        plain = self.calls()
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.task = "t0"
            traced = self.calls()
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        names = {s[1] for s in tracer.spans}
        for name in ("enumerator.weight_enumerator", "enumerator.macwilliams",
                     "codes.rref", "codes.from_rows", "codes.dual", "doubling.double_pair",
                     "doubling.double_even", "quantum.quantum_params", "catalog.get"):
            self.assertIn(name, names)

    def test_every_binding_is_replaced_and_restored(self):
        from gf4codes import enumerator, quantum
        original = enumerator.weight_enumerator
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(enumerator.weight_enumerator, original)
            self.assertIs(quantum.weight_enumerator, enumerator.weight_enumerator)
            self.assertIs(gf4codes.weight_enumerator, enumerator.weight_enumerator)
        finally:
            tracer.uninstall()
        self.assertIs(quantum.weight_enumerator, original)
        self.assertIs(gf4codes.weight_enumerator, original)

    def test_child_spans_nest_under_their_parent(self):
        code = catalog.get("c5_2").code
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.task = "t0"
            gf4codes.quantum_params(code)
        finally:
            tracer.uninstall()
        by_name = {s[1]: s for s in tracer.spans}
        parent = by_name["quantum.quantum_params"]
        self.assertEqual(by_name["enumerator.weight_enumerator"][4], parent[0])
        self.assertEqual(by_name["enumerator.weight_enumerator"][6], 4 ** code.k)

    def test_self_time_subtracts_direct_children(self):
        span_list = [(1, "child", 10, 30, 0, "t0", None), (2, "grandchild", 12, 15, 1, "t0", None),
                     (0, "root", 0, 100, -1, "t0", None)]
        self.assertEqual(spans.self_times(span_list), {0: 80, 1: 17, 2: 3})


class TailTests(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        value, pct = run.tail([float(x) for x in range(30)])
        self.assertEqual(value, 19.0)
        self.assertAlmostEqual(pct, 200 / 3)


class FakeWorkload:
    """Two inputs, each task taking the next of the given times in ns."""

    cli = False

    def __init__(self, times):
        self.inputs = ["a", "b"]
        self.times = iter(times)

    def run(self, i, tracer=None, tid=None):
        return next(self.times), []

    def codewords(self, inp):
        return {"a": 1000, "b": 3000}[inp]


class RelativeTimeTests(unittest.TestCase):
    def test_each_pass_is_divided_by_the_references_around_it(self):
        refs = iter([10, 30, 50] + [50] * worker.MIN_TASKS)
        times = [40, 80, 200, 400] + [100] * worker.MIN_TASKS
        with mock.patch.object(worker, "reference_ns", lambda: next(refs)):
            res = worker.timed_run(FakeWorkload(times), worker.Tally(), 0, 1.0)
        self.assertEqual(res["task_rel"][:4], [2.0, 4.0, 5.0, 10.0])
        self.assertEqual(res["passes"], worker.MIN_TASKS // 2)
        self.assertEqual(res["codewords"], res["passes"] * 4000)

    def test_metrics_come_from_the_relative_times(self):
        runs = [{"task_rel": [x] * 20, "task_ns": [2e6 * x] * 20, "ref_ns": [2e6] * 11,
                 "codewords": 40000, "passes": 10, "peak_rss_kb": kb, "setup_s": setup}
                for x, kb, setup in ((1.0, 2048, 1.0), (3.0, 1024, 3.0), (3.0, 1024, 2.0))]
        metrics, report = run.end_to_end(runs[:2], 43, 0)
        self.assertEqual(metrics["task_p50_ref"]["value"], 2.0)
        self.assertEqual(metrics["task_tail_ref"]["value"], 3.0)
        self.assertAlmostEqual(metrics["codewords_per_ref"]["value"], 1000)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 1.5)
        self.assertAlmostEqual(report["codewords_per_s"], 80000 / 0.16)
        self.assertEqual(report["reference_p50_ms"], 2.0)
        metrics, _ = run.end_to_end(runs, 63, 0)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
