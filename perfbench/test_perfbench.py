"""Self-tests of the benchmark's own logic (no nlprob import needed).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402
from worker import Rep, summarize_trace  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.calls(name, 7), workloads.calls(name, 7))

    def test_seeds_change_numbers_not_shapes(self):
        a = workloads.calls(workloads.EXACT_SWEEP, 1)
        b = workloads.calls(workloads.EXACT_SWEEP, 2)
        self.assertNotEqual([c.key for c in a], [c.key for c in b])
        shape = [(c.config["model"]["space"], len(c.config["model"]["measures"]),
                  c.config["model"]["joint"], c.config["horizon"]) for c in a]
        self.assertEqual(shape, [(c.config["model"]["space"],
                                  len(c.config["model"]["measures"]),
                                  c.config["model"]["joint"],
                                  c.config["horizon"]) for c in b])

    def test_exact_configs_are_valid_and_cover_the_shapes(self):
        for call in workloads.pool(workloads.EXACT_SWEEP):
            model = call.config["model"]
            for row in model["measures"]:
                self.assertEqual(len(row), model["space"])
                self.assertEqual(sum(row), 1.0)
                self.assertTrue(all(w >= 0 for w in row))
        slots = workloads.EXACT_SLOTS
        self.assertEqual({s.size for s in slots}, set(range(2, 11)))
        self.assertEqual({s.measures for s in slots}, set(range(2, 7)))
        rect = [s for s in slots if s.joint == workloads.RECTANGULAR]
        self.assertEqual({s.horizon for s in rect}, {2, 3, 4, 5})
        pairs = len(slots) - len(rect)
        self.assertTrue(0.2 <= pairs / len(slots) <= 0.3)

    def test_every_call_has_a_reference(self):
        stored = reference.load()["workloads"]
        for name in workloads.WORKLOADS:
            self.assertEqual([c.key for c in workloads.pool(name)],
                             list(stored[name]))


class StoredReferenceTest(unittest.TestCase):

    def setUp(self):
        self.stored = reference.load()["workloads"]

    def test_exit_2_is_exactly_the_rectangular_horizon_5_defect(self):
        for call in workloads.pool(workloads.EXACT_SWEEP):
            slot = workloads.EXACT_SLOTS[int(call.key.split(":")[0])]
            want = self.stored[workloads.EXACT_SWEEP][call.key]
            defect = slot.joint == workloads.RECTANGULAR and slot.horizon == 5
            self.assertEqual(want["exit"] == 2, defect, call.key)
            if defect:
                self.assertIn("family sweep needs", want["stderr"])

    def test_sim_long_upper_exceedance_fails_as_recorded(self):
        # acceptance criterion 8 is red by design; the reference keeps it red
        for want in self.stored[workloads.SIM_LONG].values():
            verdicts = {r[0]: r[1] for r in want["records"]}
            self.assertIs(verdicts["slln-upper-exceedance"], False)


def _report(records):
    return {"checks": [{"check": n, "pass": p, "lhs": l, "rhs": r, "gap": g,
                        "witness": None} for n, p, l, r, g in records]}


RECORDS = [("chain:X", True, 0.25, 0.5, -0.25), ("conjugacy", True, 0.0, 0.0, 0.0)]


class ReferenceCheckTest(unittest.TestCase):

    def setUp(self):
        self.want = reference.entry(0, _report(RECORDS), "")

    def test_identical_outcome_passes(self):
        v = reference.judge(self.want, 0, _report(RECORDS), "")
        self.assertEqual((v.failed, v.incorrect, v.unreferenced),
                         (False, False, False))

    def test_last_bit_changes_pass(self):
        nudged = [(n, p, lhs + 1e-13, r, g) for n, p, lhs, r, g in RECORDS]
        self.assertFalse(reference.judge(self.want, 0, _report(nudged), "").failed)

    def test_changed_number_fails(self):
        moved = [(n, p, lhs + 1e-6, r, g) for n, p, lhs, r, g in RECORDS]
        v = reference.judge(self.want, 0, _report(moved), "")
        self.assertTrue(v.failed and v.incorrect)

    def test_flipped_verdict_fails(self):
        flipped = [(n, not p, lhs, r, g) for n, p, lhs, r, g in RECORDS[:1]]
        flipped += RECORDS[1:]
        v = reference.judge(self.want, 1, _report(flipped), "")
        self.assertTrue(v.failed and v.incorrect)
        v = reference.judge(self.want, 0, _report(flipped), "")
        self.assertTrue(v.failed and v.incorrect)
        self.assertTrue(any("pass" in p for p in v.problems))

    def test_exit_2_call_fails(self):
        v = reference.judge(self.want, 2, None, "error: checks: bad\n")
        self.assertTrue(v.failed and v.incorrect)

    def test_raised_call_fails(self):
        v = reference.judge(self.want, None, None, "ValueError: boom")
        self.assertTrue(v.failed and v.incorrect)

    def test_known_defect(self):
        want = reference.entry(2, None, "error: family sweep needs 9 assignments\n")
        still = reference.judge(want, 2, None,
                                "error: family sweep needs 9 assignments\n")
        self.assertEqual((still.failed, still.incorrect), (True, False))
        other = reference.judge(want, 2, None, "error: something else\n")
        self.assertEqual((other.failed, other.incorrect), (True, True))
        fixed = reference.judge(want, 0, _report(RECORDS), "")
        self.assertEqual((fixed.failed, fixed.incorrect, fixed.unreferenced),
                         (False, False, True))


class MetricNamesTest(unittest.TestCase):
    """The metrics a run prints are exactly those BENCHMARK.json declares."""

    def setUp(self):
        self.declared = json.loads(BENCHMARK.read_text())

    def test_end_to_end(self):
        worker = {"setup_s": [0.1], "wall_s": [1.0], "peak_rss_mb": 1.0,
                  "failed": 0, "attempted": 1}
        printed = {k: u for k, (_, u) in run.end_to_end(worker).items()}
        self.assertEqual(printed, {m["name"]: m["unit"]
                                   for m in self.declared["end_to_end"]})

    def test_per_layer(self):
        traced = Rep(traced=True)
        traced.layers = {name: {"self_s": 0.0, "calls": 0}
                         for name in spans.LAYERS}
        traced.counts = {name: 0 for name in spans.COUNTERS}
        trace = summarize_trace([Rep(traced=False), traced])
        imports = {"setup.import_numpy_s": 0.1, "setup.import_nlprob_s": 0.1}
        metrics = run.per_layer({"trace": trace, "bytes_written": 0}, imports)
        printed = {k: u for k, (_, u) in metrics.items()}
        self.assertEqual(printed, {m["name"]: m["unit"]
                                   for m in self.declared["per_layer"]})


class SelfTimeTest(unittest.TestCase):

    def test_nested_and_overlapping_children(self):
        tree = [
            Span("root", 0.0, 10.0, None, 1),
            Span("a", 1.0, 4.0, 0, 1),
            Span("b", 3.0, 6.0, 0, 2),     # another thread, overlaps a
            Span("a.child", 2.0, 3.0, 1, 1),
            Span("late", 11.0, 12.0, None, 1),
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 2.0, 3.0, 1.0, 1.0])
        self.assertEqual(spans.root_time(tree), 11.0)
        totals = spans.layer_totals(tree)
        self.assertEqual(totals["a"], {"self_s": 2.0, "total_s": 3.0, "calls": 1})

    def test_self_times_add_up_to_root_time(self):
        tree = [Span("root", 0.0, 8.0, None, 1), Span("x", 1.0, 3.0, 0, 1),
                Span("y", 3.0, 7.0, 0, 1), Span("z", 4.0, 5.0, 2, 1)]
        self.assertAlmostEqual(sum(spans.self_times(tree)),
                               spans.root_time(tree))

    def test_tracer_wraps_and_restores(self):
        fake = types.ModuleType("perfbench_fake")
        exec("def inner(n):\n    return list(range(n))\n"
             "def outer(n):\n    return inner(n)\n", fake.__dict__)
        sys.modules[fake.__name__] = fake
        self.addCleanup(sys.modules.pop, fake.__name__)
        original = fake.inner
        tracer = spans.Tracer((
            spans.Probe(fake.__name__, "outer", "fake.outer"),
            spans.Probe(fake.__name__, "inner", "fake.inner",
                        lambda a, k, r: {"items": len(r)}),
        ))
        tracer.install()
        try:
            fake.outer(3)
        finally:
            tracer.remove()
        self.assertIs(fake.inner, original)
        self.assertEqual([(s.name, s.parent) for s in tracer.spans],
                         [("fake.outer", None), ("fake.inner", 0)])
        self.assertEqual(tracer.counts["items"], 3)


if __name__ == "__main__":
    unittest.main()
