"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/test_harness.py
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

import run
import tracer as tracing

caf = run.import_caf()
import workloads  # noqa: E402  (needs caf on the path)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def result_line(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.report(caf, workload, 0, 0.0, trace) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def bindings():
    """Every attribute and module-level dict value of the loaded caf modules."""
    out = {}
    for module in tracing._caf_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, dict):
                out.update({(module.__name__, attr, k): v for k, v in value.items()})
    return out


class HarnessTest(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(self):
        result = result_line(workloads.TINY["fig2_k2"], 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_emits_every_per_layer_metric_with_its_unit(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in workloads.TINY.values():
            with self.subTest(workload.name):
                result = result_line(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
                wall = result["metrics"]["trace.wall_s"]["value"]
                self_total = sum(v["value"] for k, v in result["metrics"].items()
                                 if k.endswith(".self_s"))
                unattributed = result["metrics"]["trace.unattributed_s"]["value"]
                self.assertAlmostEqual(self_total + unattributed, wall, places=9)
                self.assertGreaterEqual(unattributed, 0.0)

    def test_self_time_subtracts_the_union_of_child_spans(self):
        spans = [
            ["a", "root", 0.0, 10.0, -1, None],
            ["b", "left", 1.0, 4.0, 0, None],
            ["c", "inner", 1.5, 2.0, 1, None],
            ["b", "right", 3.0, 6.0, 0, None],  # overlaps "left"
            ["d", "late", 7.0, 8.0, 0, None],
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.5, 0.5, 3.0, 1.0])
        nested = [["a", "f", 0.0, 5.0, -1, None], ["b", "g", 1.0, 3.0, 0, None],
                  ["c", "h", 1.5, 2.5, 1, None]]
        self.assertAlmostEqual(sum(tracing.self_times(nested)), 5.0)

    def test_wrappers_are_removed_after_a_traced_run(self):
        before = bindings()
        tracer = tracing.Tracer()
        with self.assertRaises(KeyError):
            with tracer.installed():
                self.assertIsNot(caf.inversion.canonical_signature,
                                 before[("caf.inversion", "canonical_signature")])
                self.assertIsNot(caf.cli.COMMANDS["fig2"], before[("caf.cli", "COMMANDS", "fig2")])
                raise KeyError("leave the traced region by an exception")
        after = bindings()
        self.assertEqual(after.keys(), before.keys())
        self.assertTrue(all(after[k] is before[k] for k in before))
        self.assertEqual(tracing.leftover_wrappers(), [])

    def test_traced_and_untraced_rounds_write_identical_csvs(self):
        for workload in workloads.TINY.values():
            with self.subTest(workload.name):
                plain = run.run_round(caf, workload, 3)
                traced = run.run_round(caf, workload, 3, tracing.Tracer())
                self.assertEqual(plain["failed"], 0, plain["messages"])
                self.assertEqual(traced["digests"], plain["digests"])

    def test_every_public_layer_function_is_traced(self):
        self.assertEqual(tracing.unmapped_public_functions(), [])


if __name__ == "__main__":
    sys.exit(unittest.main())
