"""Tests of the benchmark itself (not of miniscp).

    python3 perfbench/selftest.py

Run from the root of a checkout.  The file name keeps it out of the
repository's pytest collection, which does not run the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import unittest

import inputs
import run

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(run.HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=run.WORK_DIR)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def cli(self, args, trace=None):
        prefix = ["cli"] + (["--trace", trace] if trace else [])
        ex = run.spawn(prefix + ["--"] + args, os.devnull, self.tmp)
        self.assertEqual(ex.code, 0, ex.stderr)
        return ex

    def traced(self, args):
        path = os.path.join(self.tmp, "trace.json")
        self.cli(args, trace=path)
        return run.load_traces([path])


class TraceRepeats(BenchTest):
    def test_two_traced_runs_give_identical_counts(self):
        out = os.path.join(self.tmp, "r.scl")
        for args in (["specialize", "--pattern", "abcab", "--out", out],
                     ["verify", "--pattern", "abab", "--seed", "3"]):
            first, second = self.traced(args), self.traced(args)
            self.assertEqual(first["calls"], second["calls"])
            self.assertEqual(first["counters"], second["counters"])
        c = first["counters"]
        for name in ("scp.nodes", "interpreter.steps.residual",
                     "interpreter.steps.naive", "kmp.comparisons"):
            self.assertGreater(c[name], 0, name)
        self.assertGreater(first["calls"]["driving.drive_step"], 0)
        self.assertEqual(c["scp.whistle_fires"], 0)


class PlantedWrongAnswers(BenchTest):
    def test_wrong_residual_is_a_failed_operation(self):
        out = os.path.join(self.tmp, "r.scl")
        self.cli(["specialize", "--pattern", "aab", "--out", out])
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        self.assertEqual(run.check_residual("aab", out, 7, EXPECTED), [])
        planted = text.replace("= T;", "= F;")
        self.assertNotEqual(planted, text)
        result = run.Pass()
        for residual in (text, planted, "F_0 {"):
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(residual)
            problems = run.guarded(run.check_residual, "aab", out, 7,
                                   EXPECTED)
            result.op(0.1, 0.1, problems, 1.0)
        self.assertEqual((result.failed, len(result.op_seconds)), (2, 3))

    def test_wrong_value_or_steps_in_run_long(self):
        y = inputs.avoiding_string("aab", 50, random.Random(1))
        steps = inputs.naive_steps("aab", y)
        good = {"pattern": "aab", "kind": "x", "engine": "naive",
                "value": "F", "steps": steps}
        self.assertEqual(run.check_long(good, y, steps, EXPECTED), [])
        for change in ({"value": "T"}, {"steps": good["steps"] + 1},
                       {"engine": "residual", "steps": 2 * len(y) + 6},
                       {"error": "StuckTermError()"}):
            self.assertNotEqual(
                run.check_long(dict(good, **change), y, steps, EXPECTED), [],
                change)

    def test_failed_facet_in_verify_output(self):
        seed = 7
        records = [f"pattern=p{i} " + " ".join(f"{f}=ok" for f in run.FACETS)
                   for i in range(run.CORPUS_SIZE)]
        good = "\n".join(records + ["result: PASS"]).encode()
        no_digest = dict(EXPECTED, verify_stdout_sha256={})
        self.assertEqual(run.check_verify(0, good, seed, no_digest), [])
        self.assertNotEqual(run.check_verify(0, good, seed, EXPECTED), [])
        bad = good.replace(b"p5 first_path=ok", b"p5 first_path=FAIL")
        self.assertNotEqual(run.check_verify(0, bad, seed, no_digest), [])
        self.assertNotEqual(run.check_verify(1, good, seed, no_digest), [])


class MetricNames(BenchTest):
    def test_end_to_end_names_match_benchmark_json(self):
        passes = [run.Pass(op_seconds=[0.5, 1.0, 2.0], setups=[0.1, 0.2],
                           rss_mb=30.0)]
        metrics = run.end_to_end(passes)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)

    def test_per_layer_names_match_benchmark_json(self):
        trace = self.traced(["verify", "--pattern", "ab", "--seed", "1"])
        metrics = run.per_layer(trace, 1.0, 1.5)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in BENCHMARK["workloads"]})
        self.assertEqual(set(run.EXERCISED), set(run.WORKLOADS))


class Seeds(unittest.TestCase):
    def test_seed_drives_every_generated_input(self):
        for gen in (inputs.ladder_patterns, inputs.long_cases):
            self.assertEqual(gen(3), gen(3))
            self.assertNotEqual(gen(3), gen(4))

    def test_long_inputs_avoid_their_pattern(self):
        for p, _, y in inputs.long_cases(5):
            self.assertNotIn(p, y)


if __name__ == "__main__":
    unittest.main()
