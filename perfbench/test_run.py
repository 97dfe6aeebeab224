#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. From the root of a checkout:

    python3 perfbench/test_run.py

Each test runs perfbench/run.py for real (short --seconds), so the suite
takes a few minutes and builds .bench_build/ first if it is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TMP = os.path.join(run.WORK_ROOT, "tests")

# The layers each workload was chosen for: together they carry the largest
# share of its traced wall.
CHOSEN = {
    "refine_arxiv": ["ops.mapper", "ops.filter"],
    "pack_web": run.IO_LAYERS,
    "dedup_web": ["ops.dedup"],
    "rerun_cached": ["core.cache", "data.parse", "data.to_jsonl"],
}
# Layers that should not move a workload's end-to-end metrics: each stays
# under 15% of that workload's traced wall.
SHOULD_NOT_MOVE = {
    "refine_arxiv": ["data.serialize", "compress.compress", "core.cache",
                     "compress.decompress", "data.deserialize", "core.plan"],
    "pack_web": ["ops.dedup", "core.cache", "compress.decompress",
                 "data.deserialize", "data.to_jsonl", "core.plan"],
    "dedup_web": ["ops.mapper", "ops.filter", "data.parse", "data.serialize",
                  "compress.compress", "core.plan"],
    "rerun_cached": ["ops.mapper", "ops.filter", "ops.dedup",
                     "data.serialize", "compress.compress", "core.plan"],
}


def bench(name, *extra):
    """Runs the benchmark; returns (last-line result, detailed result)."""
    out = os.path.join(TMP, name + ".json")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--out", out]
        + list(extra), cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("run.py %s exited %d" % (extra, proc.returncode))
    with open(out) as f:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(TMP, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(TMP, ignore_errors=True)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.per_layer_spec())

    def test_degraded_run_is_flagged_worse(self):
        base, _ = bench("base", "--workload", "refine_arxiv", "--seed", "3",
                        "--seconds", "3")
        slow, _ = bench("slow", "--workload", "refine_arxiv", "--seed", "3",
                        "--seconds", "3", "--np", "1")
        self.assertTrue(base["correct"] and slow["correct"])
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "compare",
             os.path.join(TMP, "base.json"), os.path.join(TMP, "slow.json")],
            stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        wall = [ln for ln in proc.stdout.splitlines() if ln.startswith("wall_s")]
        self.assertTrue(wall and wall[0].endswith("WORSE"), proc.stdout)
        # A run compared with itself is not a regression.
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "compare",
             os.path.join(TMP, "base.json"), os.path.join(TMP, "base.json")],
            stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_corrupted_output_raises_error_rate(self):
        result, detail = bench("corrupt", "--workload", "refine_arxiv",
                               "--seed", "4", "--seconds", "1",
                               "--corrupt-run", "0")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(detail["error_rate"], 0)
        self.assertLess(result["metrics"]["success_rate"]["value"], 1)
        self.assertFalse(detail["runs"][0]["ok"])
        self.assertTrue(all(r["ok"] for r in detail["runs"][1:]))

    def test_traced_spans_account_for_the_traced_wall(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, detail = bench("trace-" + workload, "--workload",
                                       workload, "--seed", "5", "--seconds",
                                       "1", "--trace", "1")
                self.assertTrue(result["correct"])
                for p in detail["trace_passes"].values():
                    for trace in p:
                        top = sum(sp["dur_s"] for sp in trace["spans"]
                                  if sp["parent"] == "trace")
                        self.assertAlmostEqual(
                            top + run.unattributed(trace), trace["wall_s"],
                            places=9)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(m[layer + ".s"] for layer in run.LAYERS)
                self.assertAlmostEqual(layers + m["trace.unattributed_s"],
                                       m["trace.wall_s"], places=9)
                chosen = sum(m[layer + ".share"]
                             for layer in CHOSEN[workload])
                others = [m[layer + ".share"] for layer in run.LAYERS
                          if layer not in CHOSEN[workload]]
                self.assertGreater(chosen, 0.5)
                self.assertGreater(chosen, max(others))
                for layer in SHOULD_NOT_MOVE[workload]:
                    self.assertLess(m[layer + ".share"], 0.15, layer)

    def test_fails_without_repository_sources(self):
        bare = os.path.join(TMP, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pack_web",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
