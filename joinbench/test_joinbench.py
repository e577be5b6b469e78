#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 joinbench/test_joinbench.py

Runs the Scala self-checks (the percentile helper and its rule of at least
ten samples beyond a reported percentile), then short runs that check the
printed metric names and units against BENCHMARK.json and that one seed
always gives the same inputs, answers, counts and allocation bytes. Takes
about five minutes.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts and bytes that must repeat exactly across runs with one seed.
EXACT = ["verify.distances", "verify.candidate_postings", "block.candidate_pairs",
         "block.quick_pairs", "hgq.leaf_cells", "index.leaf_cells", "load.bytes",
         "block.alloc_bytes", "verify.alloc_bytes", "load.alloc_bytes", "setup.spill_bytes"]

_runs = {}


def run(workload, seed, trace, seconds=4):
    """Run the benchmark once (memoised); return (notes, result)."""
    key = (workload, seed, trace, seconds)
    if key not in _runs:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
        lines = out.strip().splitlines()
        notes = dict(m.groups() for m in (re.match(r"(\w+)=(\S+)$", l) for l in lines[:-1]) if m)
        _runs[key] = (notes, json.loads(lines[-1]))
    return _runs[key]


class SelfTest(unittest.TestCase):
    def test_scala_helpers(self):
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--selftest"], cwd=ROOT, check=True)


class Contract(unittest.TestCase):
    def check_names(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = run(w, 7, 0, seconds=1)
                self.check_names(result, SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["exact_frac"]["value"], 1)

    def test_traced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_names(run(w, 7, 1)[1], SPEC["per_layer"])

    def test_benchmark_json_workloads_exist(self):
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=ROOT,
                             stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(out.returncode, 0)
        listed = re.search(r"--workload <([^>]*)>", out.stderr).group(1).split("|")
        self.assertEqual(listed[:len(SPEC["workloads"])], [w["name"] for w in SPEC["workloads"]])


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_answers_counts_and_bytes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (n1, r1), (n2, r2) = run(w, 7, 1), run(w, 7, 1, seconds=5)
                self.assertEqual(n1["inputs_sha256"], n2["inputs_sha256"])
                self.assertEqual(n1["answers_sha256"], n2["answers_sha256"])
                for k in EXACT:
                    self.assertEqual(r1["metrics"][k]["value"], r2["metrics"][k]["value"], k)

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(run("open-deep", 7, 1)[0]["inputs_sha256"],
                            run("open-deep", 8, 0, seconds=1)[0]["inputs_sha256"])

    def test_untraced_and_traced_runs_agree_on_answers(self):
        self.assertEqual(run("lwdc-ooc", 7, 0, seconds=1)[0]["answers_sha256"],
                         run("lwdc-ooc", 7, 1)[0]["answers_sha256"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
