#!/usr/bin/env python3
"""Self-tests of the LIDC benchmark, run at a tiny size per workload.

    python3 perfbench/test_perfbench.py

Checks that every printed metric name is well formed and listed in
BENCHMARK.json, that work counts and simulated-time metrics repeat
exactly for one seed, and that another seed gives another per-op digest.
The first test builds the benchmark through run.py.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"control_storm": 80, "lake_fetch": 80, "dag_observed": 40}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Host-time metrics vary run to run; everything else must repeat exactly.
HOST_UNITS = {"1/s", "s", "ns", "us", "%", "MiB"}
SIM_METRICS = {"sim_latency_p50_s", "sim_latency_p99_s", "sim_makespan_s",
               "link_bytes_per_op"}


def run(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
               "--ops", str(TINY_OPS[workload])]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"digest=([0-9a-f]+)", out.stdout).group(1)
    return json.loads(lines[-1]), digest


class BenchmarkTest(unittest.TestCase):
    def test_metric_names_are_listed(self):
        for workload in TINY_OPS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result, _ = run(workload, 1, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                listed = {m["name"]: m["unit"] for m in SPEC[section]}
                printed = result["metrics"]
                for name, metric in printed.items():
                    self.assertRegex(name, NAME)
                    self.assertIn(name, listed, f"{workload}: {name} not in BENCHMARK.json")
                    self.assertEqual(metric["unit"], listed[name], name)
                self.assertEqual(set(printed), set(listed), f"{workload} trace {trace}")

    def test_counts_and_simulated_time_repeat(self):
        for workload in TINY_OPS:
            for trace in (0, 1):
                first, first_digest = run(workload, 7, trace)
                second, second_digest = run(workload, 7, trace)
                self.assertEqual(first_digest, second_digest, workload)
                for name, metric in first["metrics"].items():
                    if metric["unit"] in HOST_UNITS and name not in SIM_METRICS:
                        continue
                    self.assertEqual(metric["value"], second["metrics"][name]["value"],
                                     f"{workload}: {name}")

    def test_other_seed_changes_digest(self):
        for workload in TINY_OPS:
            _, first = run(workload, 1, 0)
            _, held_out = run(workload, 9001, 0)
            self.assertNotEqual(first, held_out, workload)


if __name__ == "__main__":
    unittest.main()
