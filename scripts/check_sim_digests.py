#!/usr/bin/env python3
"""Pins simulated behaviour and heap allocations per op across commits.

    python3 scripts/check_sim_digests.py

Runs every perfbench workload once, traced, at seed 1 (`perfbench/run.py
--seed 1 --seconds 0 --trace 1`, which builds the benchmark on first use,
then about 5 s per workload). Each run must pass two exact checks:

- The printed `digest=` equals the value recorded in EXPECTED. The digest
  hashes each op's index, simulated latency and outcome, and tracing does
  not change it, so a host-side optimisation must leave it unchanged. A
  change that alters simulated behaviour on purpose updates the recorded
  value and says so in CHANGES.md.
- `alloc.count_per_op`, which only a traced run reports, stays at or under
  its ceiling in CEILINGS. The count is exact and repeats from run to run;
  it only moves with the code or the standard library. Each ceiling is the
  count measured with GCC 12.2 / libstdc++ plus 10%, meant to absorb other
  library versions. That margin has not been checked against any other
  compiler: the counts on a CI runner are unverified until its first run
  prints them. A change that lowers a count lowers its ceiling; one that
  raises a count past its ceiling says why in CHANGES.md.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
EXPECTED = {
    "control_storm": "bcfc6ea47416e704",
    "lake_fetch": "0098605cfb960f00",
    "dag_observed": "6c264f242445ad25",
}
METRIC = "alloc.count_per_op"
CEILINGS = {
    "control_storm": 198,  # measured 179.6
    "lake_fetch": 88,  # measured 79.6
    "dag_observed": 447,  # measured 406.1
}


def main() -> int:
    failed = False
    for workload, expected in EXPECTED.items():
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(SEED), "--seconds", "0",
                   "--trace", "1"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        digest = re.search(r"digest=([0-9a-f]+)", out.stdout)
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
            count = result["metrics"][METRIC]["value"]
        except (IndexError, KeyError, ValueError):
            count = None
        if out.returncode != 0 or digest is None or count is None:
            print(f"FAIL {workload}: run exited {out.returncode}\n{out.stderr[-2000:]}")
            failed = True
            continue
        if digest.group(1) != expected:
            print(f"FAIL {workload}: digest={digest.group(1)}, recorded {expected}")
            failed = True
        else:
            print(f"ok   {workload}: digest={expected}")
        if count > CEILINGS[workload]:
            print(f"FAIL {workload}: {METRIC}={count:.1f} exceeds ceiling "
                  f"{CEILINGS[workload]}")
            failed = True
        else:
            print(f"ok   {workload}: {METRIC}={count:.1f} <= {CEILINGS[workload]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
