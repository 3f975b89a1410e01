#!/usr/bin/env python3
"""Gates heap allocations per op on every perfbench workload.

    python3 scripts/check_alloc_budget.py

Runs each workload that check_sim_digests.py pins once, traced, at the
same seed (`perfbench/run.py --seed 1 --seconds 0 --trace 1`, which builds
the benchmark on first use, then about 5 s per workload) and fails when
`alloc.count_per_op` exceeds the ceiling recorded below. The run needs
tracing for the count, so it cannot reuse the digest check's untraced
run. The count is exact and repeats from run to run; it only moves with
the code or the standard library.

Each ceiling is the count measured with GCC 12.2 / libstdc++ plus 10%,
meant to absorb other library versions. That margin has not been checked
against any other compiler: the counts on a CI runner are unverified until
its first run prints them. A change that lowers a count lowers its
ceiling; one that raises a count past its ceiling says why in CHANGES.md.
"""
import json
import subprocess
import sys

from check_sim_digests import EXPECTED, ROOT, SEED

METRIC = "alloc.count_per_op"
CEILINGS = {
    "control_storm": 1519,  # measured 1,380.8
    "lake_fetch": 382,  # measured 347.1
    "dag_observed": 4309,  # measured 3,916.7
}


def main() -> int:
    failed = False
    for workload in EXPECTED:
        ceiling = CEILINGS[workload]
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(SEED), "--seconds", "0",
                   "--trace", "1"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        try:
            count = json.loads(lines[-1])["metrics"][METRIC]["value"]
        except (IndexError, KeyError, ValueError):
            print(f"FAIL {workload}: run exited {out.returncode} without {METRIC}\n"
                  f"{out.stderr[-2000:]}")
            failed = True
            continue
        if out.returncode != 0:
            print(f"FAIL {workload}: run exited {out.returncode}")
            failed = True
        elif count > ceiling:
            print(f"FAIL {workload}: {METRIC}={count:.1f} exceeds ceiling {ceiling}")
            failed = True
        else:
            print(f"ok   {workload}: {METRIC}={count:.1f} <= {ceiling}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
