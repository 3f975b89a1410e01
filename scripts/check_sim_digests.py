#!/usr/bin/env python3
"""Pins simulated behaviour across commits.

    python3 scripts/check_sim_digests.py

Runs every perfbench workload once at seed 1 (`perfbench/run.py --seed 1
--seconds 0`, which builds the benchmark on first use) and fails unless
the printed `digest=` equals the value recorded below. The digest hashes
each op's index, simulated latency and outcome, so a host-side
optimisation must leave it unchanged. A change that alters simulated
behaviour on purpose updates the recorded value and says so in
CHANGES.md.
"""
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


def main() -> int:
    failed = False
    for workload, expected in EXPECTED.items():
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(SEED), "--seconds", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        match = re.search(r"digest=([0-9a-f]+)", out.stdout)
        if out.returncode != 0 or match is None:
            print(f"FAIL {workload}: run exited {out.returncode}\n{out.stderr[-2000:]}")
            failed = True
        elif match.group(1) != expected:
            print(f"FAIL {workload}: digest={match.group(1)}, recorded {expected}")
            failed = True
        else:
            print(f"ok   {workload}: digest={expected}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
