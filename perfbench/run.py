#!/usr/bin/env python3
"""Builds and runs the LIDC benchmark.

    python3 perfbench/run.py --workload control_storm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the repository's libraries from src/
plus the benchmark program) in an optimized build under .bench_build, or
under $CARGO_TARGET_DIR when that is set; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Exits non-zero, without a result, when the sources
are missing, the build fails, or an output check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("control_storm", "lake_fetch", "dag_observed")
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, then finishes its repetition, replays
# and checks; anything far beyond that is a hang.
RUN_GRACE_S = 150


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"LIDC sources not found under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "lidc_perfbench"])
    for step in steps:
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "lidc_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="ops per repetition (0 = the workload's default)")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ops", str(args.ops)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=args.seconds + RUN_GRACE_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
