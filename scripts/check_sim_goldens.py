#!/usr/bin/env python3
"""Pins the exact output of the deterministic simulation benches.

    python3 scripts/check_sim_goldens.py [--build BUILD_DIR]

Runs each bench in GOLDENS from `<BUILD_DIR>/bench/` (default `build`),
each in its own temporary directory, and compares the sha256 of its
stdout, its stderr and the BENCH_<name>.json it writes against the
pinned values. Every number these benches print is simulated (makespan,
latency, bytes moved, counts), so any difference means simulated
behaviour changed. A refactor must leave every hash unchanged; a change
that alters behaviour on purpose updates the hashes (the script prints
the new ones) and says why in CHANGES.md.

The hashes were taken with GCC 12.2 and libstdc++ on x86-64. Another
standard library may format doubles or order hash tables differently.
"""
import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()
# bench name -> sha256 of (stdout, stderr, BENCH_<name>.json)
GOLDENS = {
    # Before the client failed over on status replies it cannot read
    # (DESIGN.md §6, "One k=v codec"), this JSON hashed to
    # 9aa96b0ac433c7b54f205e0e74feefd7c57712583a1da106ed6015f1fcc2e42c; the
    # one difference is "corrupted_off": 101 -> 99, from the undefended run's
    # bit-flipped status replies. stdout and stderr did not change.
    "gray_failures": ("b3e85a78309b6b36f34aca7a95c29d398fb797935493560ee062ef29b1514a61",
                    EMPTY,
                    "ce6db2402133c7721990f13b949a57481110915741281328ec89e1ae4ec5de47"),
    "health_steering": ("5e775674d7c5adc18fbfc469f49c0ee60379af9df27d3eeb87e8d121347e6eea",
                      EMPTY,
                      "ecff632ca54c2c2b4e1d5250e482ac8bf36258c648578c45eb58bc8346864388"),
    "chaos_recovery": ("dccb6eeaaa36f02314884a10be2e1e241887de1f313bb7685995a80737c82c47",
                     EMPTY,
                     "161ed966e5a7446b6b9412a429271012e2d975afca2b73fc28c00971d4e840a9"),
    "failover": ("1d01c5ffde8c57a95f0b24b89d01261f35e6220afcb6d1e971bec10fc7603864",
               EMPTY,
               "40d3ea6d3050bce0e96569c94398628c98447d61b5d54ed6d8f8082e37e42576"),
    "migration": ("3270bcfcc99da9138167d1e052c3fd4c556cab7c32555fe3fcdbaf6a91f4451c",
                EMPTY,
                "0cb7f7e87614d3733302f3699e191fe9cdb3bd2152de6a6e44080a0b85125ff2"),
    "qos_isolation": ("76b4e3632d4abe4105597487d8b07f107ed5f3fe1fa14258ad9fbc27876dd5dd",
                    EMPTY,
                    "7feb5263d6fd54a3c38e9f5a9642177547ffb13a3a6c583b3d593eecbe6ba7ac"),
    "workflow": ("c0f3185caf97357ee87ce61bb71288ef95b20b1ea8308a54796671110a68d26e",
               EMPTY,
               "5f402bf8d53570a6cc5759dbdd5b62286a7d5b50c8ff67a5b892cb3a72f11141"),
    "replica_prestage": ("fa29d905287e085fa1fca175c03cc04c957c779a0a25703ad88f916e3b4cdb21",
                       EMPTY,
                       "7d465b5ef1aed2f17ae3795a93bcc5ce711b0ac8fe590edc049c1f432c0810c4"),
    "adaptive": ("cb871af4dadcdb2a022d5d8152efe4a6bbab0a52cc189c1d920eb232a36a2a58",
               EMPTY,
               "bb5823fb263eb4b73ede20ab5a53fc577da2c324cce59042de6e4fd491bb2d00"),
    "load_sweep": ("1f6a9386034898d377db05b6f779e1182fd3f3fef99e55e0fca84eafb097e80b",
                 EMPTY,
                 "2e7eb191baaeb87d0407e04ee35155eb62ceedf3f9a09804e05605d440bc918d"),
    "dynamic_clusters": ("71bb71ad379885caebd357d8b2933658bb6b65f7794d1780c3bbf00e71f59d0d",
                       EMPTY,
                       "40acb0905240b53221286fa9b53545479804b21208d9c269cd3fad169a137a24"),
    "placement_latency": ("d9c081f460c8f1cd70fdc3fc2741a257294824577822110154b0c3e95dddfead",
                        EMPTY,
                        "1806f73eef7216eb1940e9a9de93ac6a0204f7fb462f805951e8cb88c1f4848b"),
    "result_cache": ("2be15f76f546bc22953c3f70c4cbae2f4821a9ef2eac2a6bc3803456b651bc45",
                   EMPTY,
                   "23a2208eeb9d0a3e5e118941ba76d740f170c731f6ee2846caa1fde88a6f48c7"),
    "table1_computation": ("779c4e7edd53b847066332a1623d11ef646cb7f620e9e23b9a9971a7ed3c4b18",
                         EMPTY,
                         "442f045a6492a2bebb87aa9f1d8de5a7e881d6e159133589b42de5eff7becb2a"),
    "centralized_vs_lidc": ("53f73af0a7c2acbc168d5f701aef972e7336086d7212644ad994dbcbc5f8a8ef",
                          EMPTY,
                          "612dd1f46b7885371ac880bb16e771dce430207e977faf8307b5cda56dcee5a3"),
    "datalake": ("5ca53e9b285fac95844af7c612b72a573ee25f616626ce4482f4cd07800061f5",
               EMPTY,
               "0c3e297e8d34d11bde4719338ea934f93570e7a971c193440b1f30034bdf7bd6"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build", type=Path, default=ROOT / "build",
                        help="CMake build directory holding bench/ (default: build)")
    args = parser.parse_args()

    failed = False
    for name, pinned in GOLDENS.items():
        binary = (args.build / "bench" / f"bench_{name}").resolve()
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run([str(binary)], cwd=tmp, capture_output=True)
            report = Path(tmp) / f"BENCH_{name}.json"
            if out.returncode != 0 or not report.exists():
                print(f"FAIL {name}: exited {out.returncode}, "
                      f"{report.name} {'written' if report.exists() else 'missing'}")
                failed = True
                continue
            got = (sha256(out.stdout), sha256(out.stderr), sha256(report.read_bytes()))
        if got == pinned:
            print(f"ok   {name}")
            continue
        failed = True
        print(f"FAIL {name}:")
        for what, want, have in zip(("stdout", "stderr", report.name), pinned, got):
            if want != have:
                print(f"  {what}: sha256 {have}, pinned {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
