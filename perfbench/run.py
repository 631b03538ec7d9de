#!/usr/bin/env python3
"""Build the simulator benchmark driver and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload memcached_etc [--seed 42]
        [--seconds 10] [--trace 0|1]

--workload all runs the three workloads one after another. The
driver is built from source under .bench_build/ on first use (CMake,
Release); later runs only rebuild what changed. The last line of
standard output is the driver's JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["memcached_etc", "stream_triad", "rack_fabric"]
DEFAULT_SEED = 42

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"


def build():
    """Configure and build the driver; exit 1 with the log tail on error."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit("perfbench: build failed, see " + str(log_path))
    return BUILD / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    driver = build()
    status = 0
    for wl in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        status |= subprocess.run(
            [str(driver), "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(OUT)], check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
