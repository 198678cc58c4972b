#!/usr/bin/env python3
"""Build and run the fsdep benchmark.

Run from the root of an fsdep checkout:

    python3 perfbench/run.py --workload kernel-extract --seed 42 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the program's library
sources plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs reuse that build. Build output
goes to stderr. The benchmark binary prints its report, one JSON object, as
the last line of stdout; this script passes it through and exits with the
binary's status. The metric names and units come from BENCHMARK.json at
the root of the checkout. Without the fsdep sources the build fails and
the script exits non-zero without printing a report.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kernel-extract", "serve-mixed", "fault-campaign")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    build = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return 1

    # Relative to the checkout root: serve-mixed puts its Unix socket here,
    # and a socket path may not exceed 107 bytes.
    work_dir = os.path.relpath(os.path.join(build_dir, "work-%d" % os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--goldens", os.path.join(bench_dir, "goldens.json"),
        "--catalog", os.path.join(root, "BENCHMARK.json"),
        "--work-dir", work_dir,
    ]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
