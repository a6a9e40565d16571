#!/usr/bin/env python3
"""Builds the FragDB benchmark from source and runs one workload.

    python3 fragbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 fragbench/run.py --selftest

Run from the repository root. The first call configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build)/fragbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. --selftest builds and runs
the determinism test instead (1 vs 4 PDES workers, traced vs untraced).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "fragbench")


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("fragbench: FragDB sources (src/) not found; run from a "
                 "full checkout of the repository")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "fragbench")
    selftest = argv == ["--selftest"]
    target = "fragbench_determinism_test" if selftest else "fragbench"
    try:
        binary = build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"fragbench: build failed: {err}")
    return subprocess.run([binary] + ([] if selftest else argv),
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
