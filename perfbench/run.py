#!/usr/bin/env python3
"""Build and run the request-path benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wire_mixed|wire_single|inproc_mixed|paper_apps \
        --seed N --seconds S --trace 0|1

Builds perfbench (and the engine, from the repository's own CMake build)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one workload. The last line of stdout is the JSON result; build output goes
to stderr. A traced run (--trace 1) writes its Chrome trace to
.bench_build/traces/<workload>-<seed>.json. The exit code is nonzero when
the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: engine sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_mixed", "wire_single", "inproc_mixed", "paper_apps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    build(build_dir)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected-dir", os.path.join(HERE, "expected"),
        "--golden-dir", os.path.join(ROOT, "tests", "golden"),
    ]
    if args.trace:
        trace_dir = os.path.join(out_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
