#!/usr/bin/env python3
"""Builds and runs the relcomp serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload st_bfs_sharing --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --make-references lastfm_small

The first call configures and builds perfbench/ (the library sources under
src/ plus perfbench.cc) in the directory named by CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark binary's: 0 when every correctness
check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", metavar="SET")
    args = parser.parse_args()
    if not args.workload and not args.make_references:
        parser.error("--workload or --make-references is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "query_engine.h")):
        print("perfbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--refs", os.path.join(HERE, "refs"),
               "--out", os.path.join(ROOT, ".bench_out")]
    if args.make_references:
        command += ["--make-references", args.make_references]
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
