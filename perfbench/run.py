#!/usr/bin/env python3
"""Builds the xtk benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: topk_memory, complete_disk, topk_sharded, batch_update (see
perfbench/README.md).  The benchmark is compiled with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) and run
from the repository root.  Its standard output is passed through; the
last line is the JSON result.  Build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed (the benchmark needs the repository's crates/)", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", "xtk-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
