#!/usr/bin/env python3
"""Build and run the mlpsim benchmark.

    python3 perfbench/run.py --workload figures|cell|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark package in this
directory and the repository's `mlpsim-serve` binary (release, offline,
into $CARGO_TARGET_DIR or target/), then runs one workload. Build output
goes to stderr; the last line of stdout is the JSON result. Extra flags
(for example --record) pass through to the benchmark binary.
"""

import os
import subprocess
import sys


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "mlpsim-serve", "--bin", "mlpsim-serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from the root of a checkout (no Cargo.toml here)")
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    build(root, target)
    exe = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "mlpsim-serve")
    cmd = [exe, *sys.argv[1:], "--server-bin", server, "--root", root]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
