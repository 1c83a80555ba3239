#!/usr/bin/env python3
"""Build and run one workload of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/Cargo.toml, a workspace of its own)
and the release `bq-serve` binary of the repository's workspace, then runs
the benchmark binary with the same arguments. Build output goes to standard
error; the benchmark's last line of standard output is its JSON result.
Build artefacts go to $CARGO_TARGET_DIR, by default `.bench_build` in the
checkout. Exits non-zero, without a result, when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench/run.py: build failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env, os.path.join(HERE, "Cargo.toml"))
    build(env, os.path.join(ROOT, "Cargo.toml"),
          "-p", "bq-wire", "--bin", "bq-serve")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "bq-serve")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
