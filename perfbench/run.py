#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `atscale-serve` daemon from the workspace and the benchmark
benchmark package in this directory (both into CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark with the given arguments. Build
output goes to stderr, so the benchmark's JSON result stays the last line of
stdout. Exits non-zero, printing no result, when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    # Panic reports must not depend on the caller's shell: a symbolized
    # backtrace loads debug info and inflates peak memory.
    env["RUST_BACKTRACE"] = "0"
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "atscale-serve", "--bin", "atscale-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    bench = os.path.join(target, "release", "atscale-perfbench")
    return subprocess.run([bench] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
