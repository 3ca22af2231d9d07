#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build` in the checkout), then runs
the `perfbench` binary with the same arguments. Build output goes to
standard error; the binary's standard output, whose last line is the
JSON result, passes through unchanged. Span logs and full result
records go to `.perfbench/` in the checkout. Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(ROOT, ".perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
