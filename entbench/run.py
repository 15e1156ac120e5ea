#!/usr/bin/env python3
"""Builds and runs the ENT benchmark.

Usage, from the repository root:

    python3 entbench/run.py --workload <cli_cold|serve_mix|fig_grid> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the release `ent` binary (the repository's own workspace) and the
benchmark crate in `entbench/` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the benchmark with the given arguments. The
last line of standard output is the JSON result; result files land in
`entbench/out/`. Build output goes to standard error.

The benchmark runs pinned to one CPU (the highest-numbered one this
process may use), so `nproc` as the benchmark sees it is 1. On a shared
host, how much of a second vCPU a run gets swings from run to run: on the
2-vCPU host this benchmark was tuned on, two-thread fig_grid throughput
moved between 7.7k and 19.7k ops/s across back-to-back 2 s runs while the
pinned run stayed within 8.3k-9.7k. Exits nonzero, without a result,
when the repository's sources are not beside this directory or the build
fails.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates"))
    ):
        print(
            "entbench: the repository's Cargo.toml and crates/ are not next to "
            f"{here}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ent"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"entbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "entbench"),
        *argv,
        "--ent", os.path.join(release, "ent"),
        "--out", os.path.join(here, "out"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
