#!/usr/bin/env python3
"""Builds the `ptmap` CLI and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Build artefacts go to $CARGO_TARGET_DIR (default `.bench_build`). The
benchmark's own output, ending in one JSON line, is passed through
unchanged, and so is its exit code.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ptmap-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build logs go to stderr so stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--ptmap", os.path.join(release, "ptmap")]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
