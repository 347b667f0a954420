#!/usr/bin/env python3
"""Build the Multival flow benchmark from source and run one workload.

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The build goes to .bench_build/dune with
dune's shared cache off and TMPDIR in .bench_build/tmp, so nothing is
written outside the checkout. The last line of standard output is the
benchmark's JSON result; a failed build exits non-zero without printing
one. `--workload all` prints every workload's end-to-end metrics.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_dir = os.path.join(root, ".bench_build", "dune")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, ".bench_build", "xdg-cache")
    env["TMPDIR"] = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
