#!/usr/bin/env python3
"""Build the benchmark in the release profile and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lookup_10k --seed 1 --seconds 35 --trace 0

Build output goes to stderr; the benchmark's report, ending in one JSON
result line, goes to stdout.  See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys


def main():
    # dune from PATH, else through the active opam switch.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release",
                "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
