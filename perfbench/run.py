#!/usr/bin/env python3
"""Build and run the deck-to-verdict benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload signoff-pg2 --seed 1 --seconds 15 --trace 0

The benchmark is an OCaml executable (perfbench/perfbench.ml) built with
dune from the checkout's own sources; build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. All arguments are passed to the executable; see
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def build():
    """Build the benchmark executable; return dune's exit code."""
    return subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    ).returncode


def main(argv):
    # The benchmark measures the repository's libraries: without their
    # sources there is nothing to build or measure.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: dune-project and lib/ not found; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
