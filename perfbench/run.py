#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload xshard-txn --seed 1 --seconds 12 --trace 0

The build goes to _build/ under the current directory, with dune's shared
cache off and the compiler's temporary files in .perfbench-tmp/, so nothing
is written outside the current directory.  Build output goes to stderr;
the benchmark's own output, ending in one JSON line, goes to stdout.  The
exit code is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    tmp = os.path.join(root, ".perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
