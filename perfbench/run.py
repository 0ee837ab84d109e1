#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/efgame_cli.exe with dune into
.bench_build/, then runs the workload with its scratch files in
.bench_work/. The last line of standard output is the JSON result; the
exit code is the benchmark's own (0 only when every output matched its
known answer), or 2 when the sources or the build are missing.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ["perfbench/perfbench.exe", "bin/efgame_cli.exe"]
# What the build needs besides this directory: the library sources and
# the CLI the shard_fleet workload drives.
REQUIRED = ["dune-project", "lib/efgame/dune", "lib/dist/dune", "lib/spanner/dune",
            "bin/dune", "bin/efgame_cli.ml", "perfbench/dune"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        fail("run from the root of a source checkout; missing " + ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet"]
        + ["./" + t for t in TARGETS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe, cli = (os.path.join(BUILD_DIR, "default", t) for t in TARGETS)
    os.makedirs(WORK_DIR, exist_ok=True)
    # the benchmark prints its own result; pass its exit code through
    sys.stdout.flush()
    proc = subprocess.run([exe, "--work", WORK_DIR, "--cli", os.path.abspath(cli)] + argv)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
