#!/usr/bin/env python3
"""Entry point of the fcv benchmark.

    python3 perfbench/run.py --workload ingest|mixed|audit --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Builds the `fcv`
binary and the benchmark client from source with dune (build output
goes to standard error), then runs the client, whose last line of
standard output is the JSON result.  Scratch files go to
.perfbench_work/ in the checkout and are removed after each run.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    needed = ["dune-project", os.path.join("bin", "fcv.ml"), "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: not the root of an fcv checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--root", ".", "./bin/fcv.exe", "./perfbench/main.exe"],
                           cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    fcv = os.path.join(root, "_build", "default", "bin", "fcv.exe")
    work = os.path.join(root, ".perfbench_work")
    sys.stdout.flush()
    os.execv(exe, [exe, "--fcv", fcv, "--work", work] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
