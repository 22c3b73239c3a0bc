#!/usr/bin/env python3
"""Build the memx performance ledger from this checkout, then run it.

Run from anywhere inside the checkout, for example:

    python3 ledger/run.py --workload mpeg-cold --seed 1 --seconds 15 --trace 0

Every argument goes to the `ledger` binary unchanged (see ledger/README.md).
The build is incremental and lives in .bench_build/ at the checkout root;
its log is shown only when the build fails, so the ledger's own output,
whose last line is the JSON result, is all that reaches stdout.
"""
import os
import shutil
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def run_logged(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        sys.stderr.write("ledger/run.py: failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    generated = any(os.path.exists(os.path.join(BUILD_DIR, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", LEDGER_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "ledger",
                "-j", jobs])
    return os.path.join(BUILD_DIR, "ledger")


def main():
    binary = build()
    sys.exit(subprocess.call([binary] + sys.argv[1:], cwd=ROOT))


if __name__ == "__main__":
    main()
