#!/usr/bin/env python3
"""Builds the query-path benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench
(its log to .bench_build/perfbench.log), scratch tables and trace files to
.bench_work. The last line of standard output is the benchmark's JSON
result; a failed build prints no result and exits non-zero.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench.log")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "query_path_bench")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "query_path_bench",
         "-j", jobs],
    ]
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                return False
    return True


def main():
    if not build():
        with open(BUILD_LOG) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed (log: %s)\n" % BUILD_LOG)
        return 1
    # Runs are sequential: a scratch directory left by a run that died
    # (tables of up to a few GB) is removed before the next one starts.
    os.makedirs(WORK_DIR, exist_ok=True)
    for entry in os.listdir(WORK_DIR):
        path = os.path.join(WORK_DIR, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    return subprocess.run([BINARY, *sys.argv[1:], "--workdir", WORK_DIR],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
