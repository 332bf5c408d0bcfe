#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload machine-web --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the simulator library from src/ and the
perfbench driver into .bench_build/perfbench (Release), then runs one
workload. The driver's last stdout line is a JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero when any
check failed. With --trace 1 the span trace is written to
.bench_build/traces/<workload>-seed<N>.json.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.hpp")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        fail("build failed")


def main(argv):
    args = list(argv)
    if "--workload" not in args:
        fail("--workload is required")
    build()
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-file",
                 os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
