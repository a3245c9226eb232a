#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the libraries from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build; later calls only rebuild what
changed. The benchmark's last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a copy goes to
.bench_out/result-<workload>-<seed>-trace<t>.json. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "msv_perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "msv_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the exact-answer oracle against brute force")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        command = [binary, "--selftest"]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", repr(args.seconds), "--trace",
                   str(args.trace), "--out", out_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if not args.selftest:
        lines = done.stdout.strip().splitlines()
        result = os.path.join(out_dir, "result-%s-%d-trace%d.json" %
                              (args.workload, args.seed, args.trace))
        with open(result, "w") as f:
            f.write((lines[-1] if lines else "") + "\n")


if __name__ == "__main__":
    main()
