#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark program (perfbench/src)
and the virgil library it links are built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build) on first use. The
program's last line of standard output is the result JSON; this script
passes it through and exits with the program's code.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative, so the program's Unix socket path stays short.
    return os.path.relpath(os.path.join(ROOT, out), ROOT)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; stdout stays clean."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build(out):
    tree = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", "perfbench", "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", tree, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"]) != 0:
        return None
    return tree


def self_test(tree, out):
    """Unit checks of the harness, then an end-to-end run with one
    deliberately wrong expected value, which must be reported."""
    if run_quiet([os.path.join(tree, "perfbench_selftest")]) != 0:
        return 1
    # A traced run: it needs no p99 sample floor, so one second will do.
    proc = subprocess.run(
        [os.path.join(tree, "perfbench"), "--workload", "serve-cold",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--out-dir", out,
         "--inject-mismatch"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    reported = (proc.returncode != 0 and result.get("correct") is False
                and result.get("failed", 0) >= 1)
    log("injected wrong expectation: exit %d, correct=%s, failed=%s -> %s"
        % (proc.returncode, result.get("correct"), result.get("failed"),
           "reported" if reported else "NOT REPORTED"))
    return 0 if reported else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    tree = build(out)
    if tree is None:
        log("build failed")
        return 2
    if args.self_test:
        return self_test(tree, out)
    cmd = [os.path.join(tree, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--out-dir", out]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
