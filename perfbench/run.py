#!/usr/bin/env python3
"""Builds and runs the P2DRM wall-clock ledger benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload retail --seed 1 --seconds 17 --trace 0

The program is built from the sources under src/ into
.bench_build/perfbench (CMake, Release) on first use; build output goes to
standard error. The benchmark's own output -- a ledger, a `config {...}`
line and, last, one JSON result line -- goes to standard output. Exit code
is the benchmark's: 0 when every correctness check passed, non-zero
otherwise (including when the sources or the build are missing).
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TMP_DIR = os.path.join(".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, env):
    """Configures (once) and builds the ledger program; returns its path."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(root, "src", "core", "system.h")):
        fail("no p2drm sources under %s/src" % root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build_dir, "--target", "p2drm_ledger",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    binary = os.path.join(build_dir, "p2drm_ledger")
    if not os.path.isfile(binary):
        fail("build produced no p2drm_ledger")
    return binary


def commit_of(root, env):
    # Never search above the checkout for a repository.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["retail", "transfer", "fraud"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test scale: 512-bit keys, few envelopes")
    parser.add_argument("--flip-planted", action="store_true",
                        help="flip one planted expectation (oracle self-test)")
    args = parser.parse_args()

    root = os.getcwd()
    # Compilers and the benchmark keep their temporary files in the
    # checkout too.
    tmp = os.path.join(root, TMP_DIR)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(root, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit_of(root, env)]
    if args.toy:
        cmd.append("--toy")
    if args.flip_planted:
        cmd.append("--flip-planted")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
