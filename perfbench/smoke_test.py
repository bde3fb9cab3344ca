#!/usr/bin/env python3
"""Smoke test of the ledger benchmark at toy size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs the benchmark at toy scale
(512-bit keys, a few envelopes) untraced and traced, and asserts that the
run passes its oracle and emits exactly the metrics BENCHMARK.json names,
each with its declared unit. Then it reruns each workload with one
planted expectation flipped and asserts that the oracle fails, so the
correctness checks are known not to be vacuous. Exits non-zero on the
first failed assertion.
"""

import json
import os
import subprocess
import sys


def run(workload, trace, flip=False):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--toy"]
    if flip:
        cmd.append("--flip-planted")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok:   " + message)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc, result = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0 and result is not None,
                  label + " exits 0 with a result line")
            check(result["correct"] is True and result["failed"] == 0,
                  label + " passes its oracle")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared[trace],
                  label + " emits every declared metric with its unit")
        proc, result = run(workload, 0, flip=True)
        check(proc.returncode != 0 and result is not None and
              result["correct"] is False and
              "ORACLE FAILED" in proc.stdout,
              workload + " oracle fails when one expectation is flipped")
    print("smoke test passed")


if __name__ == "__main__":
    main()
