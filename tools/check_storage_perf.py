#!/usr/bin/env python3
"""CI gate for the spent-set storage engine (docs/storage.md).

Reads the report written by bench_storage (BENCH_bench_storage.json) and
fails the build unless:

  1. The flat table's batch contains throughput on present ids is at
     least --min-ratio x the bench-local hash-set baseline at --entries
     entries. The spend path probes the spent set once per redemption,
     so this ratio IS the mutate-stage headroom the flat engine exists
     to provide; a regression that gives it back turns CI red.
  2. The "config" block shows the table geometry actually shipped:
     16-wide control-byte groups and the 7/8 max load factor. A silently
     changed geometry could trade memory for speed (or vice versa)
     without anyone noticing the RT-3 numbers moved.
  3. The flat table's measured bytes/entry stays under --max-bytes-per-
     entry — the honest-footprint satellite: 17 bytes per bucket at a
     power-of-two capacity can never legitimately exceed 39 B/entry
     (just after a rehash), so a larger number means MemoryBytes stopped
     telling the truth.

Usage: check_storage_perf.py BENCH_bench_storage.json
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--entries", type=int, default=10000000)
    parser.add_argument("--min-ratio", type=float, default=2.0)
    parser.add_argument("--max-bytes-per-entry", type=float, default=39.0)
    args = parser.parse_args()

    with open(args.report) as f:
        doc = json.load(f)

    def metric(name):
        key = f"sweep.{args.entries}.{name}"
        if key not in doc:
            raise SystemExit(f"{args.report}: missing metric {key} "
                             "(was the sweep run at this size?)")
        return float(doc[key])

    flat_hit = metric("flat.contains_hit_mops")
    hash_hit = metric("hash-set.contains_hit_mops")
    flat_bpe = metric("flat.bytes_per_entry")
    ratio = flat_hit / hash_hit if hash_hit > 0 else float("inf")

    config = doc.get("config", {})
    failures = []
    if ratio < args.min_ratio:
        failures.append(
            f"flat contains {flat_hit:.1f} Mops/s is only {ratio:.2f}x "
            f"hash-set ({hash_hit:.1f} Mops/s) at {args.entries} entries; "
            f"floor is {args.min_ratio:.1f}x")
    if config.get("spent_flat_group_width") != 16:
        failures.append(
            f"config.spent_flat_group_width = "
            f"{config.get('spent_flat_group_width')!r}, expected 16")
    if config.get("spent_flat_max_load_factor") != 0.875:
        failures.append(
            f"config.spent_flat_max_load_factor = "
            f"{config.get('spent_flat_max_load_factor')!r}, expected 0.875")
    if flat_bpe > args.max_bytes_per_entry:
        failures.append(
            f"flat bytes/entry {flat_bpe:.1f} > {args.max_bytes_per_entry:.1f}"
            " - MemoryBytes accounting or table geometry is off")

    print(f"spent-set sweep @ {args.entries}: flat contains "
          f"{flat_hit:.1f} Mops/s vs hash-set {hash_hit:.1f} Mops/s "
          f"({ratio:.2f}x, floor {args.min_ratio:.1f}x), "
          f"flat {flat_bpe:.1f} B/entry")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("storage perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
