#!/usr/bin/env python3
"""CI gate for the RSA hot path (docs/bignum.md).

Reads the gbench JSON written by bench_crypto (BENCH_bench_crypto.json)
and fails the build unless:

  1. BM_RsaSignFdh/2048 (CRT signing, the per-item issue cost every
     server bench amortizes) sustains at least --min-sign-ops signatures
     per second. The workflow pins this to 2x the pre-kernel baseline,
     so a regression that gives back the 64-bit limb win turns CI red.
  2. The injected "config" block shows the kernels actually ran as
     shipped: 64-bit limbs, and the 2048-bit CRT halves dispatching to
     the fixed-width-16 Montgomery kernel (not the generic loop).
  3. On a CPU with AVX-512 IFMA (config "cpu_ifma": true), at least one
     exponentiation ran on the IFMA kernel, so a silent fall-back to the
     portable kernels turns CI red. Without IFMA the portable kernels are
     the only path and this check does not apply.
  4. On a CPU with AVX-512 IFMA, at least one 8-lane pass ran
     (fixed_width_powmods "mb8:<n>" with n > 0, from the
     BM_RsaSignFdhMany rows), so a multi-buffer signing path that
     silently falls back to one signature at a time turns CI red. No
     timing floor applies to it.
  5. On a CPU with the SHA extensions (config "cpu_sha_ni": true, read
     by the bench from cpuid), SHA-256 ran on the SHA-NI kernel (config
     "sha256_kernel": "sha-ni"), so a silent fall-back to the portable
     compression loop turns CI red. No timing floor applies to hashing.

Usage: check_crypto_perf.py BENCH_bench_crypto.json --min-sign-ops 465
"""

import argparse
import json
import sys


def ops_per_second(entry):
    """Signatures/second from a gbench iteration entry."""
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
        entry.get("time_unit", "ns")]
    seconds = entry["real_time"] * unit
    if seconds <= 0:
        raise SystemExit(f"nonsensical real_time in {entry['name']}")
    return 1.0 / seconds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--bench", default="BM_RsaSignFdh/2048")
    parser.add_argument("--min-sign-ops", type=float, required=True)
    args = parser.parse_args()

    with open(args.report) as f:
        doc = json.load(f)

    runs = [b for b in doc.get("benchmarks", [])
            if b.get("name") == args.bench
            and b.get("run_type", "iteration") == "iteration"]
    if not runs:
        raise SystemExit(f"{args.report}: no iteration runs for {args.bench}")
    # Best of the repetitions: the gate asks "can the kernel hit the
    # floor", and the minimum time is the least noisy estimator of that.
    ops = max(ops_per_second(b) for b in runs)

    config = doc.get("config", {})
    failures = []
    if ops < args.min_sign_ops:
        failures.append(
            f"{args.bench}: {ops:.0f} ops/s < floor {args.min_sign_ops:.0f}")
    if config.get("bignum_limb_bits") != 64:
        failures.append(
            f"config.bignum_limb_bits = {config.get('bignum_limb_bits')!r}, "
            "expected 64 - kernel config not recorded or wrong limb width")
    # fixed_width_powmods looks like
    # "512:a,1024:b,2048:c,generic:d,ifma:e,mb8:f"; IFMA exponentiations
    # and every lane of an 8-lane pass count in their width bucket too.
    widths = dict(kv.split(":") for kv in
                  config.get("fixed_width_powmods", "").split(",") if ":" in kv)
    if int(widths.get("1024", "0")) <= 0:
        failures.append(
            "no PowMods dispatched to the fixed width-16 kernel "
            f"(fixed_width_powmods = {config.get('fixed_width_powmods')!r}); "
            "2048-bit CRT signing should run its 1024-bit halves there")
    cpu_ifma = config.get("cpu_ifma")
    if cpu_ifma is True and int(widths.get("ifma", "0")) <= 0:
        failures.append(
            "cpu_ifma is true but no PowMod ran on the IFMA kernel "
            f"(fixed_width_powmods = {config.get('fixed_width_powmods')!r}); "
            "the portable kernels ran instead")
    if cpu_ifma is True and int(widths.get("mb8", "0")) <= 0:
        failures.append(
            "cpu_ifma is true but no 8-lane multi-buffer pass ran "
            f"(fixed_width_powmods = {config.get('fixed_width_powmods')!r}); "
            "RsaSignFdhMany signed its groups one message at a time")

    cpu_sha_ni = config.get("cpu_sha_ni")
    sha256_kernel = config.get("sha256_kernel")
    if sha256_kernel not in ("sha-ni", "portable"):
        failures.append(
            f"config.sha256_kernel = {sha256_kernel!r}, expected 'sha-ni' "
            "or 'portable' - hashing kernel not recorded")
    elif cpu_sha_ni is True and sha256_kernel != "sha-ni":
        failures.append(
            "cpu_sha_ni is true but SHA-256 ran on the "
            f"{sha256_kernel!r} kernel, not 'sha-ni'")

    print(f"{args.bench}: {ops:.0f} ops/s (floor {args.min_sign_ops:.0f}), "
          f"limb_bits={config.get('bignum_limb_bits')}, "
          f"cpu_ifma={cpu_ifma}, "
          f"cpu_sha_ni={cpu_sha_ni}, sha256_kernel={sha256_kernel}, "
          f"widths_hit={config.get('fixed_width_powmods')}")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("crypto perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
