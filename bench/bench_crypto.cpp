// RT-1: Crypto microbenchmarks.
//
// Regenerates the primitive-cost table: RSA keygen / FDH sign / verify,
// blind-signature client and signer costs, hybrid encryption, SHA-256 and
// ChaCha20 throughput — each across modulus sizes 512/1024/2048. Includes
// the Montgomery-vs-plain modexp ablation called out in DESIGN.md and the
// Montgomery squaring-vs-multiply kernel pair. The hashing rows
// (SHA-256 throughput, a 4-byte HMAC-DRBG draw, a DRBG fork, the 2048-bit
// full-domain hash) price the per-item hashing the issue and verify
// stages pay on top of the exponentiations. BM_RsaSignFdhMany prices a
// group signed on the 8-lane kernel, per signature.

#include <benchmark/benchmark.h>

#include "gbench_json_main.h"

#include <chrono>
#include <map>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#endif

#include "bignum/ifma.h"
#include "bignum/limbs.h"
#include "bignum/montgomery.h"
#include "crypto/blind_rsa.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace {

using p2drm::bignum::BigInt;
using p2drm::bignum::Montgomery;
namespace crypto = p2drm::crypto;

// The CPU's SHA-extensions bit (cpuid leaf 7 EBX bit 29), read here
// rather than from the library so the config block can show a library
// that failed to pick its SHA-NI kernel.
bool CpuReportsShaNi() {
#if defined(__x86_64__) && defined(__GNUC__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

const crypto::RsaPrivateKey& KeyForBits(std::size_t bits) {
  static std::map<std::size_t, crypto::RsaPrivateKey> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    crypto::HmacDrbg rng("bench-key-" + std::to_string(bits));
    it = cache.emplace(bits, crypto::GenerateRsaKey(bits, &rng)).first;
  }
  return it->second;
}

void BM_RsaKeygen(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg rng("keygen-bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::GenerateRsaKey(bits, &rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_RsaSignFdh(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> msg(64, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::RsaSignFdh(key, msg));
  }
}
BENCHMARK(BM_RsaSignFdh)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// RsaSignFdhMany over range(1) distinct messages; the reported time is
// per signature, so the rows compare directly with BM_RsaSignFdh. Groups
// of kMb8MinLanes or more run on the 8-lane kernel (docs/bignum.md,
// "Multi-buffer signing"); smaller ones sign one message at a time.
void BM_RsaSignFdhMany(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::size_t i = 0; i < count; ++i) {
    msgs.emplace_back(64, static_cast<std::uint8_t>(0x5a + i));
  }
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(crypto::RsaSignFdhMany(key, msgs));
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count() / static_cast<double>(count));
  }
}
BENCHMARK(BM_RsaSignFdhMany)
    ->Args({2048, 1})->Args({2048, 4})->Args({2048, 8})
    ->UseManualTime()->Unit(benchmark::kMicrosecond);

void BM_RsaVerifyFdh(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> msg(64, 0x5a);
  auto sig = crypto::RsaSignFdh(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::RsaVerifyFdh(key.PublicKey(), msg, sig));
  }
}
BENCHMARK(BM_RsaVerifyFdh)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_BlindClientPrep(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  crypto::HmacDrbg rng("blind-prep");
  std::vector<std::uint8_t> msg(64, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::BlindMessage(key.PublicKey(), msg, &rng));
  }
}
BENCHMARK(BM_BlindClientPrep)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_BlindSignerOp(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  crypto::HmacDrbg rng("blind-sign");
  std::vector<std::uint8_t> msg(64, 0x22);
  auto ctx = crypto::BlindMessage(key.PublicKey(), msg, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::SignBlinded(key, ctx.blinded));
  }
}
BENCHMARK(BM_BlindSignerOp)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_BlindFullCycle(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  crypto::HmacDrbg rng("blind-cycle");
  std::vector<std::uint8_t> msg(64, 0x33);
  for (auto _ : state) {
    auto ctx = crypto::BlindMessage(key.PublicKey(), msg, &rng);
    auto bs = crypto::SignBlinded(key, ctx.blinded);
    auto sig = crypto::Unblind(key.PublicKey(), ctx, bs);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_BlindFullCycle)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_HybridEncrypt(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  crypto::HmacDrbg rng("hyb-enc");
  std::vector<std::uint8_t> pt(32, 0x44);  // a content key
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::RsaHybridEncrypt(key.PublicKey(), pt, &rng));
  }
}
BENCHMARK(BM_HybridEncrypt)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_HybridDecrypt(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  crypto::HmacDrbg rng("hyb-dec");
  std::vector<std::uint8_t> pt(32, 0x55);
  auto ct = crypto::RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::RsaHybridDecrypt(key, ct, &out));
  }
}
BENCHMARK(BM_HybridDecrypt)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_Sha256Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0x66);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(4096)->Arg(1 << 20);

// One license-id draw: the 4-byte Fill every issued item makes from its
// fork (one HMAC for the output, three for the state update).
void BM_HmacDrbgFill4(benchmark::State& state) {
  crypto::HmacDrbg rng("drbg-fill-bench");
  std::uint8_t out[4] = {};
  for (auto _ : state) {
    rng.Fill(out, sizeof(out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HmacDrbgFill4)->Unit(benchmark::kNanosecond);

// One per-item fork as BatchPipeline::Run draws them on the dispatch
// thread: a 32-byte parent draw plus instantiating the child.
void BM_ForkRandom(benchmark::State& state) {
  crypto::HmacDrbg parent("fork-bench");
  const std::vector<std::uint8_t> tag = {'i', 's', 's', 'u', 'e', 0, 0, 0, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ForkRandom(&parent, tag));
  }
}
BENCHMARK(BM_ForkRandom)->Unit(benchmark::kNanosecond);

// The full-domain hash alone (SHA-256 of the message, then MGF1 to the
// modulus width): paid once per FDH sign and once per verify.
void BM_FdhHash(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  const crypto::RsaPublicKey pub = key.PublicKey();
  std::vector<std::uint8_t> msg(64, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::FdhHash(msg, pub));
  }
}
BENCHMARK(BM_FdhHash)->Arg(2048)->Unit(benchmark::kNanosecond);

void BM_ChaCha20Throughput(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0x77);
  for (auto _ : state) {
    crypto::ChaCha20 c(key, nonce);
    c.Crypt(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Throughput)->Arg(4096)->Arg(1 << 20);

// Ablation: Montgomery-window modexp vs naive square-and-multiply with
// full division at each step.
void BM_ModExpMontgomery(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  Montgomery mont(key.n);
  BigInt base = BigInt::FromHex("123456789abcdef").Mod(key.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.PowMod(base, key.d));
  }
}
BENCHMARK(BM_ModExpMontgomery)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// Kernel ratio: one Montgomery squaring vs one general Montgomery
// multiply at 1024 bits (the width of a 2048-bit key's CRT halves, where
// PowMod spends its ~1020 squarings per exponent). Each iteration feeds
// its output back in, so the loop measures a dependent chain, as in
// PowMod.
void BM_MontSqr(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  Montgomery mont(key.n);
  p2drm::bignum::Scratch scratch;
  std::vector<p2drm::bignum::Limb> acc(mont.width());
  mont.Load(acc.data(), BigInt::FromHex("123456789abcdef").Mod(key.n));
  for (auto _ : state) {
    mont.MontSqrLimbs(acc.data(), acc.data(), &scratch);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_MontSqr)->Arg(1024)->Unit(benchmark::kNanosecond);

void BM_MontMul(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  Montgomery mont(key.n);
  p2drm::bignum::Scratch scratch;
  std::vector<p2drm::bignum::Limb> acc(mont.width());
  mont.Load(acc.data(), BigInt::FromHex("123456789abcdef").Mod(key.n));
  for (auto _ : state) {
    mont.MontMulLimbs(acc.data(), acc.data(), acc.data(), &scratch);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_MontMul)->Arg(1024)->Unit(benchmark::kNanosecond);

void BM_ModExpNaive(benchmark::State& state) {
  const auto& key = KeyForBits(static_cast<std::size_t>(state.range(0)));
  BigInt base = BigInt::FromHex("123456789abcdef").Mod(key.n);
  for (auto _ : state) {
    // Square-and-multiply with division-based reduction.
    BigInt result(1);
    std::size_t nbits = key.d.BitLength();
    for (std::size_t i = nbits; i > 0; --i) {
      result = result.MulMod(result, key.n);
      if (key.d.Bit(i - 1)) result = result.MulMod(base, key.n);
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ModExpNaive)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

P2DRM_GBENCH_JSON_MAIN("bench_crypto",
                       cfg.Str("modulus_bits", "512,1024,2048");
                       cfg.Num("fdh_message_bytes", 64);
                       cfg.Str("hash", "sha256");
                       cfg.Str("stream_cipher", "chacha20");
                       cfg.Str("modexp_ablation", "montgomery,naive");
                       // Kernel configuration (docs/bignum.md): the block
                       // is written after the run, so the widths-hit and
                       // scratch counters reflect this process's work.
                       cfg.Num("bignum_limb_bits", 64);
                       cfg.Str("powmod_window_bits",
                               "1 (exp<=64b), 4 (exp<=512b), 5");
                       cfg.Bool("cpu_ifma",
                                p2drm::bignum::ifma::CpuSupported());
                       cfg.Bool("cpu_sha_ni", CpuReportsShaNi());
                       cfg.Str("sha256_kernel",
                               crypto::Sha256KernelName());
                       cfg.Str("fixed_width_powmods",
                               p2drm::bignum::DescribeKernelWidthsHit());
                       cfg.Num("powmod_mb8_passes",
                               static_cast<double>(
                                   p2drm::bignum::KernelStats().powmod_mb8));
                       cfg.Num("mb8_min_lanes",
                               static_cast<double>(crypto::kMb8MinLanes));
                       cfg.Num("scratch_heap_allocs",
                               static_cast<double>(
                                   p2drm::bignum::KernelStats().scratch_heap_allocs));)
