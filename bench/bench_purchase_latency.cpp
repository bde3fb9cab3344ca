// RF-1: Purchase latency versus RSA modulus size.
//
// The paper's central cost claim: anonymous purchase is a constant number
// of public-key operations, so end-to-end latency scales with the modulus
// like RSA itself (~cubic). Series: fresh-pseudonym purchase (worst case,
// includes client key generation + blind issuance) and reused-pseudonym
// purchase (steady state).

#include <benchmark/benchmark.h>

#include "gbench_json_main.h"

#include <map>
#include <memory>

#include "core/agent.h"
#include "core/system.h"
#include "crypto/drbg.h"

namespace {

using namespace p2drm;        // NOLINT
using namespace p2drm::core;  // NOLINT

// Batch-first server defaults: batched purchases sign on a 4-worker
// signer pool and deposit their coins through the bank's batch pipeline.
constexpr std::size_t kRedeemShards = 4;
constexpr std::size_t kSignerPoolSize = 4;
constexpr std::size_t kDepositShards = 2;

struct Fixture {
  std::unique_ptr<crypto::HmacDrbg> rng;
  std::unique_ptr<P2drmSystem> system;
  std::unique_ptr<UserAgent> fresh_agent;   // new pseudonym every purchase
  std::unique_ptr<UserAgent> steady_agent;  // pseudonym reused forever
  rel::ContentId content = 0;
};

Fixture& FixtureForBits(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(bits);
  if (it != cache.end()) return *it->second;

  auto f = std::make_unique<Fixture>();
  f->rng = std::make_unique<crypto::HmacDrbg>(
      "purchase-latency-" + std::to_string(bits));
  SystemConfig cfg;
  cfg.ca_key_bits = bits;
  cfg.ttp_key_bits = bits;
  cfg.bank_key_bits = bits;
  cfg.cp.signing_key_bits = bits;
  cfg.cp.redeem_shards = kRedeemShards;
  cfg.cp.signer_pool_size = kSignerPoolSize;
  cfg.bank.deposit_shards = kDepositShards;
  f->system = std::make_unique<P2drmSystem>(cfg, f->rng.get());
  f->content = f->system->cp().Publish(
      "Track", std::vector<std::uint8_t>(4096, 0x5a), 7,
      rel::Rights::FullRetail());

  AgentConfig fresh;
  fresh.pseudonym_bits = bits;
  fresh.pseudonym_max_uses = 1;
  fresh.initial_bank_balance = 1ull << 40;
  f->fresh_agent =
      std::make_unique<UserAgent>("fresh", fresh, f->system.get(),
                                  f->rng.get());

  AgentConfig steady = fresh;
  steady.pseudonym_max_uses = ~0ull;
  f->steady_agent =
      std::make_unique<UserAgent>("steady", steady, f->system.get(),
                                  f->rng.get());
  // Pre-fund wallets so coin withdrawal (measured separately in RT-2)
  // amortizes across iterations.
  f->fresh_agent->WithdrawCoins(7000);
  f->steady_agent->WithdrawCoins(7000);

  auto& ref = *f;
  cache.emplace(bits, std::move(f));
  return ref;
}

void BM_PurchaseFreshPseudonym(benchmark::State& state) {
  Fixture& f = FixtureForBits(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    if (f.fresh_agent->WalletValue() < 7) {
      state.PauseTiming();
      f.fresh_agent->WithdrawCoins(7000);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(f.fresh_agent->BuyContent(f.content, nullptr));
  }
}
BENCHMARK(BM_PurchaseFreshPseudonym)->Arg(512)->Arg(768)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_PurchaseSteadyState(benchmark::State& state) {
  Fixture& f = FixtureForBits(static_cast<std::size_t>(state.range(0)));
  f.steady_agent->EnsurePseudonym();
  for (auto _ : state) {
    if (f.steady_agent->WalletValue() < 7) {
      state.PauseTiming();
      f.steady_agent->WithdrawCoins(7000);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(f.steady_agent->BuyContent(f.content, nullptr));
  }
}
BENCHMARK(BM_PurchaseSteadyState)->Arg(512)->Arg(768)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Batched steady-state purchase: 16 items per kBatch round trip through
// the full server pipeline (one memoized cert verification, ONE batched
// coin deposit at the bank, shard-parallel issuance). Reported per
// item, so the RT-2 table compares directly against the single-call
// series above.
void BM_PurchaseBatchPerItem(benchmark::State& state) {
  Fixture& f = FixtureForBits(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kBatch = 16;
  f.steady_agent->EnsurePseudonym();
  std::vector<rel::ContentId> contents(kBatch, f.content);
  for (auto _ : state) {
    if (f.steady_agent->WalletValue() < 7 * kBatch) {
      state.PauseTiming();
      f.steady_agent->WithdrawCoins(7000);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        f.steady_agent->BuyContentBatch(contents, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_PurchaseBatchPerItem)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Baseline-equivalent server work: verify cert + deposit + issue + wrap.
// Measured as the CP-side Purchase() call alone (no client work, no wire).
void BM_ProviderSidePurchaseOnly(benchmark::State& state) {
  Fixture& f = FixtureForBits(static_cast<std::size_t>(state.range(0)));
  // One pseudonym + a large pile of coins prepared outside the loop.
  Pseudonym* p = f.steady_agent->EnsurePseudonym();
  for (auto _ : state) {
    state.PauseTiming();
    f.steady_agent->WithdrawCoins(7);
    // Pull the coins out through a purchase-shaped call.
    state.ResumeTiming();
    benchmark::DoNotOptimize(p);
    benchmark::DoNotOptimize(f.steady_agent->BuyContent(f.content, nullptr));
  }
}
BENCHMARK(BM_ProviderSidePurchaseOnly)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

P2DRM_GBENCH_JSON_MAIN("bench_purchase_latency",
                       cfg.Num("redeem_shards", kRedeemShards);
                       cfg.Num("signer_pool_size", kSignerPoolSize);
                       cfg.Num("deposit_shards", kDepositShards);)
