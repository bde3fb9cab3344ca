// Server-scaling bench: the sharded runtime and the amortized batch
// verifier (ISSUE 2 acceptance harness).
//
// Part A — shard scaling. Drives >= 1M simulated redemptions through
// server::ServerRuntime at 1/2/4/8 shards. Each item really routes to its
// home shard, really inserts into that shard's spent-set table, and accrues
// a *measured* RSA-verify service time on the shard's simulated clock —
// the same simulated-time methodology the transport's LatencyModel uses
// for wire costs. Arrivals are open-loop at 80% utilization per shard.
// The `sim-throughput (model)` column and the 4-vs-1 gate are a model,
// not a measurement: items divided by the slowest shard's simulated
// clock, so they follow from the shard item counts and the calibrated
// service time alone. The `wall` column is the measured rate.
//
// Part B — batch verification. Builds real licenses and pseudonym
// certificates, then compares per-item verification (two full RSA
// verifies per redemption) against BatchVerifier's cached-context
// same-key check + certificate dedup + shared CRL pass. The gate is the
// count of full RSA verifications: exactly items + (distinct certs) —
// one per license signature, one per distinct certificate — instead of
// 2 * items. The batched verify runs twice: inline (a zero-worker pool)
// and on a 3-worker pool, which fans the license checks out over the
// workers and the joining caller; the count gate applies to both runs.
// All three timings are reported, not gated (`amortize.naive_ms`,
// `amortize.batch_ms`, `verify.batched_pool3_us`): the naive path also
// reuses thread-local contexts (Montgomery::CachedFor), and the batched
// paths also pay the verifier's DRBG draw (4 bytes per license) and the
// certificate memo's hashing, so no time is verification alone.
//
// Part C — backpressure. Blocks the workers, overfills a bounded queue,
// and counts the kOverloaded sheds.
//
// Part D — issuance pipeline. Drives real ContentProvider batch
// redemptions at signer pool sizes 1/2/4/8 and reports the per-stage
// wall timings (verify / spend / issue) plus issue-stage signatures per
// second. Each configuration's batch is sized so every signer (the W
// workers and the joining dispatch thread) gets whole 8-item issue
// groups: 8 * (W + 1) * kGroupsPerSigner items. Every configuration
// must report exactly one signature per item (a fresh redemption signs
// its license, not its transcript); that count is checked before any
// timing. The signing work executes on the pool's workers and the
// joining dispatch thread, and each group's measured wall time accrues
// on the clock of the thread that signed it, so the issue-stage
// makespan (the slowest signer's clock) and the sigs/s derived from it
// follow where the work really ran. Each configuration runs several
// batches and reports the fastest.
//
// The 4-vs-1 gate is divided by a same-run control, because a
// wall-clock gate on a shared VM otherwise measures the host: W plain
// threads (W = 1 and 4) sign the same 8-item groups with the same
// makespan definition. If 4 plain threads are not at least 2x as fast
// as 1, the host gave no parallelism and the bench fails with a message
// saying so; such a run never passes. Otherwise the pool's 4-vs-1 ratio
// is divided by the control's parallel efficiency (its speedup over the
// ideal 4x), and that host-normalized ratio must reach 1.5x.
//
// Mutate stage — the journaled spend stage alone (SpendBatch probe +
// insert + group-committed journal block, no crypto) at 4 shards. It
// reports µs per item and fails only if a spend is rejected or lost; the
// flat table's speed against a hash-set baseline is gated by
// bench_storage (tools/check_storage_perf.py).
//
// Part E — exchange batch. Same methodology, batch sizing, control and
// gate as Part D for ContentProvider::ExchangeBatch at pool sizes 1/4:
// the bearer issuance fans out through the shared server::BatchPipeline.
//
// Output: console report + BENCH_bench_server_scaling.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bignum/limbs.h"
#include "core/content_provider.h"
#include "core/metrics.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/provider_stack.h"
#include "server/batch_pipeline.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"
#include "sim/bench_report.h"
#include "sim/stats.h"
#include "store/revocation_list.h"

namespace {

using namespace p2drm;  // NOLINT

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rel::LicenseId MakeId(std::uint64_t n) {
  rel::LicenseId id;
  for (int i = 0; i < 8; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(n >> (8 * (7 - i)));
  }
  std::uint64_t mixed = n * 0x9e3779b97f4a7c15ull;
  for (int i = 8; i < 16; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(mixed >> (8 * (i - 8)));
  }
  return id;
}

/// Measures the provider-side cost of one license-signature verification
/// — the per-item crypto a redemption cannot avoid — in microseconds.
double CalibrateVerifyUs(const crypto::RsaPrivateKey& key,
                         bignum::RandomSource* rng) {
  const crypto::RsaPublicKey pub = key.PublicKey();
  const int kSamples = 20;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < kSamples; ++i) {
    std::vector<std::uint8_t> msg(64);
    rng->Fill(msg.data(), msg.size());
    msgs.push_back(msg);
    sigs.push_back(crypto::RsaSignFdh(key, msg));
  }
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSamples; ++i) {
    if (!crypto::RsaVerifyFdh(pub, msgs[i], sigs[i])) {
      std::fprintf(stderr, "calibration verify failed\n");
      std::exit(1);
    }
  }
  double us = SecondsSince(t0) * 1e6 / kSamples;
  return us < 1.0 ? 1.0 : us;
}

/// Mutate stage: wall-clock cost of the journaled spend stage alone —
/// batch-routed SpendBatch traffic against a ServerRuntime with real
/// journal segments (docs/storage.md), no crypto.
double RunMutateStage(std::size_t shards, std::size_t total,
                      std::size_t chunk, const std::string& journal_prefix) {
  // Fresh journal family per run (the bench measures appending, not
  // replay); segments live in the build directory like the other benches'
  // scratch files and are removed again below.
  auto cleanup = [&journal_prefix, shards] {
    std::error_code ec;
    for (std::size_t s = 0; s < shards; ++s) {
      std::filesystem::remove(
          server::ServerRuntime::SegmentPath(journal_prefix, s), ec);
    }
  };
  cleanup();
  server::ServerRuntimeConfig cfg;
  cfg.shard_count = shards;
  cfg.queue_capacity = 1u << 16;
  cfg.journal_path_prefix = journal_prefix;
  double wall_s = 0;
  {
    server::ServerRuntime rt(cfg);
    // Ids are prebuilt so the timed section is exactly the mutate stage:
    // route + batch probe + journal append.
    std::vector<std::vector<rel::LicenseId>> chunks;
    chunks.reserve(total / chunk + 1);
    for (std::size_t base = 0; base < total; base += chunk) {
      const std::size_t n = std::min(chunk, total - base);
      std::vector<rel::LicenseId> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = MakeId(0x4000000000000000ull + base + i);
      }
      chunks.push_back(std::move(ids));
    }
    std::vector<core::Status> statuses;
    Clock::time_point t0 = Clock::now();
    for (const auto& ids : chunks) {
      rt.SpendBatch(ids, &statuses, /*shed_on_full=*/false);
      for (core::Status s : statuses) {
        if (s != core::Status::kOk) {
          std::fprintf(stderr, "FAIL: mutate-stage spend rejected\n");
          std::exit(1);
        }
      }
    }
    rt.Drain();
    wall_s = SecondsSince(t0);
    if (rt.SpentSize() != total) {
      std::fprintf(stderr, "FAIL: mutate stage lost spends\n");
      std::exit(1);
    }
  }
  cleanup();
  return wall_s * 1e6 / static_cast<double>(total);
}

struct ScalingResult {
  double sim_throughput = 0;   // items per simulated second
  double wall_throughput = 0;  // items per wall second
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t processed = 0;
  std::uint64_t max_shard_items = 0;
  std::uint64_t min_shard_items = 0;
};

ScalingResult RunScaling(std::size_t shards, std::size_t items,
                         double service_us) {
  server::ServerRuntimeConfig cfg;
  cfg.shard_count = shards;
  cfg.queue_capacity = 1u << 16;
  server::ServerRuntime rt(cfg);

  // Open-loop arrivals at 80% utilization per shard: the offered rate
  // grows with the shard count, which is exactly the capacity claim the
  // shard architecture makes.
  const double inter_arrival_us =
      service_us / (0.8 * static_cast<double>(shards));
  std::vector<sim::LatencyStats> shard_stats(shards);

  // Per-shard simulated clock (us). Slot s is touched only by shard s's
  // tasks, which its one worker runs in order; Drain() publishes it.
  std::vector<std::uint64_t> shard_clock_us(shards, 0);

  const std::size_t kChunk = 4096;
  Clock::time_point t0 = Clock::now();
  for (std::size_t base = 0; base < items; base += kChunk) {
    std::size_t count = std::min(kChunk, items - base);
    // Route the chunk, then hand each shard its slice as one task.
    std::vector<std::vector<std::uint64_t>> groups(shards);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t n = base + i;
      groups[rt.ShardFor(MakeId(n))].push_back(n);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (groups[s].empty()) continue;
      std::size_t weight = groups[s].size();
      rt.Submit(
          s,
          [group = std::move(groups[s]), inter_arrival_us, service_us,
           stats = &shard_stats[s],
           clock_us = &shard_clock_us[s]](server::ShardContext& ctx) {
            for (std::uint64_t n : group) {
              double arrival = static_cast<double>(n) * inter_arrival_us;
              double start = static_cast<double>(*clock_us);
              if (arrival > start) start = arrival;
              bool fresh = ctx.spent.Insert(MakeId(n));
              double done = start + service_us;
              *clock_us = static_cast<std::uint64_t>(done);
              stats->Add(done - arrival);
              ctx.processed += fresh ? 1 : 0;
            }
          },
          weight);
    }
  }
  rt.Drain();
  double wall_s = SecondsSince(t0);

  ScalingResult r;
  r.min_shard_items = items;
  std::uint64_t makespan_us = 0;
  sim::LatencyStats all;
  for (std::size_t s = 0; s < shards; ++s) {
    std::uint64_t done = rt.ShardProcessed(s);
    r.processed += done;
    if (done > r.max_shard_items) r.max_shard_items = done;
    if (done < r.min_shard_items) r.min_shard_items = done;
    // The batch is finished when the slowest shard's sim clock stops.
    makespan_us = std::max(makespan_us, shard_clock_us[s]);
    all.Merge(shard_stats[s]);
  }
  r.sim_throughput =
      static_cast<double>(items) / (static_cast<double>(makespan_us) / 1e6);
  r.wall_throughput = static_cast<double>(items) / wall_s;
  r.p50_us = all.Percentile(50);
  r.p99_us = all.Percentile(99);
  return r;
}

struct PipelineResult {
  core::ContentProvider::PipelineTimings timings;
  double issue_makespan_us = 0;  ///< slowest signer's accrued signing time
  double sigs_per_sec_sim = 0;   ///< signatures / issue makespan
  std::uint64_t signatures = 0;
  double total_wall_us = 0;
};

/// Batches each Part D/E configuration runs; the fastest one (by issue
/// makespan) is reported, so one batch whose signers the OS happened to
/// stack on one core does not decide the result.
constexpr std::size_t kScalingBatches = 5;

/// Whole issue groups each Part D/E signer signs per batch.
constexpr std::size_t kGroupsPerSigner = 2;

/// Part D/E batch size for a pool of \p workers: whole
/// server::kMaxIssueGroup-item groups for every signer, the workers plus
/// the joining dispatch thread (server::IssueGroupSize).
std::size_t WholeGroupBatch(std::size_t workers) {
  return server::kMaxIssueGroup * (workers + 1) * kGroupsPerSigner;
}

/// Thread counts of the gated pair and the speedup a host that runs
/// them all in parallel gives the control.
constexpr std::size_t kGateWorkers = 4;
constexpr double kGateIdealSpeedup = 4.0;

/// The same-run control of the Part D/E gates: \p threads plain threads,
/// each signing kGroupsPerSigner groups of server::kMaxIssueGroup
/// license-sized messages with crypto::RsaSignFdhMany — the work one pool
/// signer does per batch. Each thread accrues its own signing time, and
/// the rate is signatures over the slowest thread's time (the makespan
/// definition of the pool's rate), fastest of kScalingBatches rounds.
double ControlSigsPerSec(const crypto::RsaPrivateKey& key,
                         std::size_t threads) {
  std::vector<std::vector<std::uint8_t>> group;
  for (std::size_t i = 0; i < server::kMaxIssueGroup; ++i) {
    group.emplace_back(200, static_cast<std::uint8_t>(i));
  }
  double best = 0;
  for (std::size_t round = 0; round < kScalingBatches; ++round) {
    std::vector<double> busy_us(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Clock::time_point t0 = Clock::now();
        for (std::size_t g = 0; g < kGroupsPerSigner; ++g) {
          if (crypto::RsaSignFdhMany(key, group).size() != group.size()) {
            std::fprintf(stderr, "control signing failed\n");
            std::exit(1);
          }
        }
        busy_us[t] = SecondsSince(t0) * 1e6;
      });
    }
    for (std::thread& th : pool) th.join();
    const double makespan = *std::max_element(busy_us.begin(), busy_us.end());
    const double sigs = static_cast<double>(
        threads * kGroupsPerSigner * server::kMaxIssueGroup);
    if (makespan > 0) best = std::max(best, sigs / (makespan / 1e6));
  }
  return best;
}

/// The host's parallel speedup for the gated pair: kGateWorkers plain
/// threads against one, on the same groups.
double ControlSpeedup(const crypto::RsaPrivateKey& key) {
  const double one = ControlSigsPerSec(key, 1);
  const double many = ControlSigsPerSec(key, kGateWorkers);
  return one > 0 ? many / one : 0;
}

/// Applies the Part D/E gate to the pool's \p ratio (kGateWorkers vs 1
/// worker) given the same-run \p control speedup; returns false (after
/// printing the FAIL line) when the run must not pass.
bool GatePassed(const char* what, double ratio, double control,
                double* normalized) {
  *normalized = control > 0 ? ratio / (control / kGateIdealSpeedup) : 0;
  std::printf(
      "%s: pool %.2fx, control %.2fx of an ideal %.0fx, "
      "host-normalized %.2fx\n",
      what, ratio, control, kGateIdealSpeedup, *normalized);
  if (control < 2.0) {
    std::fprintf(stderr,
                 "FAIL: host gave no parallelism: %zu plain threads signed "
                 "only %.2fx as fast as 1 (< 2x), so the %s gate cannot "
                 "tell a serialized pool from a busy host\n",
                 kGateWorkers, control, what);
    return false;
  }
  if (*normalized < 1.5) {
    std::fprintf(stderr, "FAIL: %s %.2fx host-normalized < 1.5x\n", what,
                 *normalized);
    return false;
  }
  return true;
}

/// Wires \p stack's provider to \p registry when it is set.
void InstrumentStack(sim::ProviderStack* stack, obs::Registry* registry,
                     const std::string& obs_prefix) {
  if (registry == nullptr) return;
  obs::Sink sink;
  sink.registry = registry;
  stack->cp.set_observability(sink, obs_prefix);
}

/// Every signer clock of \p pool: the workers', then the joiner's.
std::vector<std::uint64_t> SignerClocksUs(const server::SignerPool& pool) {
  std::vector<std::uint64_t> us;
  for (std::size_t i = 0; i < pool.worker_count(); ++i) {
    us.push_back(pool.WorkerSimClockUs(i));
  }
  us.push_back(pool.JoinerSimClockUs());
  return us;
}

/// Runs one batch (\p run_batch calls the provider and returns its
/// results) on \p cp and reads its issue makespan: the most signing time
/// any one signer — a pool worker or the joining caller — accrued
/// during the batch. Exits on any failed item.
template <typename RunBatch>
PipelineResult MeasureBatch(const core::ContentProvider& cp,
                            RunBatch run_batch, const char* failure) {
  const std::vector<std::uint64_t> before = SignerClocksUs(*cp.Pool());
  core::OpCounters ops_before = core::AggregateOps();
  Clock::time_point t0 = Clock::now();
  auto results = run_batch();
  double wall_us = SecondsSince(t0) * 1e6;
  for (const auto& r : results) {
    if (r.status != core::Status::kOk) {
      std::fprintf(stderr, "%s\n", failure);
      std::exit(1);
    }
  }
  const std::vector<std::uint64_t> after = SignerClocksUs(*cp.Pool());

  PipelineResult out;
  out.timings = cp.LastBatchTimings();
  out.signatures = (core::AggregateOps() - ops_before).sign;
  out.total_wall_us = wall_us;
  for (std::size_t i = 0; i < after.size(); ++i) {
    out.issue_makespan_us = std::max(
        out.issue_makespan_us, static_cast<double>(after[i] - before[i]));
  }
  if (out.issue_makespan_us > 0) {
    out.sigs_per_sec_sim =
        static_cast<double>(out.signatures) / (out.issue_makespan_us / 1e6);
  }
  return out;
}

/// The result with the highest issue-stage signature rate.
PipelineResult Fastest(const std::vector<PipelineResult>& runs) {
  return *std::max_element(
      runs.begin(), runs.end(),
      [](const PipelineResult& a, const PipelineResult& b) {
        return a.sigs_per_sec_sim < b.sigs_per_sec_sim;
      });
}

PipelineResult RunPipeline(std::size_t signers, std::size_t batch_items,
                           std::size_t key_bits, obs::Registry* registry,
                           const std::string& obs_prefix) {
  // Shared deterministic stack fixture: every signer pool size redeems
  // byte-identical traffic (setup failures throw, which a bench treats
  // as a crash — correctly). Setup signs inline on the dispatch thread,
  // so the pool's clocks measure the batches alone.
  sim::ProviderStack stack("pipeline-scaling", /*redeem_shards=*/1, key_bits,
                           /*queue_capacity=*/4096, signers);
  InstrumentStack(&stack, registry, obs_prefix);
  core::Pseudonym* giver = stack.NewPseudonym();
  core::Pseudonym* taker = stack.NewPseudonym();
  std::vector<std::vector<core::ContentProvider::RedeemItem>> batches(
      kScalingBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < batch_items; ++i) {
      batch.push_back({stack.NewBearer(giver), taker->cert});
    }
  }

  std::vector<PipelineResult> runs;
  for (const auto& batch : batches) {
    runs.push_back(MeasureBatch(
        stack.cp, [&] { return stack.cp.RedeemAnonymousBatch(batch); },
        "pipeline redemption failed"));
  }
  return Fastest(runs);
}

/// Part E worker: ExchangeBatch calls over \p batch_items licenses each,
/// the issue stage fanned out to a \p signers-worker pool. Setup
/// (purchases and possession proofs) issues on the dispatch thread, so
/// the pool's clocks measure the exchange fan-out alone.
PipelineResult RunExchangePipeline(std::size_t signers,
                                   std::size_t batch_items,
                                   std::size_t key_bits,
                                   obs::Registry* registry,
                                   const std::string& obs_prefix) {
  sim::ProviderStack stack("exchange-scaling", /*redeem_shards=*/1, key_bits,
                           /*queue_capacity=*/4096, signers);
  InstrumentStack(&stack, registry, obs_prefix);
  core::Pseudonym* owner = stack.NewPseudonym();
  std::vector<std::vector<core::ContentProvider::ExchangeItem>> batches(
      kScalingBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < batch_items; ++i) {
      rel::License lic = stack.NewBoundLicense(owner);
      batch.push_back({lic, stack.PossessionSig(owner, lic)});
    }
  }

  std::vector<PipelineResult> runs;
  for (const auto& batch : batches) {
    runs.push_back(MeasureBatch(
        stack.cp, [&] { return stack.cp.ExchangeBatch(batch); },
        "pipeline exchange failed"));
  }
  return Fastest(runs);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t items = 1000000;
  std::size_t verify_items = 64;
  std::size_t distinct_certs = 8;
  std::size_t key_bits = 1024;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--items") == 0 && i + 1 < argc) {
      items = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      key_bits = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      items = 20000;
      verify_items = 16;
      distinct_certs = 4;
      key_bits = 512;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--items N] [--bits B] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  sim::BenchReport report("bench_server_scaling");
  report.ConfigMetric("items", static_cast<double>(items));
  report.ConfigMetric("verify_items", static_cast<double>(verify_items));
  report.ConfigMetric("distinct_certs", static_cast<double>(distinct_certs));
  report.ConfigMetric("key_bits", static_cast<double>(key_bits));
  report.ConfigNote("shard_sweep", "1,2,4,8");
  report.ConfigNote("signer_sweep", "1,2,4,8 (redeem); 1,4 (exchange)");
  report.ConfigMetric("scaling_batches", static_cast<double>(kScalingBatches));
  report.ConfigNote("seed", "server-scaling");
  report.ConfigNote("signer_pool_steal_policy",
                    "owner pops front; thieves scan from the next worker "
                    "and pop back");
  crypto::HmacDrbg rng("server-scaling");

  std::printf("server scaling: %zu simulated redemptions, %zu-bit keys\n",
              items, key_bits);
  crypto::RsaPrivateKey cp_key = crypto::GenerateRsaKey(key_bits, &rng);
  double service_us = CalibrateVerifyUs(cp_key, &rng);
  std::printf("calibrated per-item verify cost: %.1f us\n", service_us);
  report.Metric("service_us", service_us);

  // -- Part A: shard scaling -------------------------------------------------
  double base_throughput = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    ScalingResult r = RunScaling(shards, items, service_us);
    std::printf(
        "shards=%zu  sim-throughput (model)=%10.0f items/s  wall=%10.0f/s  "
        "p50=%7.1fus  p99=%8.1fus  shard-items=[%llu..%llu]\n",
        shards, r.sim_throughput, r.wall_throughput, r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.min_shard_items),
        static_cast<unsigned long long>(r.max_shard_items));
    if (r.processed != items) {
      std::fprintf(stderr, "lost items: %llu != %zu\n",
                   static_cast<unsigned long long>(r.processed), items);
      return 1;
    }
    std::string prefix = "shards" + std::to_string(shards);
    report.Metric(prefix + ".sim_items_per_sec", r.sim_throughput);
    report.Metric(prefix + ".wall_items_per_sec", r.wall_throughput);
    report.Metric(prefix + ".p50_us", r.p50_us);
    report.Metric(prefix + ".p99_us", r.p99_us);
    if (shards == 1) base_throughput = r.sim_throughput;
    if (shards == 4) {
      double ratio = r.sim_throughput / base_throughput;
      std::printf("4-shard vs 1-shard throughput: %.2fx\n", ratio);
      report.Metric("scaling_4v1", ratio);
      if (ratio < 2.0) {
        std::fprintf(stderr, "FAIL: 4-shard scaling %.2fx < 2x\n", ratio);
        return 1;
      }
    }
  }

  // -- Part B: amortized batch verification ---------------------------------
  std::printf("\nbatch verification: %zu items, %zu distinct pseudonyms\n",
              verify_items, distinct_certs);
  crypto::RsaPrivateKey ca_key = crypto::GenerateRsaKey(key_bits, &rng);
  crypto::RsaPrivateKey pseudonym_key = crypto::GenerateRsaKey(key_bits, &rng);

  std::vector<core::PseudonymCertificate> certs(distinct_certs);
  for (auto& cert : certs) {
    cert.pseudonym_key = pseudonym_key.PublicKey();
    cert.escrow.resize(32);
    rng.Fill(cert.escrow.data(), cert.escrow.size());
    cert.ca_signature = crypto::RsaSignFdh(ca_key, cert.CanonicalBytes());
  }
  std::vector<std::vector<std::uint8_t>> msgs(verify_items);
  std::vector<std::vector<std::uint8_t>> sigs(verify_items);
  for (std::size_t i = 0; i < verify_items; ++i) {
    msgs[i].resize(96);
    rng.Fill(msgs[i].data(), msgs[i].size());
    sigs[i] = crypto::RsaSignFdh(cp_key, msgs[i]);
  }
  store::RevocationList crl(store::CrlStrategy::kBloomFronted, 1024);
  std::vector<rel::KeyFingerprint> keys(verify_items);
  for (std::size_t i = 0; i < verify_items; ++i) {
    keys[i] = certs[i % distinct_certs].KeyId();
  }

  // Naive: two full verifications and one CRL probe per item.
  Clock::time_point t0 = Clock::now();
  std::size_t naive_ok = 0;
  for (std::size_t i = 0; i < verify_items; ++i) {
    bool ok = crypto::RsaVerifyFdh(cp_key.PublicKey(), msgs[i], sigs[i]) &&
              core::VerifyPseudonymCert(ca_key.PublicKey(),
                                        certs[i % distinct_certs]) &&
              !crl.IsRevoked(keys[i]);
    naive_ok += ok ? 1 : 0;
  }
  double naive_s = SecondsSince(t0);
  std::uint64_t naive_verifies = 2 * verify_items;

  // Batched: one verify per license signature on the cached context, one
  // verify per distinct cert, one shared CRL pass. The same batch runs
  // inline (a zero-worker pool) and on a 3-worker pool, each on a fresh
  // verifier, so both make the same full verifies.
  struct BatchedRun {
    double seconds = 0;
    std::size_t ok = 0;
    std::vector<bool> revoked;
    server::BatchVerifierStats stats;
  };
  auto run_batched = [&](server::SignerPool& pool,
                         bignum::RandomSource* draw) {
    BatchedRun run;
    server::BatchVerifier verifier;
    Clock::time_point start = Clock::now();
    std::vector<std::uint8_t> sig_ok = verifier.VerifySameKeyBatch(
        cp_key.PublicKey(), msgs, sigs, draw, pool);
    for (std::size_t i = 0; i < verify_items; ++i) {
      bool ok = sig_ok[i] &&
                verifier.VerifyPseudonymCert(ca_key.PublicKey(),
                                             certs[i % distinct_certs]);
      run.ok += ok ? 1 : 0;
    }
    run.revoked = verifier.CrlProbePass(crl, keys);
    run.seconds = SecondsSince(start);
    run.stats = verifier.stats();
    return run;
  };
  server::SignerPool inline_pool(0);
  server::SignerPool pool3(3);
  // The pooled run draws from its own DRBG, so the later parts see the
  // same `rng` stream as with one batched run.
  crypto::HmacDrbg pooled_draw("bench-server-scaling-part-b-pool3");
  const BatchedRun batched = run_batched(inline_pool, &rng);
  const BatchedRun pooled = run_batched(pool3, &pooled_draw);
  const double batch_s = batched.seconds;
  const server::BatchVerifierStats& stats = batched.stats;

  std::printf("  naive:   %llu full RSA verifies, %8.2f ms (%zu valid)\n",
              static_cast<unsigned long long>(naive_verifies), naive_s * 1e3,
              naive_ok);
  std::printf("  batched: %llu full RSA verifies, %8.2f ms (%zu valid)\n",
              static_cast<unsigned long long>(stats.full_verifies),
              batch_s * 1e3, batched.ok);
  std::printf("  pool3:   %llu full RSA verifies, %8.2f ms (%zu valid)\n",
              static_cast<unsigned long long>(pooled.stats.full_verifies),
              pooled.seconds * 1e3, pooled.ok);
  report.Metric("amortize.items", static_cast<double>(verify_items));
  report.Metric("amortize.distinct_certs", static_cast<double>(distinct_certs));
  report.Metric("amortize.naive_full_rsa_verifies",
                static_cast<double>(naive_verifies));
  report.Metric("amortize.batch_full_rsa_verifies",
                static_cast<double>(stats.full_verifies));
  report.Metric("amortize.naive_ms", naive_s * 1e3);
  report.Metric("amortize.batch_ms", batch_s * 1e3);
  report.Metric("verify.batched_pool3_us", pooled.seconds * 1e6);
  report.Metric("amortize.cert_cache_hits",
                static_cast<double>(stats.cert_cache_hits));
  report.Metric("amortize.crl_probe_hits",
                static_cast<double>(stats.crl_probe_hits));
  if (naive_ok != verify_items) {
    std::fprintf(stderr, "FAIL: genuine signatures rejected\n");
    return 1;
  }
  for (const BatchedRun* run : {&batched, &pooled}) {
    const char* name = run == &batched ? "batched" : "pooled";
    if (run->ok != verify_items) {
      std::fprintf(stderr, "FAIL: %s run rejected genuine signatures\n",
                   name);
      return 1;
    }
    for (bool r : run->revoked) {
      if (r) {
        std::fprintf(stderr, "FAIL: spurious revocation\n");
        return 1;
      }
    }
    if (run->stats.full_verifies != verify_items + distinct_certs) {
      std::fprintf(stderr,
                   "FAIL: %s verification ran %llu full verifies, not "
                   "items + distinct certs = %zu\n",
                   name,
                   static_cast<unsigned long long>(run->stats.full_verifies),
                   verify_items + distinct_certs);
      return 1;
    }
  }

  // -- Part C: bounded-queue backpressure -----------------------------------
  {
    server::ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.queue_capacity = 64;
    server::ServerRuntime rt(cfg);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    for (std::size_t s = 0; s < rt.shard_count(); ++s) {
      rt.Submit(s, [gate](server::ShardContext&) { gate.wait(); });
    }
    std::vector<rel::LicenseId> flood(4096);
    for (std::size_t i = 0; i < flood.size(); ++i) {
      flood[i] = MakeId(0x80000000ull + i);
    }
    std::vector<core::Status> st;
    rt.SpendBatch(flood, &st, /*shed_on_full=*/true);
    release.set_value();
    rt.Drain();
    std::size_t shed = 0;
    for (core::Status s : st) {
      if (s == core::Status::kOverloaded) ++shed;
    }
    std::printf("\nbackpressure: %zu of %zu items shed with kOverloaded\n",
                shed, flood.size());
    report.Metric("overload.flood_items", static_cast<double>(flood.size()));
    report.Metric("overload.shed_items", static_cast<double>(shed));
    if (shed == 0) {
      std::fprintf(stderr, "FAIL: bounded queue never shed\n");
      return 1;
    }
  }

  // -- Part D: three-stage issuance pipeline --------------------------------
  std::printf(
      "\nissuance pipeline: batch redemption of %zu whole 8-item groups "
      "per signer, per-stage timings (fastest of %zu batches)\n",
      kGroupsPerSigner, kScalingBatches);
  report.ConfigMetric("pipeline.groups_per_signer",
                      static_cast<double>(kGroupsPerSigner));
  const double control_d = ControlSpeedup(cp_key);
  report.Metric("pipeline.control_speedup_4v1", control_d);
  // Wall-clock per-stage latency histograms land in the registry (and
  // from there in the report's metrics block) under signers<N>.pipeline.*.
  // Real-time measurements, so the VALUES are not byte-stable — this
  // bench's report is not byte-compared by CI, the scenario one is.
  obs::Registry registry;
  double base_sigs_per_sec = 0;
  for (std::size_t signers : {1u, 2u, 4u, 8u}) {
    const std::size_t pipeline_items = WholeGroupBatch(signers);
    PipelineResult r =
        RunPipeline(signers, pipeline_items, key_bits, &registry,
                    "signers" + std::to_string(signers) + ".");
    std::printf(
        "signers=%zu  verify=%8.0fus  spend=%6.0fus  issue=%8.0fus  "
        "issue-makespan=%8.0fus  sigs=%llu  sim-sigs/s=%8.0f\n",
        signers, r.timings.verify_us, r.timings.spend_us, r.timings.issue_us,
        r.issue_makespan_us,
        static_cast<unsigned long long>(r.signatures), r.sigs_per_sec_sim);
    std::string prefix = "pipeline.signers" + std::to_string(signers);
    report.Metric(prefix + ".verify_us", r.timings.verify_us);
    report.Metric(prefix + ".spend_us", r.timings.spend_us);
    report.Metric(prefix + ".issue_us", r.timings.issue_us);
    report.Metric(prefix + ".issue_makespan_us", r.issue_makespan_us);
    report.Metric(prefix + ".signatures", static_cast<double>(r.signatures));
    report.Metric(prefix + ".sim_sigs_per_sec", r.sigs_per_sec_sim);
    report.Metric(prefix + ".total_wall_us", r.total_wall_us);
    // A fresh redemption signs its license only; its transcript is
    // signed if it ever becomes fraud evidence. A count, not a timing,
    // so it holds on any runner.
    if (r.signatures != pipeline_items) {
      std::fprintf(stderr,
                   "FAIL: fresh redeem batch of %zu items made %llu "
                   "signatures, not one per item\n",
                   pipeline_items,
                   static_cast<unsigned long long>(r.signatures));
      return 1;
    }
    if (signers == 1) base_sigs_per_sec = r.sigs_per_sec_sim;
    if (signers == kGateWorkers) {
      double ratio =
          base_sigs_per_sec > 0 ? r.sigs_per_sec_sim / base_sigs_per_sec : 0;
      report.Metric("pipeline.issue_scaling_4v1", ratio);
      // Issuance is not serialized on one signer: four workers must beat
      // one by a clear margin once the host's own parallelism, measured
      // by the control, is divided out.
      double normalized = 0;
      const bool passed = GatePassed("4-signer vs 1-signer issue throughput",
                                     ratio, control_d, &normalized);
      report.Metric("pipeline.issue_scaling_4v1_normalized", normalized);
      if (!passed) return 1;
    }
  }

  // -- Mutate stage ----------------------------------------------------------
  // The spend stage in isolation, at 4 shards with real journal segments.
  // Reported, not gated on speed: RunMutateStage exits nonzero if a spend
  // is rejected or lost.
  {
    const std::size_t mutate_items = items < 400000 ? 80000 : 400000;
    const std::size_t mutate_chunk = items < 400000 ? 4096 : 8192;
    const std::size_t mutate_shards = 4;
    report.ConfigMetric("mutate.items", static_cast<double>(mutate_items));
    report.ConfigMetric("mutate.chunk", static_cast<double>(mutate_chunk));
    const double us = RunMutateStage(mutate_shards, mutate_items,
                                     mutate_chunk,
                                     "bench_scaling_mutate.journal");
    std::printf(
        "\nmutate stage (%zu spends, %zu-id chunks, %zu shards, journaled)\n"
        "  flat + group-commit                    %7.3f us/item\n",
        mutate_items, mutate_chunk, mutate_shards, us);
    report.Metric("mutate.flat_group_commit_us_per_item", us);
  }

  // -- Part E: exchange batch -----------------------------------------------
  std::printf(
      "\nexchange batch: %zu whole 8-item groups per signer through "
      "server::BatchPipeline (fastest of %zu batches)\n",
      kGroupsPerSigner, kScalingBatches);
  const double control_e = ControlSpeedup(cp_key);
  report.Metric("exchange.control_speedup_4v1", control_e);
  double base_exchange_sigs_per_sec = 0;
  for (std::size_t signers : {1u, 4u}) {
    const std::size_t pipeline_items = WholeGroupBatch(signers);
    PipelineResult r =
        RunExchangePipeline(signers, pipeline_items, key_bits, &registry,
                            "exch.signers" + std::to_string(signers) + ".");
    std::printf(
        "signers=%zu  verify=%8.0fus  spend=%6.0fus  issue=%8.0fus  "
        "issue-makespan=%8.0fus  sigs=%llu  sim-sigs/s=%8.0f\n",
        signers, r.timings.verify_us, r.timings.spend_us, r.timings.issue_us,
        r.issue_makespan_us,
        static_cast<unsigned long long>(r.signatures), r.sigs_per_sec_sim);
    std::string prefix = "exchange.signers" + std::to_string(signers);
    report.Metric(prefix + ".verify_us", r.timings.verify_us);
    report.Metric(prefix + ".spend_us", r.timings.spend_us);
    report.Metric(prefix + ".issue_us", r.timings.issue_us);
    report.Metric(prefix + ".issue_makespan_us", r.issue_makespan_us);
    report.Metric(prefix + ".signatures", static_cast<double>(r.signatures));
    report.Metric(prefix + ".sim_sigs_per_sec", r.sigs_per_sec_sim);
    report.Metric(prefix + ".total_wall_us", r.total_wall_us);
    if (r.signatures != pipeline_items) {
      std::fprintf(stderr,
                   "FAIL: exchange batch of %zu items made %llu signatures, "
                   "not one per item\n",
                   pipeline_items,
                   static_cast<unsigned long long>(r.signatures));
      return 1;
    }
    if (signers == 1) base_exchange_sigs_per_sec = r.sigs_per_sec_sim;
    if (signers == kGateWorkers) {
      double ratio = base_exchange_sigs_per_sec > 0
                         ? r.sigs_per_sec_sim / base_exchange_sigs_per_sec
                         : 0;
      report.Metric("exchange.issue_scaling_4v1", ratio);
      // The exchange flow rides the same pipeline, so the Part D gate
      // applies to it too.
      double normalized = 0;
      const bool passed =
          GatePassed("4-signer vs 1-signer exchange throughput", ratio,
                     control_e, &normalized);
      report.Metric("exchange.issue_scaling_4v1_normalized", normalized);
      if (!passed) return 1;
    }
  }

  // -- Part F: observability-off overhead -----------------------------------
  // The instrumentation contract: with the endpoints runtime-disabled,
  // every hot-path hook is one relaxed atomic load + branch. Hammer the
  // three hook shapes (counter add, histogram observe, span) and gate the
  // per-op cost. The bound is deliberately loose — CI neighbors — but a
  // regression to "takes a lock when disabled" blows past it by orders of
  // magnitude.
  {
    obs::Registry off_registry;
    obs::Tracer off_tracer;
    off_registry.set_enabled(false);
    off_tracer.set_enabled(false);
    obs::Registry::Id ctr = off_registry.Counter("off.ctr");
    obs::Registry::Id hist = off_registry.Histogram("off.hist");
    const std::size_t kOps = 1'000'000;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      off_registry.Add(ctr);
      off_registry.Observe(hist, i);
      obs::Span span(&off_tracer, "off.span");
    }
    double ns_per_op = SecondsSince(t0) * 1e9 / (3.0 * kOps);
    std::printf("\nobservability disabled: %.2f ns per hook\n", ns_per_op);
    report.Metric("obs.disabled_ns_per_hook", ns_per_op);
    if (off_registry.Aggregate()[0].counter != 0) {
      std::fprintf(stderr, "FAIL: disabled registry still recorded\n");
      return 1;
    }
    if (off_tracer.event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled tracer still recorded\n");
      return 1;
    }
    if (ns_per_op > 100.0) {
      std::fprintf(stderr,
                   "FAIL: disabled observability hook costs %.1f ns > 100 ns\n",
                   ns_per_op);
      return 1;
    }
  }

  obs::AppendRegistry(registry, "", &report);
  obs::AppendOpCounters(&report);

  // Bignum kernel configuration (docs/bignum.md), recorded after the run
  // so the widths-hit and scratch counters cover everything above.
  report.ConfigMetric("bignum_limb_bits", 64);
  report.ConfigNote("powmod_window_bits", "1 (exp<=64b), 4 (exp<=512b), 5");
  report.ConfigNote("fixed_width_powmods", bignum::DescribeKernelWidthsHit());
  report.ConfigMetric(
      "scratch_heap_allocs",
      static_cast<double>(bignum::KernelStats().scratch_heap_allocs));

  report.WriteJsonFile();
  return 0;
}
