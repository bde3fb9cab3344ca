// p2drm_ledger: wall-clock ledger benchmark for the P2DRM provider stack.
//
//   p2drm_ledger --workload retail|transfer|fraud --seed N --seconds S
//                --trace 0|1 [--toy] [--flip-planted] [--commit SHA]
//
// Prints a human-readable ledger, a `config {...}` line and, as the last
// line, one JSON object {"correct","attempted","failed","metrics"}. The
// metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). Exit code 0 when every oracle check passed, 2 when one
// failed (the JSON line still prints), 1 on a usage or set-up error.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "crypto/blind_rsa.h"
#include "crypto/rsa.h"
#include "ledger.h"
#include "server/server_runtime.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_BUILD_FLAGS
#define LEDGER_BUILD_FLAGS "unknown"
#endif

namespace fs = std::filesystem;

namespace ledger {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

[[noreturn]] void Usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: p2drm_ledger --workload retail|transfer|fraud --seed N "
      "--seconds S --trace 0|1 [--toy] [--flip-planted] [--commit SHA]");
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--toy") {
      opt.toy = true;
    } else if (arg == "--flip-planted") {
      opt.flip_planted = true;
    } else if (arg == "--commit") {
      opt.commit = value();
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!have_workload || (opt.workload != "retail" &&
                         opt.workload != "transfer" &&
                         opt.workload != "fraud")) {
    Usage("--workload must be retail, transfer or fraud");
  }
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  opt.sizes = opt.toy ? Sizes::Toy() : Sizes();
  return opt;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Writes the transfer workload's spent-journal fixture through the
/// public ServerRuntime import path (group-committed journal blocks), with
/// ids from a seeded mixer rather than the DRBG, which would dominate.
void WriteFixture(const Sizes& sizes, const std::string& prefix,
                  std::uint64_t seed) {
  server::ServerRuntimeConfig rc;
  rc.shard_count = sizes.redeem_shards;
  rc.journal_path_prefix = prefix;
  server::ServerRuntime rt(rc);
  const std::uint64_t key = SplitMix64(seed ^ 0x6c6564676572ull);
  std::vector<rel::LicenseId> chunk;
  for (std::size_t i = 0; i < sizes.fixture_ids; ++i) {
    rel::LicenseId id;
    std::uint64_t hi = SplitMix64(key + 2 * i);
    std::uint64_t lo = SplitMix64(key + 2 * i + 1);
    std::memcpy(id.bytes.data(), &hi, 8);
    std::memcpy(id.bytes.data() + 8, &lo, 8);
    chunk.push_back(id);
    if (chunk.size() == 65536 || i + 1 == sizes.fixture_ids) {
      rt.ImportSpent(chunk);
      chunk.clear();
    }
  }
}

/// store.replay_s: a bare ServerRuntime constructed over the journal.
double ReplayProbeS(const Sizes& sizes, const std::string& prefix) {
  server::ServerRuntimeConfig rc;
  rc.shard_count = sizes.redeem_shards;
  rc.journal_path_prefix = prefix;
  double t0 = NowUs();
  server::ServerRuntime rt(rc);
  return (NowUs() - t0) / 1e6;
}

struct CryptoProbe {
  double sign_us = 0, verify_us = 0, blind_sign_us = 0, hybrid_us = 0;
  std::size_t reps = 0;
};

/// Single-operation probes on the generator thread, with keys of the
/// workload's sizes generated here.
CryptoProbe ProbeCrypto(const Sizes& sizes, std::uint64_t seed) {
  crypto::HmacDrbg rng = SeededRng(seed, "probe");
  crypto::RsaPrivateKey big = crypto::GenerateRsaKey(sizes.server_bits, &rng);
  crypto::RsaPrivateKey small = crypto::GenerateRsaKey(sizes.client_bits, &rng);
  const std::vector<std::uint8_t> msg(64, 0x42);
  const std::vector<std::uint8_t> content_key(32, 0x17);
  const std::size_t reps = 21;
  auto median_us = [&](const std::function<void()>& op) {
    op();  // warm the Montgomery contexts
    std::vector<double> v;
    for (std::size_t i = 0; i < reps; ++i) {
      double t0 = NowUs();
      op();
      v.push_back(NowUs() - t0);
    }
    return Quantile(v, 0.5);
  };
  CryptoProbe p;
  p.reps = reps;
  std::vector<std::uint8_t> sig;
  p.sign_us = median_us([&] { sig = crypto::RsaSignFdh(big, msg); });
  p.verify_us = median_us([&] {
    if (!crypto::RsaVerifyFdh(big.PublicKey(), msg, sig)) {
      throw std::runtime_error("probe signature does not verify");
    }
  });
  crypto::BlindingContext blind =
      crypto::BlindMessage(big.PublicKey(), msg, &rng);
  p.blind_sign_us =
      median_us([&] { crypto::SignBlinded(big, blind.blinded); });
  p.hybrid_us = median_us([&] {
    crypto::RsaHybridEncrypt(small.PublicKey(), content_key, &rng);
  });
  return p;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) {
  std::ostringstream out;
  out << std::setprecision(10) << v;
  return out.str();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string ConfigJson(const RunContext& ctx, const RunResult& r) {
  const Options& o = ctx.opt;
  const Sizes& s = o.sizes;
  core::SystemConfig cfg = StackConfig(s, ctx.journal_prefix);
  std::ostringstream j;
  j << "{\"workload\":" << Quote(o.workload) << ",\"seed\":" << o.seed
    << ",\"seconds\":" << Num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
    << ",\"toy\":" << (o.toy ? "true" : "false")
    << ",\"key_bits\":{\"ca\":" << cfg.ca_key_bits
    << ",\"ttp\":" << cfg.ttp_key_bits << ",\"bank\":" << cfg.bank_key_bits
    << ",\"cp\":" << cfg.cp.signing_key_bits
    << ",\"card\":" << s.client_bits << ",\"pseudonym\":" << s.client_bits
    << "},\"stack\":{\"redeem_shards\":" << cfg.cp.redeem_shards
    << ",\"signer_pool_size\":" << cfg.cp.signer_pool_size
    << ",\"deposit_shards\":" << cfg.bank.deposit_shards
    << ",\"redeem_queue_capacity\":" << cfg.cp.redeem_queue_capacity
    << ",\"max_batches_in_flight\":" << cfg.cp.max_batches_in_flight
    << ",\"spent_backend\":\"flat\",\"group_commit_journal\":true"
    << ",\"latency_model\":\"zero\"}"
    << ",\"pseudonym_pool\":{\"cards\":" << s.cards
    << ",\"pseudonyms_per_card\":" << s.pseudonyms_per_card
    << ",\"cheater_cards\":" << s.cheater_cards << "}"
    << ",\"titles\":" << s.titles << ",\"zipf_s\":1.0"
    << ",\"envelope_items\":" << s.envelope_items
    << ",\"fixture_ids\":" << ctx.fixture_ids
    << ",\"offered_buys_per_s\":" << Num(s.buys_per_s)
    << ",\"latency_limit_ms\":" << Num(r.slo_ms)
    << ",\"tail_quantile\":" << Num(r.tail_quantile)
    << ",\"setups_timed\":" << s.setups
    << ",\"journal_flush\":\"no fsync (one write() per group-commit block)\""
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"build_type\":" << Quote(LEDGER_BUILD_TYPE)
    << ",\"build_flags\":" << Quote(LEDGER_BUILD_FLAGS)
    << ",\"compiler\":" << Quote(__VERSION__)
    << ",\"git_commit\":" << Quote(o.commit) << "}";
  return j.str();
}

std::vector<Metric> EndToEnd(const RunContext& ctx, const RunResult& r) {
  const Phase& ph = r.phases.front();
  const double q = r.tail_quantile;
  return {
      {"setup_s", Quantile(ctx.setup_s, 0.5), "s", ctx.setup_s.size()},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
      {"items_per_s", ph.honest_ok / ph.duration_s, "1/s", ph.honest_ok},
      {"slo_ratio",
       ph.slo_total ? static_cast<double>(ph.slo_met) / ph.slo_total : 0,
       "ratio", ph.slo_total},
      {"step1_p50_ms", Quantile(ph.step1_ms, 0.5), "ms", ph.step1_ms.size()},
      {"step1_tail_ms", Quantile(ph.step1_ms, q), "ms", ph.step1_ms.size()},
      {"step2_tail_ms", Quantile(ph.step2_ms, q), "ms", ph.step2_ms.size()},
  };
}

/// Per-layer sums over a traced phase (µs, with counts).
struct LayerSums {
  double latency = 0, client = 0, dispatch = 0, codec = 0;
  double verify = 0, spend = 0, issue = 0, makespan = 0, tail = 0;
  double withdraw = 0;
  std::size_t metered = 0, pipeline = 0, withdraws = 0;
};

LayerSums SumLayers(const Phase& ph) {
  LayerSums s;
  for (const RequestTrace& t : ph.requests) {
    if (!t.metered) continue;
    const double latency = t.end_us - t.send_us;
    s.latency += latency;
    s.client += latency - t.dispatch_us;
    s.dispatch += t.dispatch_us;
    s.codec += t.codec_us;
    ++s.metered;
    if (std::strcmp(t.kind, "withdraw") == 0) {
      s.withdraw += t.dispatch_us;
      ++s.withdraws;
    }
    if (t.pipeline) {
      s.verify += t.stages.verify_us;
      s.spend += t.stages.spend_us;
      s.issue += t.stages.issue_us;
      s.makespan += t.stages.makespan_us;
      s.tail += t.dispatch_us - t.stages.makespan_us;
      ++s.pipeline;
    } else {
      s.tail += t.dispatch_us;  // no pipeline: the whole dispatch is tail
    }
  }
  return s;
}

std::vector<Metric> PerLayer(const RunContext& ctx, const RunResult& r,
                             const CryptoProbe& probe) {
  const Phase& untraced = r.phases.front();
  const Phase& ph = r.phases.back();
  const LayerSums s = SumLayers(ph);
  const Snapshot& a = ph.before;
  const Snapshot& b = ph.after;
  auto div = [](double x, double y) { return y != 0 ? x / y : 0.0; };
  const std::size_t workers = ctx.opt.sizes.signer_pool_size;
  const double covered = s.client + s.verify + s.spend + s.issue + s.tail;
  const double traced_rate = div(ph.honest_ok, ph.duration_s);
  const double untraced_rate = div(untraced.honest_ok, untraced.duration_s);
  const server::BatchVerifierStats dv = b.verify - a.verify;
  return {
      {"net.client_us", div(s.client, s.metered), "us", s.metered},
      {"net.dispatch_us", div(s.dispatch, s.metered), "us", s.metered},
      {"net.codec_us", div(s.codec, s.metered), "us", s.metered},
      {"net.bytes_per_item", div(b.wire_bytes - a.wire_bytes, ph.wire_items),
       "B", ph.wire_items},
      {"server.verify_us", div(s.verify, s.pipeline), "us", s.pipeline},
      {"server.spend_us", div(s.spend, s.pipeline), "us", s.pipeline},
      {"server.issue_us", div(s.issue, s.pipeline), "us", s.pipeline},
      {"server.makespan_us", div(s.makespan, s.pipeline), "us", s.pipeline},
      {"server.tail_us", div(s.tail, s.metered), "us", s.metered},
      {"verify.full_per_item", div(dv.full_verifies, ph.cp_items), "ratio",
       ph.cp_items},
      {"verify.screen_failures", static_cast<double>(dv.screen_failures),
       "count", dv.screened_groups},
      {"verify.cert_hit_ratio", div(dv.cert_cache_hits, ph.cert_checks),
       "ratio", ph.cert_checks},
      {"runtime.sheds", static_cast<double>(b.sheds - a.sheds), "count",
       ph.cp_items},
      {"runtime.queue_high_water", static_cast<double>(b.queue_high_water),
       "items", 1},
      {"signer.busy_ratio",
       div(static_cast<double>(b.pool_busy_us - a.pool_busy_us),
           s.issue * workers),
       "ratio", s.pipeline},
      {"signer.steals", static_cast<double>(b.steals - a.steals), "count",
       s.pipeline},
      {"store.replay_s", r.replay_probe_s, "s", 1},
      {"store.spent_bytes_per_id", div(b.spent_memory, b.spent_size), "B",
       b.spent_size},
      {"store.journal_bytes_per_spend",
       div(static_cast<double>(b.journal_bytes - a.journal_bytes),
           ph.fresh_spends),
       "B", ph.fresh_spends},
      {"crypto.sign_us", probe.sign_us, "us", probe.reps},
      {"crypto.verify_us", probe.verify_us, "us", probe.reps},
      {"crypto.blind_sign_us", probe.blind_sign_us, "us", probe.reps},
      {"crypto.hybrid_encrypt_us", probe.hybrid_us, "us", probe.reps},
      {"bank.withdraw_us", div(s.withdraw, s.withdraws), "us", s.withdraws},
      {"ttp.opened_per_case",
       div(static_cast<double>(b.opened - a.opened), ph.fraud_cases), "ratio",
       ph.fraud_cases},
      {"ledger.residual_ratio", div(s.latency - covered, s.latency), "ratio",
       s.metered},
      {"harness.lag_p99_ms", Quantile(ph.lag_ms, 0.99), "ms",
       ph.lag_ms.size()},
      {"harness.trace_overhead_ratio", div(traced_rate, untraced_rate),
       "ratio", ph.honest_ok},
  };
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("%-30s %14s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.4f %-6s %10zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

/// The per-kind latencies behind step1/step2, named by protocol step.
void PrintSteps(const RunResult& r) {
  const Phase& ph = r.phases.front();
  const int tail = static_cast<int>(std::lround(r.tail_quantile * 100));
  std::printf("steps: step1 = %s, step2 = %s, tail = p%d\n", r.step1, r.step2,
              tail);
  std::printf("  %s_p50_ms %.4f  %s_p%d_ms %.4f  (n=%zu)\n", r.step1,
              Quantile(ph.step1_ms, 0.5), r.step1, tail,
              Quantile(ph.step1_ms, r.tail_quantile), ph.step1_ms.size());
  std::printf("  %s_p50_ms %.4f  %s_p%d_ms %.4f  (n=%zu)\n", r.step2,
              Quantile(ph.step2_ms, 0.5), r.step2, tail,
              Quantile(ph.step2_ms, r.tail_quantile), ph.step2_ms.size());
  std::printf("  error_ratio %.6f  (%llu of %llu honest items not ok)\n",
              ph.honest_sent
                  ? static_cast<double>(ph.honest_sent - ph.honest_ok) /
                        ph.honest_sent
                  : 0.0,
              static_cast<unsigned long long>(ph.honest_sent - ph.honest_ok),
              static_cast<unsigned long long>(ph.honest_sent));
}

void PrintLedger(const RunResult& r, const std::vector<Metric>& layers) {
  const Phase& ph = r.phases.back();
  const LayerSums s = SumLayers(ph);
  std::printf("ledger: traced phase, %zu metered requests, %.2f s\n",
              s.metered, ph.duration_s);
  PrintMetrics(layers);
  auto mean = [&](double x) { return s.metered ? x / s.metered : 0.0; };
  const double covered = s.client + s.verify + s.spend + s.issue + s.tail;
  std::printf(
      "layer sum vs end-to-end (mean us per request, n=%zu): latency %.1f = "
      "client %.1f + verify %.1f + spend %.1f + issue %.1f + tail %.1f + "
      "residual %.1f (ledger.residual_ratio %.4f)\n",
      s.metered, mean(s.latency), mean(s.client), mean(s.verify),
      mean(s.spend), mean(s.issue), mean(s.tail), mean(s.latency - covered),
      s.latency != 0 ? (s.latency - covered) / s.latency : 0.0);
  const Phase& untraced = r.phases.front();
  std::printf(
      "tracing overhead: traced items_per_s %.2f vs untraced %.2f "
      "(harness.trace_overhead_ratio %.4f)\n",
      ph.honest_ok / ph.duration_s, untraced.honest_ok / untraced.duration_s,
      (ph.honest_ok / ph.duration_s) /
          std::max(1e-9, untraced.honest_ok / untraced.duration_s));
}

/// Chrome trace-event JSON of the traced phase: per request a client
/// span, the endpoint dispatch span inside it and the pipeline stage
/// spans inside that. Stage durations are measured; their offsets are
/// laid out back to back from the dispatch start, and the dispatch span
/// is centred in the request (the codec work around it is not split).
void WriteChromeTrace(const std::string& path, const RunResult& r) {
  const Phase& ph = r.phases.back();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto span = [&](const std::string& name, const char* cat, double ts,
                  double dur, std::size_t id, const std::string& parent) {
    out << (first ? "" : ",") << "\n{\"name\":" << Quote(name)
        << ",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << Num(ts) << ",\"dur\":" << Num(std::max(0.0, dur))
        << ",\"args\":{\"request\":" << id << ",\"parent\":" << Quote(parent)
        << "}}";
    first = false;
  };
  std::size_t id = 0;
  for (const RequestTrace& t : ph.requests) {
    ++id;
    const double start = t.send_us - ph.start_us;
    const double latency = t.end_us - t.send_us;
    const std::string client = std::string("client.") + t.kind;
    span(client, "client", start, latency, id, "");
    if (!t.metered) continue;
    const std::string endpoint =
        std::strcmp(t.kind, "withdraw") == 0 ? "dispatch.bank" : "dispatch.cp";
    double at = start + (latency - t.dispatch_us) / 2;
    span(endpoint, "net", at, t.dispatch_us, id, client);
    if (!t.pipeline) continue;
    span("stage.verify", "server", at, t.stages.verify_us, id, endpoint);
    at += t.stages.verify_us;
    span("stage.spend", "server", at, t.stages.spend_us, id, endpoint);
    at += t.stages.spend_us;
    span("stage.issue", "server", at, t.stages.issue_us, id, endpoint);
  }
  out << "\n]}\n";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream j;
  j << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    j << (i ? ", " : "") << Quote(metrics[i].name)
      << ": {\"value\": " << Num(metrics[i].value)
      << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  return j.str() + "}";
}

int Run(const Options& opt) {
  RunContext ctx;
  ctx.opt = opt;
  fs::create_directories(kOutDir);
  ctx.run_dir = std::string(kOutDir) + "/run-" + opt.workload + "-" +
                std::to_string(opt.seed) + "-" + std::to_string(getpid());
  fs::remove_all(ctx.run_dir);
  fs::create_directories(ctx.run_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{ctx.run_dir};
  ctx.journal_prefix = ctx.run_dir + "/spent";

  const Sizes& sz = opt.sizes;
  const double started_us = NowUs();
  if (opt.workload == "transfer") {
    WriteFixture(sz, ctx.journal_prefix, opt.seed);
    ctx.fixture_ids = sz.fixture_ids;
  }
  double replay_probe_s = opt.trace ? ReplayProbeS(sz, ctx.journal_prefix) : 0;

  for (std::size_t a = 0; a < sz.setups; ++a) {
    ctx.stack.reset();
    double t0 = NowUs();
    ctx.stack = BuildStack(sz, ctx.journal_prefix, a);
    ctx.setup_s.push_back((NowUs() - t0) / 1e6);
  }

  const double setups_done_us = NowUs();
  RunResult r = opt.workload == "retail"     ? RunRetail(&ctx)
                : opt.workload == "transfer" ? RunTransfer(&ctx)
                                             : RunFraud(&ctx);
  r.replay_probe_s = replay_probe_s;
  const double workload_done_us = NowUs();

  core::P2drmSystem& sys = *ctx.stack->sys;
  const std::size_t spent = sys.cp().SpentSetSize();
  const std::uint64_t want = ctx.fixture_ids + ctx.expected_spent;
  ctx.oracle.Check(spent == want, "spent-set-size",
                   "CP holds " + std::to_string(spent) + " spent ids, " +
                       std::to_string(want) + " expected");
  std::uint64_t opened = 0, cases = 0;
  for (const Phase& ph : r.phases) {
    opened += ph.after.opened - ph.before.opened;
    cases += ph.fraud_cases;
  }
  ctx.oracle.Check(opened == cases, "ttp-opened",
                   std::to_string(opened) + " escrows opened for " +
                       std::to_string(cases) + " cases");
  if (opt.flip_planted) ctx.oracle.FlipOne();
  ctx.oracle.Finish(sys.cp().PublicKey());

  double setups_s = 0, timed_s = 0;
  for (double x : ctx.setup_s) setups_s += x;
  for (const Phase& ph : r.phases) timed_s += ph.duration_s;
  std::fprintf(stderr,
               "timeline: before set-up %.2f s, set-ups %.2f s, workload "
               "%.2f s (timed %.2f s), oracle %.2f s\n",
               (setups_done_us - started_us) / 1e6 - setups_s, setups_s,
               (workload_done_us - setups_done_us) / 1e6, timed_s,
               (NowUs() - workload_done_us) / 1e6);

  std::vector<Metric> metrics;
  if (opt.trace) {
    CryptoProbe probe = ProbeCrypto(sz, opt.seed);
    metrics = PerLayer(ctx, r, probe);
    PrintLedger(r, metrics);
    const std::string trace_path = std::string(kOutDir) + "/trace-" +
                                   opt.workload + "-seed" +
                                   std::to_string(opt.seed) + ".json";
    WriteChromeTrace(trace_path, r);
    std::printf("chrome trace: %s\n", trace_path.c_str());
  } else {
    metrics = EndToEnd(ctx, r);
    PrintMetrics(metrics);
  }
  PrintSteps(r);

  std::uint64_t attempted = 0, ok = 0;
  for (const Phase& ph : r.phases) {
    attempted += ph.honest_sent;
    ok += ph.honest_ok;
  }
  const std::string config = ConfigJson(ctx, r);
  std::printf("config %s\n", config.c_str());
  for (const std::string& f : ctx.oracle.failures()) {
    std::printf("ORACLE FAILED %s\n", f.c_str());
  }
  std::printf("oracle: %zu status expectations, %s\n",
              ctx.oracle.expectations(),
              ctx.oracle.ok() ? "all checks passed" : "FAILED");

  std::ostringstream result;
  result << "{\"correct\": " << (ctx.oracle.ok() ? "true" : "false")
         << ", \"attempted\": " << attempted
         << ", \"failed\": " << (attempted - ok)
         << ", \"metrics\": " << MetricsJson(metrics) << "}";
  {
    std::ofstream file(std::string(kOutDir) + "/result-" + opt.workload +
                       "-seed" + std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json");
    file << "{\"config\": " << config << ", \"result\": " << result.str()
         << "}\n";
  }
  ctx.stack.reset();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return ctx.oracle.ok() ? 0 : 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::Run(ledger::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "p2drm_ledger: %s\n", e.what());
    return 1;
  }
}
