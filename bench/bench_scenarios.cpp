// Scenario harness bench (ISSUE 5 + 6 acceptance): population-scale
// mixed-flow traffic entirely in virtual time.
//
// Runs >= 5 named scenarios, each driving 100k closed-loop simulated
// users (sim::ScenarioDriver): Zipf content popularity, a
// redeem/purchase/exchange/deposit mix, arrival ramps, bounded shard
// backlogs that shed with typed retry hints, and the client retry loop
// honoring those hints IN FULL. Together the scenarios issue >= 1M items.
//
// The first three — steady_state, flash_crowd, backoff_storm — drive the
// modeled single provider. The last two — cluster_steady,
// replica_failover — drive a REAL cluster::ProviderCluster (live spent
// sets + journal files, modeled virtual-time costs): replica_failover
// kills a replica mid-run, replays its journals onto the survivors, and
// then AUDITS the survivors by re-spending everything the dead replica
// had committed — accounting must close with ZERO double spends.
//
// There is no wall-clock sleep anywhere: the backoff-storm scenario
// honors multi-second retry_after hints purely by advancing
// sim::VirtualClock, so the whole bench finishes in wall-clock seconds.
// Everything written to BENCH_scenarios.json is a pure function of the
// scenario seeds — CI runs the binary twice and fails on any byte
// difference (wall-clock numbers go to the console only).
//
// Output: console report + BENCH_scenarios.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "sim/bench_report.h"
#include "sim/scenario.h"

namespace {

using namespace p2drm;  // NOLINT

/// Scenario-owned journal scratch dir: the cluster scenarios' segment
/// families live here instead of littering the working directory. Removed
/// on success; kept (with its segments) when the bench fails, for
/// post-mortem replay.
constexpr const char kJournalDir[] = "BENCH_scenarios.journals";

double WallSecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The three named workloads. \p scale shrinks population and request
/// counts for the CI smoke run (structure and knobs stay identical).
std::vector<sim::ScenarioConfig> BuildScenarios(std::size_t scale) {
  std::vector<sim::ScenarioConfig> out;

  // Steady-state: arrivals ramp over a virtual minute to ~85% shard
  // utilization; sheds should be rare and tails short.
  sim::ScenarioConfig steady;
  steady.name = "steady_state";
  steady.seed = 11;
  steady.num_users = 100'000 / scale;
  steady.total_requests = 440'000 / scale;
  steady.batch_size = 4;
  steady.shard_count = 16;
  steady.queue_capacity = 4096;
  steady.mix = {0.35, 0.35, 0.2, 0.1};
  steady.mean_think_us = 30'000'000;
  steady.ramp_us = 60'000'000;
  steady.retry_hint_ms = 50;
  out.push_back(steady);

  // Flash-crowd: every user's first batch fires at t=0 against a
  // smaller backlog bound; the bounded queues must shed and the
  // short-hint retry loop must recover most items.
  sim::ScenarioConfig flash;
  flash.name = "flash_crowd";
  flash.seed = 22;
  flash.num_users = 100'000 / scale;
  flash.total_requests = 400'000 / scale;
  flash.batch_size = 4;
  flash.shard_count = 8;
  flash.queue_capacity = 256;
  // Dedicated signer pool (ISSUE 9): issue-stage work leaves the 8
  // shards after mutate and queues on 12 pooled signers — strictly more
  // issue capacity than the 8 shard-bound servers the legacy model
  // provides, which is what pulls the redeem p99 tail in (gated below
  // against a pool-off baseline run of the same workload).
  flash.signer_pool_size = 12;
  flash.mix = {0.5, 0.3, 0.2, 0.0};
  flash.mean_think_us = 5'000'000;
  flash.ramp_us = 0;  // the crowd arrives at once
  flash.retry_hint_ms = 50;
  out.push_back(flash);

  // Backoff-storm: a 2-second arrival wave against few shards and a
  // tiny backlog bound, with MULTI-SECOND retry hints. Honoring a 2.5s
  // hint per retry round trip is exactly what the virtual timebase
  // exists for — with real sleeps this scenario would take hours.
  sim::ScenarioConfig storm;
  storm.name = "backoff_storm";
  storm.seed = 33;
  storm.num_users = 100'000 / scale;
  storm.total_requests = 400'000 / scale;
  storm.batch_size = 4;
  storm.shard_count = 4;
  storm.queue_capacity = 256;
  storm.mix = {0.4, 0.4, 0.2, 0.0};
  storm.mean_think_us = 10'000'000;
  storm.ramp_us = 2'000'000;
  storm.retry_hint_ms = 2500;  // >= 1s: the acceptance criterion
  // While the first wave's retries are still draining, users that did
  // complete come back 20x faster — a burst stacked on the storm.
  storm.bursts.push_back({0, 30'000'000, 0.05});
  out.push_back(storm);

  // Cluster steady-state: the same closed-loop shape against 4 REAL
  // provider replicas behind the consistent-hash ring. No membership
  // change ever happens, so the clients' ring view never goes stale:
  // zero redirects is itself an assertion.
  sim::ScenarioConfig csteady;
  csteady.name = "cluster_steady";
  csteady.seed = 44;
  csteady.num_users = 100'000 / scale;
  csteady.total_requests = 360'000 / scale;
  csteady.batch_size = 4;
  csteady.queue_capacity = 2048;
  csteady.mix = {0.4, 0.3, 0.2, 0.1};
  csteady.mean_think_us = 30'000'000;
  csteady.ramp_us = 60'000'000;
  csteady.retry_hint_ms = 50;
  csteady.cluster.enabled = true;
  csteady.cluster.replica_count = 4;
  csteady.cluster.shards_per_replica = 4;
  csteady.cluster.journal_prefix =
      std::string(kJournalDir) + "/cluster_steady.journal";
  out.push_back(csteady);

  // Replica failover: replica 1 dies at T=10s with a TORN journal tail
  // (killed mid-append). Its key ranges move to the survivors, which
  // gate them (kOverloaded) until the journal replay completes; stale
  // clients get kWrongReplica redirects and re-route. After failover the
  // engine re-spends every id the dead replica had committed — the
  // paper's no-double-spend invariant, checked against real spent sets.
  sim::ScenarioConfig failover;
  failover.name = "replica_failover";
  failover.seed = 55;
  failover.num_users = 100'000 / scale;
  failover.total_requests = 400'000 / scale;
  failover.batch_size = 4;
  failover.queue_capacity = 2048;
  failover.mix = {0.4, 0.3, 0.2, 0.1};
  failover.mean_think_us = 10'000'000;
  failover.ramp_us = 25'000'000;
  failover.retry_hint_ms = 250;
  failover.overload_max_attempts = 6;  // ride out the recovery window
  failover.cluster.enabled = true;
  failover.cluster.replica_count = 4;
  failover.cluster.shards_per_replica = 4;
  failover.cluster.journal_prefix =
      std::string(kJournalDir) + "/replica_failover.journal";
  failover.cluster.crash_at_us = 10'000'000;
  failover.cluster.crash_replica = 1;
  failover.cluster.tear_journal_tail = true;
  failover.cluster.failover_detect_us = 500'000;
  failover.cluster.replay_per_record_us = 5;
  failover.cluster.audit_after_failover = true;
  out.push_back(failover);

  return out;
}

void ReportScenario(const sim::ScenarioConfig& cfg,
                    const sim::ScenarioResult& r, double wall_s,
                    sim::BenchReport* report) {
  const std::string& p = cfg.name;
  report->ConfigMetric(p + ".users", static_cast<double>(cfg.num_users));
  report->ConfigMetric(p + ".total_requests",
                       static_cast<double>(cfg.total_requests));
  report->ConfigMetric(p + ".batch_size", static_cast<double>(cfg.batch_size));
  report->ConfigMetric(p + ".shards", static_cast<double>(cfg.shard_count));
  report->ConfigMetric(p + ".queue_capacity",
                       static_cast<double>(cfg.queue_capacity));
  report->ConfigMetric(p + ".signer_pool_size",
                       static_cast<double>(cfg.signer_pool_size));
  report->ConfigMetric(p + ".seed", static_cast<double>(cfg.seed));
  report->ConfigMetric(p + ".retry_hint_ms",
                       static_cast<double>(cfg.retry_hint_ms));
  report->ConfigMetric(p + ".mean_think_us",
                       static_cast<double>(cfg.mean_think_us));
  report->ConfigMetric(p + ".ramp_us", static_cast<double>(cfg.ramp_us));
  report->ConfigMetric(p + ".zipf_alpha", cfg.zipf_alpha);
  report->ConfigMetric(p + ".catalog_size",
                       static_cast<double>(cfg.catalog_size));
  report->ConfigMetric(p + ".overload_max_attempts",
                       static_cast<double>(cfg.overload_max_attempts));
  report->ConfigMetric(p + ".wire_per_message_us",
                       static_cast<double>(cfg.wire.per_message_us));
  report->ConfigMetric(p + ".wire_per_kib_us",
                       static_cast<double>(cfg.wire.per_kib_us));
  report->ConfigMetric(p + ".request_bytes_per_item",
                       static_cast<double>(cfg.request_bytes_per_item));
  report->ConfigMetric(p + ".response_bytes_per_item",
                       static_cast<double>(cfg.response_bytes_per_item));
  if (cfg.cluster.enabled) {
    const sim::ClusterOptions& cl = cfg.cluster;
    report->ConfigMetric(p + ".replicas",
                         static_cast<double>(cl.replica_count));
    report->ConfigMetric(p + ".vnodes_per_replica",
                         static_cast<double>(cl.vnodes_per_replica));
    report->ConfigMetric(p + ".shards_per_replica",
                         static_cast<double>(cl.shards_per_replica));
    report->ConfigMetric(p + ".crash_at_us",
                         static_cast<double>(cl.crash_at_us));
    report->ConfigMetric(p + ".crash_replica",
                         static_cast<double>(cl.crash_replica));
    report->ConfigMetric(p + ".tear_journal_tail",
                         cl.tear_journal_tail ? 1 : 0);
    report->ConfigMetric(p + ".failover_detect_us",
                         static_cast<double>(cl.failover_detect_us));
    report->ConfigMetric(p + ".replay_per_record_us",
                         static_cast<double>(cl.replay_per_record_us));
    report->ConfigMetric(p + ".redirect_max_hops",
                         static_cast<double>(cl.redirect_max_hops));
    report->ConfigNote(p + ".journal_prefix", cl.journal_prefix);
  }
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%g:%g:%g:%g", cfg.mix[0], cfg.mix[1],
                  cfg.mix[2], cfg.mix[3]);
    report->ConfigNote(p + ".mix_r:p:x:d", buf);
    std::string bursts;
    for (const sim::BurstWindow& w : cfg.bursts) {
      std::snprintf(buf, sizeof(buf), "%s[%llu,%llu)x%g",
                    bursts.empty() ? "" : " ",
                    static_cast<unsigned long long>(w.start_us),
                    static_cast<unsigned long long>(w.end_us),
                    w.think_scale);
      bursts += buf;
    }
    report->ConfigNote(p + ".bursts", bursts.empty() ? "none" : bursts);
    for (std::size_t f = 0; f < sim::kFlowCount; ++f) {
      const sim::FlowCost& c = cfg.cost[f];
      std::snprintf(buf, sizeof(buf), "%llu/%llu/%llu",
                    static_cast<unsigned long long>(c.verify_us),
                    static_cast<unsigned long long>(c.mutate_us),
                    static_cast<unsigned long long>(c.issue_us));
      report->ConfigNote(
          p + "." + sim::FlowName(static_cast<sim::Flow>(f)) +
              "_cost_us.verify/mutate/issue",
          buf);
    }
  }

  double virtual_s = static_cast<double>(r.virtual_duration_us) / 1e6;
  std::printf(
      "%-14s issued=%8llu completed=%8llu shed=%8llu retried=%8llu "
      "exhausted=%7llu virtual=%8.1fs wall=%6.2fs\n",
      cfg.name.c_str(),
      static_cast<unsigned long long>(r.TotalIssued()),
      static_cast<unsigned long long>(r.TotalCompleted()),
      static_cast<unsigned long long>(r.TotalSheds()),
      static_cast<unsigned long long>(r.flows[0].retried + r.flows[1].retried +
                                      r.flows[2].retried + r.flows[3].retried),
      static_cast<unsigned long long>(r.TotalExhausted()), virtual_s, wall_s);

  report->Metric(p + ".virtual_s", virtual_s);
  report->Metric(p + ".events", static_cast<double>(r.events_executed));
  report->Metric(p + ".batches", static_cast<double>(r.batches_sent));
  report->Metric(p + ".wire_messages", static_cast<double>(r.wire_messages));
  report->Metric(p + ".wire_bytes", static_cast<double>(r.wire_bytes));
  report->Metric(p + ".backoff_ms", static_cast<double>(r.backoff_ms_honored));
  report->Metric(p + ".max_backlog",
                 static_cast<double>(r.max_backlog_items));
  report->Metric(p + ".zipf_top1pct_hits",
                 static_cast<double>(r.zipf_top1pct_hits));
  if (r.cluster.enabled) {
    const sim::ScenarioResult::ClusterStats& cl = r.cluster;
    report->Metric(p + ".redirect_responses",
                   static_cast<double>(cl.redirect_responses));
    report->Metric(p + ".redirected_terminal",
                   static_cast<double>(r.TotalRedirectedTerminal()));
    report->Metric(p + ".ring_epoch_final",
                   static_cast<double>(cl.ring_epoch_final));
    report->Metric(p + ".replicas_alive_final",
                   static_cast<double>(cl.replicas_alive_final));
    report->Metric(p + ".total_spent_final",
                   static_cast<double>(cl.total_spent_final));
    report->Metric(p + ".replayed_records",
                   static_cast<double>(cl.replayed_records));
    report->Metric(p + ".imported_fresh",
                   static_cast<double>(cl.imported_fresh));
    report->Metric(p + ".imported_duplicates",
                   static_cast<double>(cl.imported_duplicates));
    report->Metric(p + ".torn_tails_skipped",
                   static_cast<double>(cl.torn_tails_skipped));
    report->Metric(p + ".audit_rechecks",
                   static_cast<double>(cl.audit_rechecks));
    report->Metric(p + ".double_spends",
                   static_cast<double>(cl.double_spends));
    if (cl.crash_at_us > 0) {
      report->Metric(p + ".failover_window_us",
                     static_cast<double>(cl.failover_completed_at_us -
                                         cl.crash_at_us));
    }
    std::printf(
        "  cluster: redirects=%llu replayed=%llu (fresh=%llu dup=%llu "
        "torn=%llu) audited=%llu double_spends=%llu epoch=%llu alive=%llu\n",
        static_cast<unsigned long long>(cl.redirect_responses),
        static_cast<unsigned long long>(cl.replayed_records),
        static_cast<unsigned long long>(cl.imported_fresh),
        static_cast<unsigned long long>(cl.imported_duplicates),
        static_cast<unsigned long long>(cl.torn_tails_skipped),
        static_cast<unsigned long long>(cl.audit_rechecks),
        static_cast<unsigned long long>(cl.double_spends),
        static_cast<unsigned long long>(cl.ring_epoch_final),
        static_cast<unsigned long long>(cl.replicas_alive_final));
  }
  if (virtual_s > 0) {
    report->Metric(p + ".completed_per_virtual_s",
                   static_cast<double>(r.TotalCompleted()) / virtual_s);
  }
  for (std::size_t f = 0; f < sim::kFlowCount; ++f) {
    const sim::FlowStats& fs = r.flows[f];
    std::string fp = p + "." + sim::FlowName(static_cast<sim::Flow>(f));
    report->Metric(fp + ".issued", static_cast<double>(fs.issued));
    report->Metric(fp + ".completed", static_cast<double>(fs.completed));
    report->Metric(fp + ".sheds", static_cast<double>(fs.sheds));
    report->Metric(fp + ".retried", static_cast<double>(fs.retried));
    report->Metric(fp + ".exhausted", static_cast<double>(fs.exhausted));
    if (r.cluster.enabled) {
      report->Metric(fp + ".redirected", static_cast<double>(fs.redirected));
    }
    report->Metric(fp + ".p50_us", fs.latency.Percentile(50));
    report->Metric(fp + ".p90_us", fs.latency.Percentile(90));
    report->Metric(fp + ".p99_us", fs.latency.Percentile(99));
    report->Metric(fp + ".max_us", fs.latency.Max());
    if (fs.completed > 0) {
      std::printf("  %-9s %s\n", sim::FlowName(static_cast<sim::Flow>(f)),
                  fs.latency.Summary().c_str());
    }
  }
}

/// Two results from the same config must agree exactly — the
/// determinism contract the virtual timebase promises.
bool SameResult(const sim::ScenarioResult& a, const sim::ScenarioResult& b) {
  if (a.virtual_duration_us != b.virtual_duration_us ||
      a.events_executed != b.events_executed ||
      a.batches_sent != b.batches_sent || a.wire_bytes != b.wire_bytes ||
      a.backoff_ms_honored != b.backoff_ms_honored) {
    return false;
  }
  for (std::size_t f = 0; f < sim::kFlowCount; ++f) {
    if (a.flows[f].completed != b.flows[f].completed ||
        a.flows[f].sheds != b.flows[f].sheds ||
        a.flows[f].exhausted != b.flows[f].exhausted ||
        a.flows[f].redirected != b.flows[f].redirected ||
        a.flows[f].latency.Percentile(99) != b.flows[f].latency.Percentile(99)) {
      return false;
    }
  }
  return a.cluster.redirect_responses == b.cluster.redirect_responses &&
         a.cluster.replayed_records == b.cluster.replayed_records &&
         a.cluster.imported_fresh == b.cluster.imported_fresh &&
         a.cluster.double_spends == b.cluster.double_spends &&
         a.cluster.ring_epoch_final == b.cluster.ring_epoch_final &&
         a.cluster.total_spent_final == b.cluster.total_spent_final;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string only;
  std::string trace_path = "BENCH_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--only <scenario>] [--trace <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  {
    std::error_code ec;
    std::filesystem::create_directories(kJournalDir, ec);
    if (ec) {
      std::fprintf(stderr, "FAIL: cannot create %s: %s\n", kJournalDir,
                   ec.message().c_str());
      return 1;
    }
  }
  // Smoke keeps every knob but shrinks the population 20x so CI spends
  // ~a second; the full run holds the ISSUE 5 floor (>=100k users per
  // scenario, >=1M items total).
  const std::size_t scale = smoke ? 20 : 1;

  sim::BenchReport report("scenarios");
  report.ConfigNote("mode", smoke ? "smoke" : "full");
  // Signer-pool model knob: the steal policy mirrors the real
  // server::SignerPool.
  report.ConfigNote("signer_pool_steal_policy",
                    "owner pops front; thieves scan from the next worker "
                    "and pop back");

  std::uint64_t total_issued = 0;
  std::uint64_t total_users = 0;
  auto scenarios = BuildScenarios(scale);
  if (!only.empty()) {
    scenarios.erase(std::remove_if(scenarios.begin(), scenarios.end(),
                                   [&only](const sim::ScenarioConfig& c) {
                                     return c.name != only;
                                   }),
                    scenarios.end());
    if (scenarios.empty()) {
      std::fprintf(stderr, "unknown scenario: %s\n", only.c_str());
      return 2;
    }
  }
  {
    std::string names;
    for (const auto& cfg : scenarios) {
      if (!names.empty()) names += ",";
      names += cfg.name;
    }
    report.ConfigNote("scenarios", names);
  }
  std::string trace_payload;
  bool trace_first = true;
  int trace_pid = 0;
  for (const sim::ScenarioConfig& cfg : scenarios) {
    // Fresh per-scenario endpoints; the engine stamps the tracer with the
    // scenario's virtual clock, so everything exported below is a pure
    // function of the config — byte-compared by CI like the report.
    obs::Tracer tracer;
    obs::Registry registry;
    sim::ScenarioConfig traced = cfg;
    traced.obs.tracer = &tracer;
    traced.obs.registry = &registry;

    auto t0 = std::chrono::steady_clock::now();
    sim::ScenarioResult r = sim::ScenarioDriver(traced).Run();
    double wall_s = WallSecondsSince(t0);
    ReportScenario(cfg, r, wall_s, &report);
    obs::AppendRegistry(registry, cfg.name + ".", &report);
    report.MetricsMetric(cfg.name + ".trace.events",
                         static_cast<double>(tracer.event_count()));
    report.MetricsMetric(cfg.name + ".trace.dropped",
                         static_cast<double>(tracer.dropped_count()));
    tracer.AppendChromeTraceEvents(&trace_payload, trace_pid++, cfg.name,
                                   &trace_first);
    total_issued += r.TotalIssued();
    total_users += cfg.num_users;

    // Accounting must close: every issued item is terminal in exactly
    // one bucket — completed, retry budget exhausted, or (cluster mode)
    // redirect-hop budget burned. Nothing may vanish in the model.
    if (r.TotalCompleted() + r.TotalExhausted() +
            r.TotalRedirectedTerminal() !=
        r.TotalIssued()) {
      std::fprintf(stderr,
                   "FAIL: %s lost items (%llu + %llu + %llu != %llu)\n",
                   cfg.name.c_str(),
                   static_cast<unsigned long long>(r.TotalCompleted()),
                   static_cast<unsigned long long>(r.TotalExhausted()),
                   static_cast<unsigned long long>(r.TotalRedirectedTerminal()),
                   static_cast<unsigned long long>(r.TotalIssued()));
      return 1;
    }
    if (cfg.name == "flash_crowd" && r.TotalSheds() == 0) {
      std::fprintf(stderr, "FAIL: flash crowd never shed\n");
      return 1;
    }
    if (cfg.name == "flash_crowd" && cfg.signer_pool_size > 0) {
      // Pool-off baseline: the identical workload with signer_pool_size
      // = 0 re-serializes mutate+issue on the home shards — exactly the
      // model this scenario ran before the signer pool existed (PR 8).
      // Virtual time makes both runs pure functions of the config, so
      // "the pool improves the redeem tail" is a hard deterministic
      // gate here, not a trend eyeballed across reports.
      sim::ScenarioConfig nopool = cfg;
      nopool.signer_pool_size = 0;
      sim::ScenarioResult base = sim::ScenarioDriver(nopool).Run();
      double pooled_p99 = r.flows[0].latency.Percentile(99);  // redeem
      double base_p99 = base.flows[0].latency.Percentile(99);
      std::printf(
          "flash_crowd redeem p99: pooled=%.0fus nopool=%.0fus (%.2fx)\n",
          pooled_p99, base_p99, pooled_p99 > 0 ? base_p99 / pooled_p99 : 0.0);
      report.Metric("flash_crowd.nopool.redeem.p99_us", base_p99);
      report.Metric("flash_crowd.nopool.redeem.p50_us",
                    base.flows[0].latency.Percentile(50));
      report.Metric("flash_crowd.nopool.sheds",
                    static_cast<double>(base.TotalSheds()));
      if (pooled_p99 > base_p99) {
        std::fprintf(stderr,
                     "FAIL: signer pool worsened flash-crowd redeem p99 "
                     "(%.0fus > %.0fus)\n",
                     pooled_p99, base_p99);
        return 1;
      }
    }
    if (cfg.name == "backoff_storm") {
      if (cfg.retry_hint_ms < 1000 || r.backoff_ms_honored == 0) {
        std::fprintf(stderr,
                     "FAIL: storm did not honor multi-second hints\n");
        return 1;
      }
      // The honored waits must dwarf the run's wall time — that is the
      // zero-wall-clock-sleeps claim, stated in time units.
      double honored_s = static_cast<double>(r.backoff_ms_honored) / 1e3;
      std::printf("backoff_storm honored %.0fs of hinted waits in %.2fs wall\n",
                  honored_s, wall_s);
    }
    if (cfg.name == "cluster_steady" &&
        (r.cluster.redirect_responses != 0 || r.cluster.double_spends != 0)) {
      std::fprintf(stderr,
                   "FAIL: cluster_steady saw redirects/double spends\n");
      return 1;
    }
    if (cfg.name == "replica_failover") {
      // The ISSUE 6 acceptance: the crash really happened, the journal
      // replay really ran (torn tail skipped), clients really got
      // redirected — and not one double spend slipped through.
      if (r.cluster.double_spends != 0) {
        std::fprintf(stderr, "FAIL: %llu double spends after failover\n",
                     static_cast<unsigned long long>(r.cluster.double_spends));
        return 1;
      }
      if (r.cluster.replayed_records == 0 || r.cluster.audit_rechecks == 0) {
        std::fprintf(stderr, "FAIL: failover replayed/audited nothing\n");
        return 1;
      }
      if (cfg.cluster.tear_journal_tail && r.cluster.torn_tails_skipped == 0) {
        std::fprintf(stderr, "FAIL: torn journal tail was not detected\n");
        return 1;
      }
      if (r.cluster.redirect_responses == 0) {
        std::fprintf(stderr, "FAIL: no client was ever redirected\n");
        return 1;
      }
      if (r.cluster.replicas_alive_final + 1 != cfg.cluster.replica_count) {
        std::fprintf(stderr, "FAIL: replica count after crash is wrong\n");
        return 1;
      }
      // The failover timeline must be IN THE TRACE: the crash instant,
      // the recovery-gate and journal-replay spans, and at least one
      // redirect — the events docs/observability.md promises Perfetto
      // will show.
      for (const char* ev :
           {"cluster.crash", "recovery_gate", "journal_replay", "redirect"}) {
        if (!tracer.Contains(ev)) {
          std::fprintf(stderr, "FAIL: trace is missing %s events\n", ev);
          return 1;
        }
      }
    }

    // Determinism guard: an identical config replays an identical run.
    // Deliberately WITHOUT obs endpoints — the comparison then also
    // proves tracing changed no modeled timing and no rng draw.
    sim::ScenarioResult again = sim::ScenarioDriver(cfg).Run();
    if (!SameResult(r, again)) {
      std::fprintf(stderr, "FAIL: %s is nondeterministic across runs\n",
                   cfg.name.c_str());
      return 1;
    }
  }

  std::printf("total: %llu items issued across %llu simulated users\n",
              static_cast<unsigned long long>(total_issued),
              static_cast<unsigned long long>(total_users));
  if (!smoke && only.empty()) {
    if (total_issued < 1'000'000) {
      std::fprintf(stderr, "FAIL: issued %llu < 1M items\n",
                   static_cast<unsigned long long>(total_issued));
      return 1;
    }
    for (const auto& cfg : scenarios) {
      if (cfg.num_users < 100'000) {
        std::fprintf(stderr, "FAIL: %s has %zu users < 100k\n",
                     cfg.name.c_str(), cfg.num_users);
        return 1;
      }
    }
  }

  obs::AppendOpCounters(&report);

  if (!obs::Tracer::WriteChromeTraceFile(trace_path, trace_payload)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("trace: %s\n", trace_path.c_str());

  // Success: the journal scratch dir has served its purpose. (Every FAIL
  // path above returns without reaching this, keeping the segments.)
  {
    std::error_code ec;
    std::filesystem::remove_all(kJournalDir, ec);
  }

  report.WriteJsonFile();
  return 0;
}
