#ifndef P2DRM_SIM_SCENARIO_H_
#define P2DRM_SIM_SCENARIO_H_

/// \file scenario.h
/// \brief Event-driven scenario harness: population-scale mixed-flow
/// traffic against a modeled provider, entirely in virtual time.
///
/// The paper's evaluation is a cost model, not a testbed — so the
/// repo's load story is *simulation*: drive hundreds of thousands of
/// closed-loop users through the provider's batch flows and report
/// latency/shedding behaviour that is a pure function of the scenario
/// seed. ScenarioDriver runs on one thread over sim::EventLoop /
/// sim::VirtualClock; there is not a single wall-clock sleep anywhere,
/// which is what lets a backoff storm honor multi-second retry-after
/// hints while the whole run finishes in wall-clock seconds.
///
/// The server here is a *model*, deliberately mirroring the real
/// src/server architecture rather than invoking its crypto: one
/// dispatcher resource (amortized verify, serialized — the dispatch
/// thread), N shard resources (mutate, serialized per shard — the shard
/// workers; without modeled signers they also carry issue, a baseline
/// with no real-provider counterpart), bounded per-shard backlogs that
/// shed with a typed retry hint (the kOverloaded contract), and clients
/// that re-send only shed items under a bounded attempt budget (the
/// UserAgent retry loop). Service costs are fixed virtual-microsecond
/// constants (defaults representative of 1024-bit RSA on commodity
/// hardware), NOT wall-clock measurements — measurement would break the
/// bit-identical-reports guarantee the CI determinism check enforces.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/virtual_clock.h"

namespace p2drm {
namespace sim {

/// The four metered batch flows a client can drive.
enum class Flow : std::uint8_t {
  kRedeem = 0,
  kPurchase = 1,
  kExchange = 2,
  kDeposit = 3,
};
constexpr std::size_t kFlowCount = 4;
const char* FlowName(Flow flow);

/// Per-item service cost of one flow, in virtual microseconds.
struct FlowCost {
  std::uint64_t verify_us = 60;  ///< amortized classification (dispatcher)
  std::uint64_t mutate_us = 5;   ///< serialized state change (home shard)
  std::uint64_t issue_us = 700;  ///< private-key work (home shard)
};

/// Cluster mode (ISSUE 6): instead of one modeled provider, the scenario
/// drives a REAL cluster::ProviderCluster — N ServerRuntime replicas with
/// live spent sets and journal files — while keeping every COST modeled
/// in virtual time (per-replica dispatcher + shard resources, wire
/// latency). Spend outcomes are therefore real (actual double-spend
/// detection, actual journal replay on failover) and timing is still a
/// pure function of the seed. All zeros/false = cluster mode off; the
/// single-provider model above runs unchanged.
struct ClusterOptions {
  bool enabled = false;
  std::size_t replica_count = 4;
  std::size_t vnodes_per_replica = 64;
  std::size_t shards_per_replica = 4;
  /// Journal family base for the replicas (see
  /// cluster::ProviderCluster::ReplicaJournalPrefix). Empty disables
  /// journaling — and with it failover replay.
  std::string journal_prefix;

  // -- failure injection ----------------------------------------------
  /// Virtual instant at which `crash_replica` is killed (0 = no crash).
  std::uint64_t crash_at_us = 0;
  std::uint32_t crash_replica = 0;
  /// Tear the dead replica's journal tail (simulate death mid-append).
  bool tear_journal_tail = false;
  /// Modeled failure-detection delay before replay starts.
  std::uint64_t failover_detect_us = 500'000;
  /// Modeled replay cost per journal record; failover completes at
  /// crash + detect + per_record * records, and until then the moved
  /// ranges answer kOverloaded (the recovery gate).
  std::uint64_t replay_per_record_us = 5;
  /// After failover, re-spend every id that had committed on the dead
  /// replica; each kOk is a DOUBLE SPEND (journal replay failed).
  bool audit_after_failover = true;

  /// How many times a client chases kWrongReplica redirects for one item
  /// before giving up (terminal bucket FlowStats::redirected).
  std::size_t redirect_max_hops = 3;
};

/// An arrival burst: within [start_us, end_us) of virtual scenario time,
/// client think times are multiplied by `think_scale` (0.01 = a 100x
/// arrival-rate spike — the flash-crowd/overload knob).
struct BurstWindow {
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  double think_scale = 1.0;
};

/// One named workload. Every field participates in the report's config
/// block so cross-PR trajectories stay comparable.
struct ScenarioConfig {
  std::string name = "unnamed";
  std::uint64_t seed = 1;

  std::size_t num_users = 1000;
  /// Stop issuing new batches once this many items have been sent at
  /// least once (the loop then drains in-flight work, retries included).
  std::uint64_t total_requests = 10000;
  std::size_t batch_size = 8;

  // -- server model ---------------------------------------------------
  std::size_t shard_count = 4;
  /// Per-shard backlog bound, in items; an item arriving at a fuller
  /// shard is shed with kOverloaded + retry hint.
  std::size_t queue_capacity = 4096;
  /// Dedicated signer-pool size for the issue stage — the modeled twin
  /// of server::SignerPool (cluster mode: one pool per replica). 0 keeps
  /// the legacy model where mutate + issue both serialize on the item's
  /// home shard. N > 0 frees the shard after mutate_us and runs issue_us
  /// on the earliest-available of N signer resources (lowest index
  /// breaks ties — work stealing makes the pool a single service
  /// center, so which signer is immaterial to the modeled finish time).
  std::size_t signer_pool_size = 0;
  std::array<FlowCost, kFlowCount> cost = DefaultFlowCosts();

  // -- workload shape -------------------------------------------------
  /// Relative weight of each flow (need not sum to 1; all-zero = redeem
  /// only). One flow is drawn per batch.
  std::array<double, kFlowCount> mix = {0.35, 0.35, 0.2, 0.1};
  /// Content popularity skew. Live, not cosmetic: purchase items route
  /// to their *content's* home shard (per-content royalty/usage state
  /// serializes there), so a skewed catalog concentrates purchase load
  /// on the hot content's shards while id-keyed flows stay uniform.
  double zipf_alpha = 1.0;
  std::size_t catalog_size = 10000;
  /// Mean closed-loop think time between a user's batches.
  std::uint64_t mean_think_us = 30'000'000;
  /// User start times are staggered uniformly over this window
  /// (0 = everyone's first batch fires at t=0: a flash crowd).
  std::uint64_t ramp_us = 0;
  std::vector<BurstWindow> bursts;

  // -- wire model -----------------------------------------------------
  net::LatencyModel wire = {2000, 80};  ///< per round-trip direction
  std::size_t request_bytes_per_item = 512;
  std::size_t response_bytes_per_item = 700;

  // -- client retry policy (mirrors core::AgentConfig) ---------------
  std::size_t overload_max_attempts = 3;
  /// Hint the modeled server attaches to sheds; honored IN FULL in
  /// virtual time (the whole point of the virtual timebase — compare
  /// AgentConfig::overload_backoff_cap_ms, which exists to cap real
  /// sleeps).
  std::uint32_t retry_hint_ms = 50;

  // -- multi-replica cluster mode (off by default) --------------------
  ClusterOptions cluster;

  // -- observability (off by default; not a workload knob) ------------
  /// Tracing + metrics endpoints. The engine timestamps the tracer off
  /// the scenario's virtual clock for the duration of Run() (and detaches
  /// it before returning), so a traced run is byte-identical under a
  /// fixed seed: cluster mode records the failover timeline —
  /// cluster.crash, recovery_gate / journal_replay spans, redirect
  /// instants — and the registry collects the cluster's counters.
  /// Tracing changes no modeled timing and no rng draw, so a traced run
  /// and an untraced run produce the same ScenarioResult.
  obs::Sink obs;

  static std::array<FlowCost, kFlowCount> DefaultFlowCosts() {
    return {FlowCost{60, 5, 1500},   // redeem: transcript + license sign
            FlowCost{120, 8, 900},   // purchase: cert check, deposit, sign
            FlowCost{80, 5, 800},    // exchange: possession proof, bearer
            FlowCost{90, 3, 0}};     // deposit: coin verify, credit only
  }
};

/// Accounting for one flow across a scenario run.
struct FlowStats {
  std::uint64_t issued = 0;      ///< items sent at least once
  std::uint64_t completed = 0;   ///< items that reached kOk
  std::uint64_t sheds = 0;       ///< item-level kOverloaded responses
  std::uint64_t retried = 0;     ///< item re-sends beyond the first try
  std::uint64_t exhausted = 0;   ///< items still shed at budget end
  /// Cluster mode only: items that burned their redirect-hop budget
  /// without landing on a live owner (terminal, like exhausted).
  std::uint64_t redirected = 0;
  /// Client-observed latency per completed item: the arrival of the
  /// batch response carrying its kOk minus the batch's first send — so
  /// items in one round trip share the slowest item's instant, exactly
  /// as a real UserAgent batch caller experiences it.
  LatencyStats latency;
};

/// What one ScenarioDriver::Run produces.
struct ScenarioResult {
  std::string name;
  std::uint64_t virtual_duration_us = 0;  ///< clock advance over the run
  std::uint64_t events_executed = 0;
  std::uint64_t batches_sent = 0;         ///< round trips, retries included
  std::uint64_t wire_messages = 0;        ///< requests + responses
  std::uint64_t wire_bytes = 0;
  std::uint64_t backoff_ms_honored = 0;   ///< total hinted wait served
  std::uint64_t max_backlog_items = 0;    ///< deepest shard backlog seen
  std::uint64_t zipf_top1pct_hits = 0;    ///< items on the hottest 1% ranks
  std::array<FlowStats, kFlowCount> flows;

  /// Cluster-mode accounting (all zero when cluster mode is off).
  struct ClusterStats {
    bool enabled = false;
    std::uint64_t redirect_responses = 0;  ///< item-level kWrongReplica seen
    std::uint64_t ring_epoch_final = 0;
    std::uint64_t replicas_alive_final = 0;
    std::uint64_t total_spent_final = 0;   ///< live replicas' spent-set union
    // Failover (zero unless a crash was injected and recovered):
    std::uint64_t crash_at_us = 0;
    std::uint64_t failover_completed_at_us = 0;
    std::uint64_t replayed_records = 0;
    std::uint64_t imported_fresh = 0;
    std::uint64_t imported_duplicates = 0;
    std::uint64_t torn_tails_skipped = 0;
    // Post-failover audit — the paper's invariant, checked for real:
    std::uint64_t audit_rechecks = 0;  ///< ids committed pre-crash, re-spent
    std::uint64_t double_spends = 0;   ///< audit re-spends that got kOk (MUST be 0)
  };
  ClusterStats cluster;

  std::uint64_t TotalIssued() const;
  std::uint64_t TotalCompleted() const;
  std::uint64_t TotalSheds() const;
  std::uint64_t TotalExhausted() const;
  std::uint64_t TotalRedirectedTerminal() const;
};

/// Runs one scenario to completion on the calling thread. Deterministic:
/// the result is a pure function of the config (seed included).
class ScenarioDriver {
 public:
  explicit ScenarioDriver(const ScenarioConfig& config);

  ScenarioResult Run();

 private:
  ScenarioConfig config_;
};

}  // namespace sim
}  // namespace p2drm

#endif  // P2DRM_SIM_SCENARIO_H_
