#ifndef P2DRM_CLUSTER_PROVIDER_CLUSTER_H_
#define P2DRM_CLUSTER_PROVIDER_CLUSTER_H_

/// \file provider_cluster.h
/// \brief Multi-replica provider cluster: consistent-hash ownership over
/// N ServerRuntime replicas with journal-based failover.
///
/// One provider process is the ceiling on "millions of users": every
/// spend funnels into one ServerRuntime, so shard count is the only
/// scaling axis. ProviderCluster adds the replica axis while preserving
/// the paper's core guarantee — no license id is ever spent twice — even
/// through a replica crash:
///
///  * Ownership. A HashRing (virtual nodes, license-id keyed) partitions
///    the id space across replicas; each replica runs its own
///    ServerRuntime, whose ShardRouter then partitions the replica's
///    share across worker shards. Requests for keys a replica does not
///    own come back kWrongReplica with the current ring epoch and owner,
///    so clients with a stale ring view re-route instead of erroring.
///  * Durability. Each replica journals fresh spends into its own
///    segment family `<prefix>.r<k>.shard<j>` (ServerRuntime's existing
///    journal machinery). A crash loses the replica's memory, not its
///    journals.
///  * Failover. Crash(r) removes r from the ring (epoch bump) and opens
///    a recovery window: keys that USED to be owned by r are gated with
///    kOverloaded — the surviving owner must not admit traffic for a
///    moved range until it holds the range's spent history, or a
///    double-spend could slip through the handoff. CompleteFailover()
///    replays the dead replica's journal segments (torn tails from a
///    crash mid-append are skipped, per store::AppendLog) into each
///    record's NEW owner via ServerRuntime::ImportSpent — idempotent, so
///    overlapping or repeated segments cannot distort the spent set —
///    then lifts the gate.
///
/// Lifecycle transitions (crash, failover completion, join) are plain
/// method calls precisely so sim::EventLoop can schedule them as
/// deterministic events — node failure becomes a replayable scenario
/// (docs/cluster.md), not a flaky integration test.
///
/// Threading: each replica's ServerRuntime runs its own shard workers,
/// but ProviderCluster itself must be driven from one thread at a time
/// (the scenario driver's event loop, or a test). Spend calls use the
/// runtime's blocking submit path, so outcomes are a pure function of
/// call order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "core/errors.h"
#include "obs/trace.h"
#include "rel/ids.h"
#include "server/server_runtime.h"

namespace p2drm {
namespace cluster {

/// Cluster-wide configuration.
struct ClusterConfig {
  std::size_t replica_count = 3;
  std::size_t vnodes_per_replica = 64;
  /// Per-replica ServerRuntime shards (the intra-replica axis).
  std::size_t shards_per_replica = 2;
  std::size_t queue_capacity = 4096;
  /// Journal family base: replica k journals under `<prefix>.r<k>` (each
  /// runtime then appends its own `.shard<j>`, and refuses to start if a
  /// file exists at `<prefix>.r<k>` itself). Empty disables journaling
  /// — and with it, failover (CompleteFailover would have nothing to
  /// replay).
  std::string journal_prefix;
  /// Remove any pre-existing segment files at construction so a run is a
  /// pure function of its traffic — the scenario determinism contract.
  /// Set false to restart a cluster from surviving journals.
  bool fresh_start = true;
  /// Tracing + metrics endpoints (null = off). The tracer records the
  /// failover timeline (crash / failover-complete / replica-join instant
  /// events, emitted on the lifecycle caller's thread); the registry gets
  /// cluster.redirects / cluster.gate_sheds / cluster.crashes /
  /// cluster.failover.* counters plus each replica runtime's
  /// cluster.r<k>.* queue accounting.
  obs::Sink obs;
};

/// Per-id outcome of a routed spend.
struct SpendOutcome {
  core::Status status = core::Status::kInternalError;
  /// On kWrongReplica: the replica that owns the id under the current
  /// ring (the redirect target). Otherwise the replica that answered.
  std::uint32_t owner = 0;
};

/// What one failover replay did.
struct FailoverStats {
  std::uint32_t dead_replica = 0;
  std::size_t segments = 0;        ///< journal segments scanned
  std::uint64_t records = 0;       ///< intact records replayed
  std::uint64_t imported_fresh = 0;    ///< ids new to their inheritor
  std::uint64_t imported_duplicates = 0;  ///< ids the inheritor already had
  std::size_t torn_tails = 0;      ///< segments ending in a skipped torn tail
};

/// N provider replicas behind a consistent-hash ring.
class ProviderCluster {
 public:
  explicit ProviderCluster(const ClusterConfig& config);

  ProviderCluster(const ProviderCluster&) = delete;
  ProviderCluster& operator=(const ProviderCluster&) = delete;

  /// Journal family base of replica \p r under \p prefix.
  static std::string ReplicaJournalPrefix(const std::string& prefix,
                                          std::uint32_t r);

  const HashRing& ring() const { return ring_; }
  std::uint64_t epoch() const { return ring_.epoch(); }
  std::uint32_t OwnerOf(const rel::LicenseId& id) const {
    return ring_.OwnerOf(id);
  }
  std::size_t replica_count() const { return replicas_.size(); }
  bool IsAlive(std::uint32_t r) const {
    return r < replicas_.size() && replicas_[r].runtime != nullptr;
  }
  std::size_t AliveCount() const;
  bool Recovering() const { return recovering_; }

  /// Classifies \p ids as a request addressed to replica \p r WITHOUT
  /// touching any state — the admission decision an arriving batch faces:
  ///  * kWrongReplica — r is dead or does not own the id under the
  ///    current ring (outcome.owner names the redirect target);
  ///  * kOverloaded — the id's range is mid-failover (owned by the dead
  ///    replica until CompleteFailover lifts the gate);
  ///  * kOk — r owns the id and would spend it.
  /// Callers that model their own queueing (the scenario driver) classify
  /// first, apply backpressure, then commit the survivors via
  /// SpendBatchAt.
  void ClassifyBatch(std::uint32_t r, const std::vector<rel::LicenseId>& ids,
                     std::vector<SpendOutcome>* out) const;

  /// Full routed spend of a batch addressed to replica \p r: classifies
  /// exactly as ClassifyBatch, then commits the admitted ids on r's
  /// runtime (blocking, never queue-sheds). Admitted outcomes are kOk
  /// (freshly spent, journaled) or kAlreadySpent (double-spend attempt).
  void SpendBatchAt(std::uint32_t r, const std::vector<rel::LicenseId>& ids,
                    std::vector<SpendOutcome>* out);

  /// Single-id convenience over SpendBatchAt.
  SpendOutcome SpendOneAt(std::uint32_t r, const rel::LicenseId& id);

  /// Kills replica \p r: its runtime is destroyed (in-memory spent set
  /// lost; journal segments survive on disk), it leaves the ring (epoch
  /// bump), and the cluster enters recovery — requests for r's former
  /// ranges are gated until CompleteFailover. With \p tear_journal_tail,
  /// a partial record is appended to one of r's segments first,
  /// simulating death mid-append (the replay must skip it).
  void Crash(std::uint32_t r, bool tear_journal_tail = false);

  /// Replays the dead replica's journal segments onto each record's new
  /// owner and lifts the recovery gate. Requires Recovering().
  FailoverStats CompleteFailover();

  /// Number of intact journal records replica \p r has on disk (alive or
  /// dead) — what a failover of r would replay; the scenario driver
  /// models replay time from it.
  std::uint64_t JournalRecordCount(std::uint32_t r) const;

  /// Adds a fresh replica, migrates its ranges' spent history from the
  /// surviving owners' journals (idempotent import), and admits it to the
  /// ring. Returns the new replica id. Not allowed mid-recovery.
  std::uint32_t AddReplica();

  // -- introspection (quiesces the touched runtimes) ---------------------

  std::size_t ReplicaSpentSize(std::uint32_t r) const;
  std::size_t TotalSpentSize() const;

 private:
  struct Replica {
    std::unique_ptr<server::ServerRuntime> runtime;
  };

  /// Classification of a single id (shared by Classify/Spend paths).
  SpendOutcome ClassifyOne(std::uint32_t r, const rel::LicenseId& id) const;

  std::unique_ptr<server::ServerRuntime> MakeRuntime(std::uint32_t r) const;
  void RemoveJournalFamily(std::uint32_t r) const;

  ClusterConfig config_;
  // Registry ids (meaningful when config_.obs.registry is set).
  obs::Registry::Id obs_redirects_ = 0;
  obs::Registry::Id obs_gate_sheds_ = 0;
  obs::Registry::Id obs_crashes_ = 0;
  obs::Registry::Id obs_replicas_added_ = 0;
  obs::Registry::Id obs_failover_records_ = 0;
  obs::Registry::Id obs_failover_fresh_ = 0;
  obs::Registry::Id obs_failover_duplicates_ = 0;
  HashRing ring_;
  /// Ring as it was before the crash currently being recovered — the
  /// gate test: an id is gated iff its pre-crash owner is the dead
  /// replica.
  HashRing pre_crash_ring_;
  std::vector<Replica> replicas_;
  bool recovering_ = false;
  std::uint32_t dead_ = 0;
};

}  // namespace cluster
}  // namespace p2drm

#endif  // P2DRM_CLUSTER_PROVIDER_CLUSTER_H_
