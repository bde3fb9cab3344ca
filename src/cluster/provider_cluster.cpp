#include "cluster/provider_cluster.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>

namespace p2drm {
namespace cluster {

namespace {

/// Appends a deliberately partial record (length/CRC header promising more
/// payload than follows) to \p path — the on-disk shape of a process dying
/// mid-Append. Creates the file if the replica never journaled to it.
void TearTail(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("provider_cluster: cannot tear journal tail at " +
                             path);
  }
  const std::uint32_t fake_len = 16;  // promises a LicenseId payload...
  const std::uint32_t fake_crc = 0xDEADBEEF;
  std::fwrite(&fake_len, sizeof fake_len, 1, f);
  std::fwrite(&fake_crc, sizeof fake_crc, 1, f);
  const std::uint8_t half[7] = {1, 2, 3, 4, 5, 6, 7};  // ...delivers 7 bytes
  std::fwrite(half, 1, sizeof half, f);
  std::fclose(f);
}

}  // namespace

std::string ProviderCluster::ReplicaJournalPrefix(const std::string& prefix,
                                                  std::uint32_t r) {
  return prefix + ".r" + std::to_string(r);
}

ProviderCluster::ProviderCluster(const ClusterConfig& config)
    : config_(config),
      ring_(config.vnodes_per_replica),
      pre_crash_ring_(config.vnodes_per_replica) {
  if (config_.replica_count == 0) {
    throw std::invalid_argument("provider_cluster: replica_count must be > 0");
  }
  if (config_.obs.registry != nullptr) {
    obs::Registry* reg = config_.obs.registry;
    obs_redirects_ = reg->Counter("cluster.redirects");
    obs_gate_sheds_ = reg->Counter("cluster.gate_sheds");
    obs_crashes_ = reg->Counter("cluster.crashes");
    obs_replicas_added_ = reg->Counter("cluster.replicas_added");
    obs_failover_records_ = reg->Counter("cluster.failover.records_replayed");
    obs_failover_fresh_ = reg->Counter("cluster.failover.imported_fresh");
    obs_failover_duplicates_ =
        reg->Counter("cluster.failover.imported_duplicates");
  }
  replicas_.resize(config_.replica_count);
  for (std::uint32_t r = 0; r < config_.replica_count; ++r) {
    if (config_.fresh_start) RemoveJournalFamily(r);
    replicas_[r].runtime = MakeRuntime(r);
    ring_.AddReplica(r);
  }
}

std::unique_ptr<server::ServerRuntime> ProviderCluster::MakeRuntime(
    std::uint32_t r) const {
  server::ServerRuntimeConfig rc;
  rc.shard_count = config_.shards_per_replica;
  rc.queue_capacity = config_.queue_capacity;
  if (!config_.journal_prefix.empty()) {
    rc.journal_path_prefix = ReplicaJournalPrefix(config_.journal_prefix, r);
  }
  auto runtime = std::make_unique<server::ServerRuntime>(rc);
  if (config_.obs.registry != nullptr) {
    runtime->set_observability(config_.obs.registry,
                               "cluster.r" + std::to_string(r) + ".");
  }
  return runtime;
}

void ProviderCluster::RemoveJournalFamily(std::uint32_t r) const {
  if (config_.journal_prefix.empty()) return;
  const std::string prefix =
      ReplicaJournalPrefix(config_.journal_prefix, r);
  std::error_code ec;
  // Segments are contiguous from 0, but a previous run may have used more
  // shards than this one — keep deleting past our own shard count until a
  // gap.
  for (std::size_t k = 0;; ++k) {
    const std::string seg = server::ServerRuntime::SegmentPath(prefix, k);
    if (!std::filesystem::remove(seg, ec) && k >= config_.shards_per_replica) {
      break;
    }
  }
}

std::size_t ProviderCluster::AliveCount() const {
  std::size_t n = 0;
  for (const auto& rep : replicas_) {
    if (rep.runtime != nullptr) ++n;
  }
  return n;
}

SpendOutcome ProviderCluster::ClassifyOne(std::uint32_t r,
                                          const rel::LicenseId& id) const {
  SpendOutcome out;
  const std::uint32_t owner = ring_.OwnerOf(id);
  if (!IsAlive(r) || owner != r) {
    // Dead target or stale client view: point at the live owner.
    out.status = core::Status::kWrongReplica;
    out.owner = owner;
    if (config_.obs.registry != nullptr) {
      config_.obs.registry->Add(obs_redirects_);
    }
    return out;
  }
  if (recovering_ && pre_crash_ring_.OwnerOf(id) == dead_) {
    // The id's range moved here in the crash but its spent history has
    // not been replayed yet — admitting it could double-spend. Typed
    // backpressure tells the client to retry, exactly like a full queue.
    out.status = core::Status::kOverloaded;
    out.owner = r;
    if (config_.obs.registry != nullptr) {
      config_.obs.registry->Add(obs_gate_sheds_);
    }
    return out;
  }
  out.status = core::Status::kOk;
  out.owner = r;
  return out;
}

void ProviderCluster::ClassifyBatch(std::uint32_t r,
                                    const std::vector<rel::LicenseId>& ids,
                                    std::vector<SpendOutcome>* out) const {
  out->clear();
  out->reserve(ids.size());
  for (const auto& id : ids) out->push_back(ClassifyOne(r, id));
}

void ProviderCluster::SpendBatchAt(std::uint32_t r,
                                   const std::vector<rel::LicenseId>& ids,
                                   std::vector<SpendOutcome>* out) {
  ClassifyBatch(r, ids, out);
  std::vector<rel::LicenseId> admitted;
  std::vector<std::size_t> admitted_at;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if ((*out)[i].status == core::Status::kOk) {
      admitted.push_back(ids[i]);
      admitted_at.push_back(i);
    }
  }
  if (admitted.empty()) return;
  std::vector<core::Status> statuses;
  replicas_[r].runtime->SpendBatch(admitted, &statuses,
                                   /*shed_on_full=*/false);
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    (*out)[admitted_at[j]].status = statuses[j];
  }
}

SpendOutcome ProviderCluster::SpendOneAt(std::uint32_t r,
                                         const rel::LicenseId& id) {
  std::vector<SpendOutcome> out;
  SpendBatchAt(r, {id}, &out);
  return out.front();
}

void ProviderCluster::Crash(std::uint32_t r, bool tear_journal_tail) {
  if (!IsAlive(r)) {
    throw std::logic_error("provider_cluster: Crash on dead replica");
  }
  if (recovering_) {
    throw std::logic_error(
        "provider_cluster: concurrent failovers not supported");
  }
  if (ring_.ReplicaCount() < 2) {
    throw std::logic_error("provider_cluster: cannot crash the last replica");
  }
  // Destroying the runtime flushes nothing extra: every journal Append
  // already hit the OS when its spend committed. In-memory state dies here.
  replicas_[r].runtime.reset();
  if (tear_journal_tail && !config_.journal_prefix.empty()) {
    TearTail(server::ServerRuntime::SegmentPath(
        ReplicaJournalPrefix(config_.journal_prefix, r), 0));
  }
  pre_crash_ring_ = ring_;
  ring_.RemoveReplica(r);
  recovering_ = true;
  dead_ = r;
  if (config_.obs.registry != nullptr) {
    config_.obs.registry->Add(obs_crashes_);
  }
  if (config_.obs.tracer != nullptr) {
    config_.obs.tracer->Instant("cluster.crash", "replica", r);
  }
}

FailoverStats ProviderCluster::CompleteFailover() {
  if (!recovering_) {
    throw std::logic_error("provider_cluster: CompleteFailover while healthy");
  }
  FailoverStats stats;
  stats.dead_replica = dead_;
  if (!config_.journal_prefix.empty()) {
    const std::string dead_prefix =
        ReplicaJournalPrefix(config_.journal_prefix, dead_);
    // Group the dead replica's records by their NEW owner, then bulk-import
    // per survivor. ImportSpent is idempotent, so records that had already
    // migrated (e.g. an id the survivor spent pre-crash via a duplicate
    // segment) only count as duplicates.
    std::unordered_map<std::uint32_t, std::vector<rel::LicenseId>> by_owner;
    const auto scan = server::ServerRuntime::ForEachJournalRecord(
        dead_prefix, [this, &by_owner](const rel::LicenseId& id) {
          by_owner[ring_.OwnerOf(id)].push_back(id);
        });
    stats.segments = scan.segments;
    stats.records = scan.records;
    stats.torn_tails = scan.torn_tails;
    // Deterministic import order (map iteration order is not).
    for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
      auto it = by_owner.find(r);
      if (it == by_owner.end()) continue;
      const auto imported = replicas_[r].runtime->ImportSpent(it->second);
      stats.imported_fresh += imported.fresh;
      stats.imported_duplicates += imported.duplicates;
    }
  }
  recovering_ = false;
  if (config_.obs.registry != nullptr) {
    obs::Registry* reg = config_.obs.registry;
    reg->Add(obs_failover_records_, stats.records);
    reg->Add(obs_failover_fresh_, stats.imported_fresh);
    reg->Add(obs_failover_duplicates_, stats.imported_duplicates);
  }
  if (config_.obs.tracer != nullptr) {
    config_.obs.tracer->Instant("cluster.failover_complete",
                                "records_replayed", stats.records);
  }
  return stats;
}

std::uint64_t ProviderCluster::JournalRecordCount(std::uint32_t r) const {
  if (config_.journal_prefix.empty()) return 0;
  return server::ServerRuntime::ForEachJournalRecord(
             ReplicaJournalPrefix(config_.journal_prefix, r), nullptr)
      .records;
}

std::uint32_t ProviderCluster::AddReplica() {
  if (recovering_) {
    throw std::logic_error("provider_cluster: AddReplica mid-failover");
  }
  const std::uint32_t r = static_cast<std::uint32_t>(replicas_.size());
  if (config_.fresh_start) RemoveJournalFamily(r);
  replicas_.push_back(Replica{});
  replicas_[r].runtime = MakeRuntime(r);

  // Join migration: the ranges the newcomer takes over already have spent
  // history on the current owners. Admit it to the ring first (so OwnerOf
  // names the post-join owner), then pull every record that moved to r
  // out of the surviving owners' journals. Until the import below
  // finishes, r simply has an incomplete spent set — but no traffic can
  // reach it either, because this whole method runs before the caller
  // routes anything at the new epoch.
  ring_.AddReplica(r);
  if (!config_.journal_prefix.empty()) {
    std::vector<rel::LicenseId> moved;
    for (std::uint32_t peer = 0; peer < r; ++peer) {
      if (!IsAlive(peer)) continue;
      server::ServerRuntime::ForEachJournalRecord(
          ReplicaJournalPrefix(config_.journal_prefix, peer),
          [this, r, &moved](const rel::LicenseId& id) {
            if (ring_.OwnerOf(id) == r) moved.push_back(id);
          });
    }
    if (!moved.empty()) replicas_[r].runtime->ImportSpent(moved);
  }
  if (config_.obs.registry != nullptr) {
    config_.obs.registry->Add(obs_replicas_added_);
  }
  if (config_.obs.tracer != nullptr) {
    config_.obs.tracer->Instant("cluster.replica_join", "replica", r);
  }
  return r;
}

std::size_t ProviderCluster::ReplicaSpentSize(std::uint32_t r) const {
  return IsAlive(r) ? replicas_[r].runtime->SpentSize() : 0;
}

std::size_t ProviderCluster::TotalSpentSize() const {
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    total += ReplicaSpentSize(r);
  }
  return total;
}

}  // namespace cluster
}  // namespace p2drm
