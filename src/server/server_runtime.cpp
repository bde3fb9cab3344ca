#include "server/server_runtime.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace p2drm {
namespace server {

namespace {

/// True when a file exists (readably). AppendLog::Replay cannot
/// distinguish a missing segment from an empty one, and replay must not
/// stop early on an empty segment a wider run created but never wrote.
bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

std::string ServerRuntime::SegmentPath(const std::string& prefix,
                                       std::size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

ServerRuntime::ServerRuntime(const ServerRuntimeConfig& config)
    : config_(config),
      router_(config.shard_count == 0 ? 1 : config.shard_count) {
  std::size_t n = router_.shard_count();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ctx.index = i;
    shards_.push_back(std::move(shard));
  }
  // Replay before the workers exist: the constructor thread is the only
  // one touching shard state, so no synchronization is needed yet.
  if (!config_.journal_path_prefix.empty()) {
    if (FileExists(config_.journal_path_prefix)) {
      throw std::runtime_error(
          "spent journal: a file exists at the bare prefix " +
          config_.journal_path_prefix +
          "; only <prefix>.shard<k> segments are replayed, so its spends "
          "would be forgotten");
    }
    ReplayJournals();
    for (std::size_t i = 0; i < n; ++i) {
      shards_[i]->journal = std::make_unique<store::AppendLog>(
          SegmentPath(config_.journal_path_prefix, i));
      shards_[i]->ctx.journal = shards_[i]->journal.get();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i]->worker = std::thread(&ServerRuntime::WorkerLoop, this,
                                     shards_[i].get());
  }
}

ServerRuntime::~ServerRuntime() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->m);
    shard->stop = true;
    shard->work_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

ServerRuntime::JournalScanStats ServerRuntime::ForEachJournalRecord(
    const std::string& prefix,
    const std::function<void(const rel::LicenseId&)>& fn) {
  JournalScanStats stats;
  auto deliver = [&stats, &fn](const std::vector<std::uint8_t>& record) {
    constexpr std::size_t kIdWidth = sizeof(rel::LicenseId::bytes);
    // A license-id record is a group-committed block of N >= 1 ids packed
    // back to back (AppendMany, docs/storage.md). `records` counts IDS,
    // not blocks, so scan totals are independent of how the writer
    // grouped its commits.
    if (record.empty() || record.size() % kIdWidth != 0) return;
    for (std::size_t off = 0; off < record.size(); off += kIdWidth) {
      ++stats.records;
      if (!fn) continue;
      rel::LicenseId id;
      std::copy(record.begin() + static_cast<std::ptrdiff_t>(off),
                record.begin() + static_cast<std::ptrdiff_t>(off + kIdWidth),
                id.bytes.begin());
      fn(id);
    }
  };
  // Segments are contiguous from 0 (every run creates all of 0..N-1 at
  // startup), so probing until the first missing file recovers arbitrary
  // historic shard counts.
  for (std::size_t i = 0; FileExists(SegmentPath(prefix, i)); ++i) {
    ++stats.segments;
    auto r = store::AppendLog::ReplayWithStats(SegmentPath(prefix, i), deliver);
    if (r.torn_tail) ++stats.torn_tails;
  }
  return stats;
}

void ServerRuntime::ReplayJournals() {
  // Idempotent by construction: FlatIdTable inserts are no-ops on ids
  // already present, so overlapping segments (or a segment replayed
  // twice) rebuild the same set with the same memory footprint. Ids are
  // staged into per-shard buffers and applied through InsertBatch so a
  // multi-million-record replay rides the same prefetching probe loop as
  // live traffic.
  constexpr std::size_t kFlushAt = 4096;
  std::vector<std::vector<rel::LicenseId>> pending(shards_.size());
  std::vector<std::uint8_t> fresh;
  auto flush = [this, &pending, &fresh](std::size_t s) {
    auto& ids = pending[s];
    if (ids.empty()) return;
    fresh.resize(ids.size());
    shards_[s]->ctx.spent.InsertBatch(ids.data(), ids.size(), fresh.data());
    ids.clear();
  };
  ForEachJournalRecord(config_.journal_path_prefix,
                       [this, &pending, &flush](const rel::LicenseId& id) {
                         const std::size_t s = router_.ShardFor(id);
                         pending[s].push_back(id);
                         if (pending[s].size() >= kFlushAt) flush(s);
                       });
  for (std::size_t s = 0; s < pending.size(); ++s) flush(s);
}

void ServerRuntime::JournalFreshIds(ShardContext& ctx,
                                    const std::vector<rel::LicenseId>& ids,
                                    const std::vector<std::uint8_t>& fresh)
    const {
  if (ctx.journal == nullptr) return;
  constexpr std::size_t kIdWidth = sizeof(rel::LicenseId::bytes);
  // Pack the fresh ids into the shard's retained scratch arena and hand
  // the whole group to AppendMany as one CRC'd block.
  auto& blob = ctx.journal_scratch;
  blob.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (fresh[i]) {
      blob.insert(blob.end(), ids[i].bytes.begin(), ids[i].bytes.end());
    }
  }
  if (!blob.empty()) {
    ctx.journal->AppendMany(blob.data(), kIdWidth, blob.size() / kIdWidth);
  }
}

void ServerRuntime::UpdateSpentBytesGauge(ShardContext& ctx) const {
  if (obs_registry_ == nullptr) return;
  const std::size_t now = ctx.spent.MemoryBytes();
  if (now == ctx.spent_bytes_reported) return;
  obs_registry_->GaugeAdd(obs_spent_bytes_,
                          static_cast<std::int64_t>(now) -
                              static_cast<std::int64_t>(
                                  ctx.spent_bytes_reported));
  ctx.spent_bytes_reported = now;
}

ServerRuntime::ImportStats ServerRuntime::ImportSpent(
    const std::vector<rel::LicenseId>& ids) {
  ImportStats stats;
  if (ids.empty()) return stats;
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[router_.ShardFor(ids[i])].push_back(i);
  }
  std::size_t active = 0;
  for (const auto& g : groups) {
    if (!g.empty()) ++active;
  }
  // Per-shard tallies land in disjoint slots; the latch publishes them.
  std::vector<ImportStats> per_shard(shards_.size());
  Latch done(active);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    std::size_t weight = groups[s].size();
    ImportStats* tally = &per_shard[s];
    Submit(
        s,
        [this, &ids, tally, group = std::move(groups[s])](ShardContext& ctx) {
          const std::size_t n = group.size();
          std::vector<rel::LicenseId> local(n);
          for (std::size_t j = 0; j < n; ++j) local[j] = ids[group[j]];
          std::vector<std::uint8_t> fresh(n);
          ctx.spent.InsertBatch(local.data(), n, fresh.data());
          // Only the fresh subset is journaled (idempotency: a replayed
          // segment must not grow the journal), as one group-commit block.
          JournalFreshIds(ctx, local, fresh);
          for (std::size_t j = 0; j < n; ++j) {
            if (fresh[j]) {
              ++tally->fresh;
            } else {
              ++tally->duplicates;
            }
          }
          UpdateSpentBytesGauge(ctx);
        },
        weight, [&done] { done.CountDown(); });
  }
  done.Wait();
  for (const ImportStats& t : per_shard) {
    stats.fresh += t.fresh;
    stats.duplicates += t.duplicates;
  }
  return stats;
}

void ServerRuntime::WorkerLoop(Shard* shard) {
  for (;;) {
    Shard::Queued item;
    {
      std::unique_lock<std::mutex> lock(shard->m);
      shard->work_cv.wait(
          lock, [&] { return shard->stop || !shard->queue.empty(); });
      if (shard->queue.empty()) return;  // stopping with nothing left to do
      item = std::move(shard->queue.front());
      shard->queue.pop_front();
      shard->busy = true;
    }
    // Decrement BEFORE running the task: a task body may release a
    // blocked caller itself, so anything sequenced after task() can race
    // that caller's wake-up. Decrementing here sequences the gauge
    // update before any completion signal, which is what lets a quiesced
    // runtime (every blocking Submit returned) read the gauge as exactly
    // the queued-not-yet-started items — deterministically zero — in the
    // scenario determinism check. The gauge therefore counts queue
    // depth, not queue + in-flight.
    if (obs_registry_ != nullptr) {
      obs_registry_->GaugeAdd(obs_queue_depth_,
                              -static_cast<std::int64_t>(item.weight));
    }
    item.task(shard->ctx);
    {
      std::lock_guard<std::mutex> lock(shard->m);
      shard->busy = false;
      shard->pending_items -= item.weight;
      shard->space_cv.notify_all();
      if (shard->queue.empty()) shard->idle_cv.notify_all();
    }
    // After the room is released: the caller this wakes may submit again
    // at once and must find its own task gone from pending_items.
    if (item.on_done != nullptr) item.on_done();
  }
}

void ServerRuntime::set_observability(obs::Registry* registry,
                                      const std::string& prefix) {
  obs_registry_ = registry;
  if (registry == nullptr) return;
  obs_queue_depth_ = registry->Gauge(prefix + "queue_depth");
  obs_sheds_ = registry->Counter(prefix + "sheds");
  obs_spent_bytes_ = registry->Gauge(prefix + "spent.bytes");
  // Seed the footprint gauge with whatever journal replay already loaded;
  // QuiesceShard both proves the worker is idle and provides the
  // happens-before edge for the worker's later reads of
  // spent_bytes_reported.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto lock = QuiesceShard(i);
    UpdateSpentBytesGauge(shards_[i]->ctx);
  }
}

bool ServerRuntime::TrySubmit(std::size_t shard_index, Task task,
                              std::size_t weight, OnDone on_done) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.m);
  // Shed when the queue already holds work and this submission would
  // push it past the bound; an oversize batch meeting an empty queue is
  // accepted so it cannot be rejected forever.
  if (shard.pending_items > 0 &&
      shard.pending_items + weight > config_.queue_capacity) {
    ++shard.overloads;
    if (obs_registry_ != nullptr) obs_registry_->Add(obs_sheds_);
    return false;
  }
  shard.pending_items += weight;
  shard.high_water = std::max(shard.high_water, shard.pending_items);
  shard.queue.push_back({std::move(task), weight, std::move(on_done)});
  shard.work_cv.notify_one();
  if (obs_registry_ != nullptr) {
    obs_registry_->GaugeAdd(obs_queue_depth_,
                            static_cast<std::int64_t>(weight));
  }
  return true;
}

void ServerRuntime::Submit(std::size_t shard_index, Task task,
                           std::size_t weight, OnDone on_done) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(shard.m);
  shard.space_cv.wait(lock, [&] {
    return shard.pending_items == 0 ||
           shard.pending_items + weight <= config_.queue_capacity;
  });
  shard.pending_items += weight;
  shard.high_water = std::max(shard.high_water, shard.pending_items);
  shard.queue.push_back({std::move(task), weight, std::move(on_done)});
  shard.work_cv.notify_one();
  if (obs_registry_ != nullptr) {
    obs_registry_->GaugeAdd(obs_queue_depth_,
                            static_cast<std::int64_t>(weight));
  }
}

std::unique_lock<std::mutex> ServerRuntime::QuiesceShard(
    std::size_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(shard.m);
  shard.idle_cv.wait(lock,
                     [&] { return shard.queue.empty() && !shard.busy; });
  return lock;
}

void ServerRuntime::Drain() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) QuiesceShard(i);
}

void ServerRuntime::SpendBatch(const std::vector<rel::LicenseId>& ids,
                               std::vector<core::Status>* out,
                               bool shed_on_full) {
  out->assign(ids.size(), core::Status::kOverloaded);
  if (ids.empty()) return;

  // Route once, then hand each shard its whole slice as one task: the
  // queue is touched per shard, not per item, and index order within a
  // shard preserves first-wins semantics for duplicate ids.
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[router_.ShardFor(ids[i])].push_back(i);
  }
  std::size_t active = 0;
  for (const auto& g : groups) {
    if (!g.empty()) ++active;
  }
  Latch done(active);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    std::size_t weight = groups[s].size();
    // The task reads `ids` and writes disjoint slots of `*out`; both
    // outlive it because SpendBatch blocks on the latch below. The whole
    // group goes through one InsertBatch probe pass (applied in index
    // order, so duplicate ids keep first-wins semantics) and one
    // group-committed journal block.
    Task task = [this, &ids, out, group = std::move(groups[s])](
                    ShardContext& ctx) {
      const std::size_t n = group.size();
      std::vector<rel::LicenseId> local(n);
      for (std::size_t j = 0; j < n; ++j) local[j] = ids[group[j]];
      std::vector<std::uint8_t> fresh(n);
      ctx.spent.InsertBatch(local.data(), n, fresh.data());
      JournalFreshIds(ctx, local, fresh);
      for (std::size_t j = 0; j < n; ++j) {
        (*out)[group[j]] =
            fresh[j] ? core::Status::kOk : core::Status::kAlreadySpent;
      }
      ctx.processed += n;
      UpdateSpentBytesGauge(ctx);
    };
    OnDone count_down = [&done] { done.CountDown(); };
    if (shed_on_full) {
      if (!TrySubmit(s, std::move(task), weight, count_down)) {
        done.CountDown();  // shard shed: statuses stay kOverloaded
      }
    } else {
      Submit(s, std::move(task), weight, count_down);
    }
  }
  done.Wait();
}

core::Status ServerRuntime::SpendOne(const rel::LicenseId& id) {
  std::vector<core::Status> out;
  SpendBatch({id}, &out, /*shed_on_full=*/false);
  return out[0];
}

std::size_t ServerRuntime::SpentSize() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto lock = QuiesceShard(i);
    total += shards_[i]->ctx.spent.Size();
  }
  return total;
}

std::size_t ServerRuntime::SpentMemoryBytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto lock = QuiesceShard(i);
    total += shards_[i]->ctx.spent.MemoryBytes();
  }
  return total;
}

std::uint64_t ServerRuntime::Processed() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto lock = QuiesceShard(i);
    total += shards_[i]->ctx.processed;
  }
  return total;
}

std::uint64_t ServerRuntime::Overloads() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->m);
    total += shard->overloads;
  }
  return total;
}

std::size_t ServerRuntime::ShardSpentSize(std::size_t shard) const {
  auto lock = QuiesceShard(shard);
  return shards_[shard]->ctx.spent.Size();
}

std::uint64_t ServerRuntime::ShardProcessed(std::size_t shard) const {
  auto lock = QuiesceShard(shard);
  return shards_[shard]->ctx.processed;
}

std::size_t ServerRuntime::QueueHighWater(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->m);
  return shards_[shard]->high_water;
}

}  // namespace server
}  // namespace p2drm
