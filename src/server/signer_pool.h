#ifndef P2DRM_SERVER_SIGNER_POOL_H_
#define P2DRM_SERVER_SIGNER_POOL_H_

/// \file signer_pool.h
/// \brief Dedicated work-stealing thread pool for the RSA stages.
///
/// Issuance is per-item RSA private-key work with no shard affinity: it
/// touches no shard-owned state, so it does not run on the spend shards,
/// where it would couple signing latency to spend-queue depth and size
/// the signing capacity to the shard count. SignerPool is instead a
/// small pool sized independently of the shards, with one
/// bounded-latency deque per worker, and steal-from-back balancing so a
/// worker that drains its own slice finishes someone else's instead of
/// idling. The verify stage's public-key exponentiations
/// (BatchVerifier) run on the same pool, one batch stage at a time.
///
/// Scheduling contract:
///  * `Run(count, work)` is one blocking call: it deals item k to deque
///    k mod W, wakes at most min(count - 1, W) sleeping workers (the
///    caller always takes one item itself, so a one-item Run wakes
///    nobody), then the calling thread joins — it takes not-yet-started
///    items of THAT batch from the back of the deques and runs them on a
///    per-call joiner context (index worker_count()) — and finally waits
///    for the items already running on workers. It returns once every
///    item of the batch has executed. Concurrent callers' batches
///    interleave freely — fairness across batches is by deal order, not
///    FIFO — and a caller never runs another caller's items.
///  * A pool of zero workers is the inline executor: its Run runs every
///    item on the caller in ascending k, deals nothing and wakes nobody.
///    A caller therefore always has a pool, and "no pool" is W = 0, not
///    a separate code path.
///  * A worker pops its own deque from the FRONT (oldest first, keeps
///    per-batch index order roughly ascending per worker) and steals
///    from the BACK of a victim's deque, scanning victims starting at
///    its right-hand neighbour. Back-stealing takes the work the owner
///    would reach last, which minimizes owner/thief contention.
///  * A joiner pop counts as a dequeue (pending count, queue_depth) but
///    not as a steal; its signing time accrues onto JoinerSimClockUs().
///    The joiner is therefore one more signer, so a pool of cores - 1
///    workers keeps every core signing, and a Run completes even when
///    every worker is busy elsewhere.
///  * Work items must be thread-safe, must not throw (a throwing item
///    terminates the process, whichever thread runs it), and write only
///    disjoint per-k state — the same contract as
///    BatchPipeline::Plan::issue. The pool guarantees nothing about
///    WHICH worker runs an item, so issuance determinism must come from
///    dispatch-side DRBG forks, never from worker identity.
///  * The destructor must not race a Run call; it wakes every worker and
///    joins them.
///
/// Observability (all optional, off when no registry is wired):
/// `<prefix>queue_depth` gauge counts queued-not-yet-started items and
/// is exact at quiesce; `<prefix>steals` counts successful steals.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace p2drm {
namespace server {

/// Per-worker context handed to every job the worker runs. The counters
/// are relaxed atomics so harnesses may read them while other batches
/// are still in flight; for exact values quiesce first (every Run call
/// returned).
struct SignerContext {
  /// Worker index in [0, worker_count); worker_count for the joiner
  /// context a Run caller signs on.
  std::size_t index = 0;

  /// Accrues measured signing time onto this worker's simulated clock,
  /// from which benches derive the pool's issue makespan.
  void AccrueSimClockUs(std::uint64_t us) {
    sim_clock_us.fetch_add(us, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> sim_clock_us{0};  ///< accrued signing time
  std::atomic<std::uint64_t> executed{0};      ///< jobs run by this worker
};

/// Work-stealing signer pool. All public methods are safe to call from
/// any thread except set_observability, which must precede the first
/// Run.
class SignerPool {
 public:
  /// One unit of work: item k of its batch (one issue group of the batch
  /// pipeline, or one verify group of BatchVerifier), run on some worker
  /// or the joining caller.
  using Job = std::function<void(SignerContext& ctx, std::size_t k)>;

  /// Spawns \p worker_count workers; 0 makes the inline executor, whose
  /// Run runs every item on the caller.
  explicit SignerPool(std::size_t worker_count);
  ~SignerPool();

  SignerPool(const SignerPool&) = delete;
  SignerPool& operator=(const SignerPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Runs k = 0..count-1 of \p work: deals the items to the per-worker
  /// deques (k mod W), wakes at most min(count - 1, W) workers, signs the
  /// not-yet-started items on the calling thread (joiner context, index
  /// worker_count()) and waits for the rest. With zero workers every
  /// item runs on the caller, ascending k. Returns once every item has executed, which establishes
  /// happens-before with each item's effects, so per-k results are safe
  /// to read afterwards without further synchronization.
  void Run(std::size_t count, const Job& work);

  /// Total successful steals across all workers (relaxed; exact at
  /// quiesce).
  std::uint64_t Steals() const;

  /// Worker i's accrued simulated signing clock (relaxed; exact once
  /// every Run call has returned).
  std::uint64_t WorkerSimClockUs(std::size_t i) const {
    return workers_[i]->ctx.sim_clock_us.load(std::memory_order_relaxed);
  }

  /// Signing time accrued by Run callers on their joiner contexts
  /// (relaxed; exact once those Run calls have returned). Worker
  /// clocks plus this total is the pool's whole signing time.
  std::uint64_t JoinerSimClockUs() const {
    return joiner_sim_clock_us_.load(std::memory_order_relaxed);
  }

  /// Wires `<prefix>queue_depth` (gauge) and `<prefix>steals` (counter).
  /// Call before the first Run; pass nullptr to detach.
  void set_observability(obs::Registry* registry, const std::string& prefix);

 private:
  struct Batch;  // completion state of one Run call, on its stack frame

  struct Item {
    Batch* batch = nullptr;
    std::size_t k = 0;
  };

  struct Worker {
    std::mutex m;                 ///< guards dq only
    std::deque<Item> dq;
    std::atomic<std::uint64_t> steals{0};
    SignerContext ctx;
    std::thread thread;
  };

  void WorkerLoop(std::size_t index);
  bool TryRunOne(std::size_t self_index);
  /// Publishes, deals and wakes for \p count items of \p batch (W > 0).
  void Deal(Batch* batch, std::size_t count);
  /// Pops the back-most not-yet-started item of \p batch, scanning the
  /// deques round-robin from \p *cursor (advanced past the hit).
  bool TryPopOwn(const Batch* batch, std::size_t* cursor, Item* item);
  /// Dequeue bookkeeping shared by worker and joiner pops.
  void OnDequeued();
  /// Runs \p item on \p ctx and completes it on its batch.
  static void RunItem(Item& item, SignerContext& ctx) noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;

  // Sleep/wake protocol: pending_ counts dealt-but-not-yet-popped items
  // and is incremented BEFORE the items are dealt, so a worker that
  // wakes early at worst spins through one empty scan while the dealer
  // finishes. Workers block on sleep_cv_ when pending_ == 0 and exit
  // only when stop_ && pending_ == 0. A Run notifies one sleeper per
  // item it can hand a worker (count - 1, at most W), not all of them.
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> joiner_sim_clock_us_{0};

  obs::Registry* registry_ = nullptr;
  obs::Registry::Id gauge_queue_ = 0;
  obs::Registry::Id ctr_steals_ = 0;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_SIGNER_POOL_H_
