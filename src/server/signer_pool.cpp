#include "server/signer_pool.h"

#include <algorithm>
#include <iterator>

namespace p2drm {
namespace server {

// Completion state for one Run call, on that call's stack frame: Run
// cannot return before `remaining` reaches 0, so every item's raw
// pointer outlives its use. `remaining` is guarded by `m`; the last item
// notifies under the lock, so the waiter cannot see 0, return and
// destroy the batch before that notify has finished.
struct SignerPool::Batch {
  const Job* work = nullptr;
  std::mutex m;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
};

SignerPool::SignerPool(std::size_t worker_count) {
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->ctx.index = i;
  }
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

SignerPool::~SignerPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void SignerPool::Run(std::size_t count, const Job& work) {
  if (count == 0) return;
  Batch batch;
  batch.work = &work;
  batch.remaining = count;
  SignerContext joiner;
  joiner.index = workers_.size();

  if (workers_.empty()) {
    // Zero workers: the caller runs every item in ascending k; nothing is
    // dealt and nobody is woken.
    for (std::size_t k = 0; k < count; ++k) {
      Item item{&batch, k};
      RunItem(item, joiner);
    }
  } else {
    Deal(&batch, count);
    // The caller signs its own batch's not-yet-started items instead of
    // sleeping, so it never idles while its work queues behind other
    // batches, and the batch completes even if every worker is busy.
    std::size_t cursor = 0;
    Item item;
    while (TryPopOwn(&batch, &cursor, &item)) {
      OnDequeued();
      RunItem(item, joiner);
    }
  }
  joiner_sim_clock_us_.fetch_add(
      joiner.sim_clock_us.load(std::memory_order_relaxed),
      std::memory_order_relaxed);

  // What the workers already started: wait for it.
  std::unique_lock<std::mutex> lk(batch.m);
  batch.done_cv.wait(lk, [&batch] { return batch.remaining == 0; });
}

void SignerPool::Deal(Batch* batch, std::size_t count) {
  // Publish the item count BEFORE dealing: a worker that wakes on a
  // notify below and finds its deque still empty rechecks the predicate
  // (pending_ > 0 holds) and rescans — a bounded spin that closes once
  // the deal loop finishes, never a lost wakeup.
  pending_.fetch_add(count, std::memory_order_release);
  const std::size_t n = workers_.size();
  for (std::size_t k = 0; k < count; ++k) {
    Worker& w = *workers_[k % n];
    std::lock_guard<std::mutex> lk(w.m);
    w.dq.push_back(Item{batch, k});
  }
  if (registry_ != nullptr) {
    registry_->GaugeAdd(gauge_queue_, static_cast<std::int64_t>(count));
  }
  {
    // Empty critical section: pairs with the waiter's predicate check so
    // a notify cannot land between "predicate false" and "blocked".
    std::lock_guard<std::mutex> lk(sleep_m_);
  }
  // The joiner takes at least one item, so count - 1 workers are the
  // most this batch can use. Completion never depends on a wake: the
  // joiner runs whatever no woken worker has started.
  const std::size_t wake = std::min(count - 1, n);
  for (std::size_t i = 0; i < wake; ++i) sleep_cv_.notify_one();
}

bool SignerPool::TryPopOwn(const Batch* batch, std::size_t* cursor,
                           Item* item) {
  // Round-robin over the deques so the joiner drains every worker's
  // slice evenly, taking each slice from the back (the end its owner
  // reaches last) and skipping other batches' items.
  const std::size_t n = workers_.size();
  for (std::size_t d = 0; d < n; ++d) {
    Worker& w = *workers_[(*cursor + d) % n];
    std::lock_guard<std::mutex> lk(w.m);
    for (auto it = w.dq.rbegin(); it != w.dq.rend(); ++it) {
      if (it->batch != batch) continue;
      *item = std::move(*it);
      w.dq.erase(std::next(it).base());
      *cursor = (*cursor + d + 1) % n;
      return true;
    }
  }
  return false;
}

void SignerPool::OnDequeued() {
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  // Gauge decrements at dequeue, before the work runs — queue_depth is
  // "queued, not yet started", deterministically zero at quiesce.
  if (registry_ != nullptr) registry_->GaugeAdd(gauge_queue_, -1);
}

// noexcept: a job that throws ends the process on whichever thread runs
// it. On the joiner, unwinding out of Run would otherwise destroy the
// batch while its items on the workers still reference it.
void SignerPool::RunItem(Item& item, SignerContext& ctx) noexcept {
  (*item.batch->work)(ctx, item.k);
  ctx.executed.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(item.batch->m);
  if (--item.batch->remaining == 0) item.batch->done_cv.notify_all();
}

std::uint64_t SignerPool::Steals() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) {
    total += w->steals.load(std::memory_order_relaxed);
  }
  return total;
}

void SignerPool::set_observability(obs::Registry* registry,
                                   const std::string& prefix) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  gauge_queue_ = registry_->Gauge(prefix + "queue_depth");
  ctr_steals_ = registry_->Counter(prefix + "steals");
}

bool SignerPool::TryRunOne(std::size_t self_index) {
  Worker& self = *workers_[self_index];
  Item item;
  bool got = false;
  bool stolen = false;
  {
    std::lock_guard<std::mutex> lk(self.m);
    if (!self.dq.empty()) {
      item = std::move(self.dq.front());
      self.dq.pop_front();
      got = true;
    }
  }
  if (!got) {
    const std::size_t n = workers_.size();
    for (std::size_t d = 1; d < n && !got; ++d) {
      Worker& victim = *workers_[(self_index + d) % n];
      std::lock_guard<std::mutex> lk(victim.m);
      if (!victim.dq.empty()) {
        item = std::move(victim.dq.back());  // steal-from-back
        victim.dq.pop_back();
        got = true;
        stolen = true;
      }
    }
  }
  if (!got) return false;

  OnDequeued();
  if (stolen) {
    self.steals.fetch_add(1, std::memory_order_relaxed);
    if (registry_ != nullptr) registry_->Add(ctr_steals_);
  }
  RunItem(item, self.ctx);
  return true;
}

void SignerPool::WorkerLoop(std::size_t index) {
  for (;;) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lk(sleep_m_);
    sleep_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    // Exit only once the deques are provably drained: stop_ set and no
    // dealt item unpopped.
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace server
}  // namespace p2drm
