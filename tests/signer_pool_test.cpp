// Tests for server::SignerPool: the dedicated work-stealing pool the
// batch pipeline hands the verify and issue stages to. Covers completion
// across pool sizes, the zero-worker pool (every item on the caller),
// concurrent one- and two-item Runs that wake fewer workers than sleep,
// a rendezvous that needs every worker and the caller running at once,
// the deterministic steal path (a blocked owner's work finishes on a
// thief), shutdown racing idle thieves, the joining Run caller (it signs
// its own batch, never another caller's, and its clock conserves total
// signing time), and the queue-depth/steal metrics. The whole file
// also runs under TSan in CI — the pool's sleep/wake and per-deque
// locking contracts are only trusted because the race detector agrees.

#include "server/signer_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"

namespace p2drm {
namespace {

TEST(SignerPool, RunExecutesEveryItemAcrossPoolSizes) {
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    server::SignerPool pool(workers);
    ASSERT_EQ(pool.worker_count(), workers);
    const std::size_t n = 101;  // not a multiple of any pool size above
    // Disjoint per-k writes — the Plan::issue contract; Run establishes
    // the happens-before the plain reads below rely on.
    std::vector<int> hits(n, 0);
    pool.Run(n, [&hits](server::SignerContext&, std::size_t k) {
      hits[k] += 1;
    });
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(hits[k], 1) << "workers=" << workers << " k=" << k;
    }
  }
}

TEST(SignerPool, ZeroWorkerPoolRunsEveryItemOnTheCaller) {
  // The inline executor: no thread, every item on the caller in
  // ascending k, on the joiner context (index 0), whose clock accrues.
  server::SignerPool pool(0);
  ASSERT_EQ(pool.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.Run(5, [&](server::SignerContext& ctx, std::size_t k) {
    EXPECT_EQ(ctx.index, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ctx.AccrueSimClockUs(2);
    order.push_back(k);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.JoinerSimClockUs(), 10u);
  EXPECT_EQ(pool.Steals(), 0u);
  pool.Run(0, [](server::SignerContext&, std::size_t) {
    ADD_FAILURE() << "an empty Run ran an item";
  });
}

TEST(SignerPool, ConcurrentSmallRunsWakeOnlyWhatTheyUse) {
  // A Run of one item wakes no worker and a Run of two wakes one, so the
  // pool's wake path runs with fewer notifies than sleepers. Eight
  // callers mixing both sizes for thousands of rounds must still run
  // every item exactly once and return (TSan checks the handoff).
  server::SignerPool pool(3);
  constexpr std::size_t kCallers = 8;
  constexpr int kRounds = 2000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(2, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t count = (round + c) % 2 + 1;
        pool.Run(count, [&, c](server::SignerContext&, std::size_t k) {
          hits[c][k] += 1;
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(hits[c][0], kRounds) << "caller " << c;
    EXPECT_EQ(hits[c][1], kRounds / 2) << "caller " << c;
  }
}

TEST(SignerPool, RendezvousRunsEveryWorkerAndTheCallerAtOnce) {
  // W+1 items, each waiting at a latch until all W+1 have arrived: the
  // latch opens only if all W workers and the calling thread each hold
  // an item at the same moment. The waits block rather than spin, so
  // this holds even when the OS time-slices every thread on one core. A
  // pool whose workers never run, or that serializes jobs behind one
  // lock, leaves the items to time out at the deadline instead.
  for (std::size_t w = 1; w <= 4; ++w) {
    server::SignerPool pool(w);
    std::mutex m;
    std::condition_variable cv;
    std::size_t arrived = 0;  // guarded by m
    std::vector<std::size_t> ran_on(w + 1, 99);
    std::vector<char> met(w + 1, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    pool.Run(w + 1, [&](server::SignerContext& ctx, std::size_t k) {
      ran_on[k] = ctx.index;
      std::unique_lock<std::mutex> lk(m);
      ++arrived;
      cv.notify_all();
      met[k] = cv.wait_until(lk, deadline, [&] { return arrived == w + 1; });
    });
    for (std::size_t k = 0; k <= w; ++k) {
      EXPECT_TRUE(met[k]) << "workers=" << w << " k=" << k
                          << ": the signers never ran all at once";
    }
    // One item on each worker and one on the caller's joiner context.
    std::vector<std::size_t> every_signer(w + 1);
    std::iota(every_signer.begin(), every_signer.end(), 0);
    std::sort(ran_on.begin(), ran_on.end());
    EXPECT_EQ(ran_on, every_signer) << "workers=" << w;
  }
}

// Parks exactly one worker of \p pool until destruction: a helper thread
// runs a two-item batch in which the first item a worker takes parks on
// a gate, and the other item (a second worker's, or the helper's own
// joiner item) returns once that worker is parked.
class OneWorkerParked {
 public:
  explicit OneWorkerParked(server::SignerPool* pool) {
    helper_ = std::async(std::launch::async, [this, pool] {
      pool->Run(2, [this, pool](server::SignerContext& ctx, std::size_t) {
        if (ctx.index < pool->worker_count() && !claimed_.exchange(true)) {
          parked_.store(ctx.index);
          gate_.wait();
        } else {
          while (parked_.load() == kNone) std::this_thread::yield();
        }
      });
    });
    while (parked_.load() == kNone) std::this_thread::yield();
  }
  ~OneWorkerParked() {
    release_.set_value();
    helper_.wait();
  }
  OneWorkerParked(const OneWorkerParked&) = delete;
  OneWorkerParked& operator=(const OneWorkerParked&) = delete;

  std::size_t index() const { return parked_.load(); }

 private:
  static constexpr std::size_t kNone = 99;
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future()};
  std::atomic<bool> claimed_{false};
  std::atomic<std::size_t> parked_{kNone};
  std::future<void> helper_;
};

// Runs a four-item batch on a two-worker \p pool while one worker is
// parked, and returns which signer ran each item; \p parked receives the
// parked worker's index. The caller's joiner item waits until the
// workers have run the other three, so the caller signs at most one
// item, and the parked owner's two items can only finish on the free
// worker through steals.
std::vector<std::size_t> RunBesideAParkedWorker(server::SignerPool& pool,
                                                std::size_t* parked) {
  OneWorkerParked one(&pool);
  *parked = one.index();
  std::vector<std::size_t> ran_on(4, 99);
  std::atomic<std::size_t> on_workers{0};
  pool.Run(ran_on.size(), [&](server::SignerContext& ctx, std::size_t k) {
    ran_on[k] = ctx.index;
    if (ctx.index == pool.worker_count()) {
      while (on_workers.load() < ran_on.size() - 1) std::this_thread::yield();
    } else {
      on_workers.fetch_add(1);
    }
  });
  return ran_on;
}

TEST(SignerPool, BlockedOwnersWorkFinishesOnAThief) {
  server::SignerPool pool(2);
  std::size_t parked = 99;
  std::vector<std::size_t> ran_on = RunBesideAParkedWorker(pool, &parked);
  ASSERT_LT(parked, 2u);
  const std::size_t free_worker = 1 - parked;
  std::size_t on_joiner = 0;
  for (std::size_t k = 0; k < ran_on.size(); ++k) {
    EXPECT_NE(ran_on[k], parked) << "k=" << k;
    if (ran_on[k] == pool.worker_count()) {
      ++on_joiner;
    } else {
      EXPECT_EQ(ran_on[k], free_worker) << "k=" << k;
    }
  }
  EXPECT_LE(on_joiner, 1u);
  EXPECT_GE(pool.Steals(), 1u);
}

TEST(SignerPool, ShutdownRacesStealsCleanly) {
  // Steal-during-shutdown stress: tiny uneven batches from concurrent
  // callers keep thieves scanning right up to the destructor. Every item
  // must run exactly once, every time.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> ran{0};
    {
      server::SignerPool pool(4);
      std::vector<std::thread> callers;
      for (std::size_t b = 1; b <= 5; ++b) {
        callers.emplace_back([&pool, &ran, b] {
          pool.Run(b * 7, [&ran](server::SignerContext&, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
      for (auto& t : callers) t.join();
    }
    EXPECT_EQ(ran.load(), 7u + 14u + 21u + 28u + 35u);
  }
}

TEST(SignerPool, SimClockIsConservedAcrossWorkersAndJoiner) {
  // The Run caller signs too, so the conserved quantity is worker
  // clocks + joiner clock, however the items were split between them.
  server::SignerPool pool(2);
  pool.Run(10, [](server::SignerContext& ctx, std::size_t) {
    ctx.AccrueSimClockUs(5);
  });
  std::uint64_t total = pool.WorkerSimClockUs(0) + pool.WorkerSimClockUs(1) +
                        pool.JoinerSimClockUs();
  EXPECT_EQ(total, 50u);
  EXPECT_LE(std::max(pool.WorkerSimClockUs(0), pool.WorkerSimClockUs(1)),
            50u);
}

// Parks every worker of \p pool on a gate, runs \p call on a helper
// thread, and runs \p while_parked if \p call returned within the
// deadline. Returns whether it did. The parking batch has W+1 items and
// runs on its own helper thread: a parked thread cannot take a second
// item, so W+1 parked items means every worker (and that helper) holds
// one. The gate opens before the helpers are joined either way, so a
// call that needs a worker fails the test instead of hanging it.
bool CallWhileWorkersParked(server::SignerPool& pool,
                            const std::function<void()>& call,
                            const std::function<void()>& while_parked) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  const std::size_t w = pool.worker_count();
  std::atomic<std::size_t> parked{0};
  std::future<void> park = std::async(std::launch::async, [&pool, gate,
                                                           &parked, w] {
    pool.Run(w + 1, [gate, &parked](server::SignerContext&, std::size_t) {
      parked.fetch_add(1);
      gate.wait();
    });
  });
  while (parked.load() < w + 1) std::this_thread::yield();

  std::future<void> done = std::async(std::launch::async, call);
  const bool returned =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  if (returned) while_parked();
  release.set_value();
  done.wait();
  park.wait();
  return returned;
}

TEST(SignerPool, RunCompletesOnTheJoinerWhileWorkersAreParked) {
  server::SignerPool pool(2);
  // No worker is free, so Run returning at all proves the caller ran
  // every item — and each on the joiner context, index worker_count().
  const std::uint64_t joiner_before = pool.JoinerSimClockUs();
  std::vector<std::size_t> ran_on(16, 99);
  EXPECT_TRUE(CallWhileWorkersParked(
      pool,
      [&] {
        pool.Run(ran_on.size(),
                 [&ran_on](server::SignerContext& ctx, std::size_t k) {
                   ran_on[k] = ctx.index;
                   ctx.AccrueSimClockUs(3);
                 });
      },
      [] {}))
      << "Run needed a worker: the caller did not join";
  for (std::size_t k = 0; k < ran_on.size(); ++k) {
    EXPECT_EQ(ran_on[k], pool.worker_count()) << "k=" << k;
  }
  EXPECT_EQ(pool.JoinerSimClockUs() - joiner_before, 16u * 3u);
  EXPECT_EQ(pool.Steals(), 0u) << "joiner pops are not steals";
}

TEST(SignerPool, ConcurrentRunCallersRunOnlyTheirOwnItems) {
  server::SignerPool pool(2);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kItems = 64;
  // Per caller, per item: how often it ran, and on which thread when it
  // ran on a joiner context. Disjoint per-(caller, k) writes.
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kItems, 0));
  std::vector<std::vector<std::thread::id>> joined_on(
      kCallers, std::vector<std::thread::id>(kItems));
  std::vector<std::thread::id> caller_ids(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      caller_ids[c] = std::this_thread::get_id();
      for (int round = 0; round < 10; ++round) {
        pool.Run(kItems, [&, c](server::SignerContext& ctx, std::size_t k) {
          hits[c][k] += 1;
          if (ctx.index == pool.worker_count()) {
            joined_on[c][k] = std::this_thread::get_id();
          }
        });
        // Run returns only once its whole batch ran, whatever the other
        // callers' batches are doing.
        for (std::size_t k = 0; k < kItems; ++k) {
          EXPECT_EQ(hits[c][k], round + 1) << "caller=" << c << " k=" << k;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t k = 0; k < kItems; ++k) {
      EXPECT_EQ(hits[c][k], 10) << "caller=" << c << " k=" << k;
      if (joined_on[c][k] != std::thread::id()) {
        EXPECT_EQ(joined_on[c][k], caller_ids[c])
            << "caller " << c << "'s item " << k
            << " ran on another caller's joiner";
      }
    }
  }
}

std::int64_t QueueDepth(const obs::Registry& registry) {
  for (const auto& m : registry.Aggregate()) {
    if (m.name == "pool.queue_depth") return m.gauge;
  }
  ADD_FAILURE() << "pool.queue_depth not exported";
  return -1;
}

TEST(SignerPool, QueueDepthIsZeroAfterJoinerHelped) {
  obs::Registry registry;
  server::SignerPool pool(2);
  pool.set_observability(&registry, "pool.");
  // The W+1 parking items are popped by then, so every item below is
  // popped by the joiner; each pop must leave the gauge exactly where a
  // worker pop would, checked before any worker is free to pop.
  EXPECT_TRUE(CallWhileWorkersParked(
      pool,
      [&] { pool.Run(8, [](server::SignerContext&, std::size_t) {}); },
      [&registry] { EXPECT_EQ(QueueDepth(registry), 0); }))
      << "Run needed a worker: the caller did not join";
  EXPECT_EQ(QueueDepth(registry), 0);
}

TEST(SignerPool, ObservabilityGaugeZeroAtQuiesceAndStealsExported) {
  obs::Registry registry;
  server::SignerPool pool(2);
  pool.set_observability(&registry, "pool.");
  std::size_t parked = 99;
  RunBesideAParkedWorker(pool, &parked);

  bool saw_steals = false;
  EXPECT_EQ(QueueDepth(registry), 0) << "queue depth must be exact at quiesce";
  for (const auto& m : registry.Aggregate()) {
    if (m.name == "pool.steals") {
      saw_steals = true;
      EXPECT_EQ(m.counter, pool.Steals());
      EXPECT_GE(m.counter, 1u);
    }
  }
  EXPECT_TRUE(saw_steals);
}

}  // namespace
}  // namespace p2drm
