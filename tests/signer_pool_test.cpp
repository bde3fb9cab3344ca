// Tests for server::SignerPool: the dedicated work-stealing pool the
// batch pipeline deals the issue stage to. Covers completion across pool
// sizes, the deterministic steal path (a blocked owner's work finishes on
// a thief), drain-then-exit shutdown with tickets outstanding, the
// joining Join caller (it signs its own batch, never another caller's,
// and its clock conserves total signing time), a streamed pipeline batch
// committed on the joiner, and the queue-depth/steal metrics. The
// shutdown and steal tests also run under TSan in CI — the pool's
// sleep/wake and per-deque locking contracts are only trusted because
// the race detector agrees.

#include "server/signer_pool.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "server/batch_pipeline.h"

namespace p2drm {
namespace {

// SubmitBatch + Join: the joining wait every pipeline commit uses.
void RunJoined(server::SignerPool& pool, std::size_t count,
               server::SignerPool::Job job) {
  server::SignerPool::Ticket ticket = pool.SubmitBatch(count, std::move(job));
  pool.Join(ticket);
}

TEST(SignerPool, JoinExecutesEveryItemAcrossPoolSizes) {
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    server::SignerPool pool(workers);
    ASSERT_EQ(pool.worker_count(), workers);
    const std::size_t n = 101;  // not a multiple of any pool size above
    // Disjoint per-k writes — the Plan::issue contract; Join establishes
    // the happens-before the plain reads below rely on.
    std::vector<int> hits(n, 0);
    RunJoined(pool, n, [&hits](server::SignerContext&, std::size_t k) {
      hits[k] += 1;
    });
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(hits[k], 1) << "workers=" << workers << " k=" << k;
    }
  }
}

TEST(SignerPool, TicketWaitJoinsExactlyItsBatch) {
  server::SignerPool pool(4);
  std::atomic<std::size_t> a{0};
  std::atomic<std::size_t> b{0};
  server::SignerPool::Ticket ta = pool.SubmitBatch(
      64, [&a](server::SignerContext&, std::size_t) { ++a; });
  server::SignerPool::Ticket tb = pool.SubmitBatch(
      32, [&b](server::SignerContext&, std::size_t) { ++b; });
  tb.Wait();
  EXPECT_EQ(b.load(), 32u);
  ta.Wait();
  EXPECT_EQ(a.load(), 64u);
  // Waiting again on a completed ticket is a no-op, not a hang.
  ta.Wait();
}

TEST(SignerPool, BlockedOwnersWorkFinishesOnAThief) {
  server::SignerPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());

  // Batch A: one item; whichever worker picks it up (the owner, or a
  // thief that got there first) parks on the gate. B is submitted only
  // once A's item has recorded its worker: submitted earlier, the free
  // worker could run both B items and then pick up A itself.
  std::atomic<std::size_t> parked{99};
  std::promise<void> started;
  std::future<void> a_running = started.get_future();
  server::SignerPool::Ticket ta = pool.SubmitBatch(
      1, [gate, &parked, &started](server::SignerContext& ctx, std::size_t) {
        parked.store(ctx.index);
        started.set_value();
        gate.wait();
      });
  a_running.wait();

  // Batch B: one item per worker deque. The parked worker's item can
  // only complete by a steal, so Wait() returning while the gate is
  // still closed proves the free worker stole it.
  std::vector<std::size_t> ran_on(2, 99);
  server::SignerPool::Ticket tb = pool.SubmitBatch(
      2, [&ran_on](server::SignerContext& ctx, std::size_t k) {
        ran_on[k] = ctx.index;
      });
  tb.Wait();
  std::size_t free_worker = 1 - parked.load();
  EXPECT_EQ(ran_on[0], free_worker);
  EXPECT_EQ(ran_on[1], free_worker);
  EXPECT_GE(pool.Steals(), 1u);

  release.set_value();
  ta.Wait();
}

TEST(SignerPool, DestructorDrainsOutstandingTickets) {
  // Shutdown with queued work and NO Wait: the destructor must not exit
  // a worker until every dealt item has run (drain-then-exit), and a
  // ticket held past destruction must observe the completed batch.
  std::atomic<std::size_t> ran{0};
  server::SignerPool::Ticket ticket;
  {
    server::SignerPool pool(3);
    for (int round = 0; round < 8; ++round) {
      ticket = pool.SubmitBatch(
          64, [&ran](server::SignerContext&, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
    }
  }
  EXPECT_EQ(ran.load(), 8u * 64u);
  ticket.Wait();  // completed during drain; must return immediately
}

TEST(SignerPool, ShutdownRacesStealsCleanly) {
  // Steal-during-shutdown stress (the TSan target): tiny uneven batches
  // keep thieves active while the destructor runs. Every item must run
  // exactly once, every time.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> ran{0};
    {
      server::SignerPool pool(4);
      for (std::size_t b = 1; b <= 5; ++b) {
        pool.SubmitBatch(b * 7, [&ran](server::SignerContext&, std::size_t) {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    EXPECT_EQ(ran.load(), 7u + 14u + 21u + 28u + 35u);
  }
}

TEST(SignerPool, SimClockIsConservedAcrossWorkersAndJoiner) {
  // The Join caller signs too, so the conserved quantity is worker
  // clocks + joiner clock, however the items were split between them.
  server::SignerPool pool(2);
  RunJoined(pool, 10, [](server::SignerContext& ctx, std::size_t) {
    ctx.AccrueSimClockUs(5);
  });
  std::uint64_t total = pool.WorkerSimClockUs(0) + pool.WorkerSimClockUs(1) +
                        pool.JoinerSimClockUs();
  EXPECT_EQ(total, 50u);
  EXPECT_LE(pool.MaxWorkerSimClockUs(), 50u);
}

// Parks every worker of \p pool on a gate (one item each: a parked
// worker cannot take a second), runs \p call on a helper thread, and runs
// \p while_parked if \p call returned within the deadline. Returns
// whether it did. The gate opens before the helper is joined either way,
// so a call that needs a worker fails the test instead of hanging it.
bool CallWhileWorkersParked(server::SignerPool& pool,
                            const std::function<void()>& call,
                            const std::function<void()>& while_parked) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  const std::size_t w = pool.worker_count();
  std::atomic<std::size_t> parked{0};
  server::SignerPool::Ticket park = pool.SubmitBatch(
      w, [gate, &parked](server::SignerContext&, std::size_t) {
        parked.fetch_add(1);
        gate.wait();
      });
  while (parked.load() < w) std::this_thread::yield();

  std::future<void> done = std::async(std::launch::async, call);
  const bool returned =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  if (returned) while_parked();
  release.set_value();
  done.wait();
  park.Wait();
  return returned;
}

TEST(SignerPool, JoinCompletesOnTheJoinerWhileWorkersAreParked) {
  server::SignerPool pool(2);
  // No worker is free, so Join returning at all proves the caller ran
  // every item — and each on the joiner context, index worker_count().
  std::vector<std::size_t> ran_on(16, 99);
  EXPECT_TRUE(CallWhileWorkersParked(
      pool,
      [&] {
        RunJoined(pool, ran_on.size(),
                  [&ran_on](server::SignerContext& ctx, std::size_t k) {
                    ran_on[k] = ctx.index;
                    ctx.AccrueSimClockUs(3);
                  });
      },
      [] {}))
      << "Join needed a worker: the caller did not join";
  for (std::size_t k = 0; k < ran_on.size(); ++k) {
    EXPECT_EQ(ran_on[k], pool.worker_count()) << "k=" << k;
  }
  EXPECT_EQ(pool.JoinerSimClockUs(), 16u * 3u);
  EXPECT_EQ(pool.Steals(), 0u) << "joiner pops are not steals";
}

TEST(SignerPool, ConcurrentJoinCallersRunOnlyTheirOwnItems) {
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
        RunJoined(pool, kItems, [&, c](server::SignerContext& ctx,
                                       std::size_t k) {
          hits[c][k] += 1;
          if (ctx.index == pool.worker_count()) {
            joined_on[c][k] = std::this_thread::get_id();
          }
        });
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

TEST(SignerPool, QueueDepthIsZeroAfterJoinerHelped) {
  obs::Registry registry;
  server::SignerPool pool(2);
  pool.set_observability(&registry, "pool.");
  auto queue_depth = [&registry] {
    for (const auto& m : registry.Aggregate()) {
      if (m.name == "pool.queue_depth") return m.gauge;
    }
    ADD_FAILURE() << "pool.queue_depth not exported";
    return std::int64_t{-1};
  };
  // Every item below is popped by the joiner; each pop must leave the
  // gauge exactly where a worker pop would, checked before any worker
  // is free to pop.
  EXPECT_TRUE(CallWhileWorkersParked(
      pool,
      [&] { RunJoined(pool, 8, [](server::SignerContext&, std::size_t) {}); },
      [&queue_depth] { EXPECT_EQ(queue_depth(), 0); }))
      << "Join needed a worker: the caller did not join";
  EXPECT_EQ(queue_depth(), 0);
}

TEST(SignerPool, StreamedBatchCommitsOnTheJoinerWhileWorkersAreParked) {
  // A pipeline batch left in flight (window of 4) is dealt to parked
  // workers; its commit at Flush must sign every item on the committing
  // thread instead of sleeping on a Ticket::Wait that never returns.
  server::SignerPool pool(2);
  server::BatchPipeline::Config cfg;
  cfg.pool = &pool;
  cfg.max_batches_in_flight = 4;
  server::BatchPipeline pipeline(cfg);
  std::vector<std::thread::id> ran_on(8);
  std::thread::id committer;
  server::BatchPipeline::Plan plan;
  plan.item_count = ran_on.size();
  plan.issue = [&ran_on](std::size_t k, std::size_t, core::Status) {
    ran_on[k] = std::this_thread::get_id();
  };
  EXPECT_TRUE(CallWhileWorkersParked(
      pool,
      [&] {
        committer = std::this_thread::get_id();
        pipeline.Submit(plan);
        EXPECT_EQ(pipeline.InFlight(), 1u);
        pipeline.Flush();
      },
      [] {}))
      << "the commit needed a worker: it did not join";
  for (std::size_t k = 0; k < ran_on.size(); ++k) {
    EXPECT_EQ(ran_on[k], committer) << "k=" << k;
  }
}

TEST(SignerPool, ObservabilityGaugeZeroAtQuiesceAndStealsExported) {
  obs::Registry registry;
  server::SignerPool pool(2);
  pool.set_observability(&registry, "pool.");
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  server::SignerPool::Ticket park = pool.SubmitBatch(
      1, [gate](server::SignerContext&, std::size_t) { gate.wait(); });
  server::SignerPool::Ticket work = pool.SubmitBatch(
      8, [](server::SignerContext&, std::size_t) {});
  work.Wait();
  release.set_value();
  park.Wait();

  bool saw_gauge = false;
  bool saw_steals = false;
  for (const auto& m : registry.Aggregate()) {
    if (m.name == "pool.queue_depth") {
      saw_gauge = true;
      EXPECT_EQ(m.gauge, 0) << "queue depth must be exact at quiesce";
    }
    if (m.name == "pool.steals") {
      saw_steals = true;
      EXPECT_EQ(m.counter, pool.Steals());
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_steals);
}

}  // namespace
}  // namespace p2drm
