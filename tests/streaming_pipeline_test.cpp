// Streaming batch pipeline: the Stream* entry points overlap batch B+1's
// verify with batch B's signing, yet must stay bit-identical to the
// synchronous batch calls under a fixed seed — commits in submit order,
// each commit tail in index order, DRBG forks drawn dispatch-side. Also
// covered: synchronous and streamed calls mixed on one provider, a batch
// shed at the mutate stage leaving no trace while other streamed batches
// are in flight, teardown with a batch in flight, and the window makespan
// under an injected tick source.

#include <cstddef>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/content_provider.h"
#include "server/server_runtime.h"
#include "server/signer_pool.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace core {
namespace {

using Stack = sim::ProviderStack;

// The batches both tests below stream. Fixture creation is the same
// call sequence on every stack of one seed, so every key, coin and
// license going in is bit-identical across them.
struct Fixtures {
  std::vector<ContentProvider::RedeemItem> redeem1, redeem2;
  std::vector<ContentProvider::PurchaseItem> purchase;
  std::vector<ContentProvider::ExchangeItem> exchange;
};

Fixtures MakeFixtures(Stack& s) {
  Fixtures f;
  Pseudonym* giver = s.NewPseudonym();
  Pseudonym* taker = s.NewPseudonym();
  for (int i = 0; i < 3; ++i) {
    f.redeem1.push_back({s.NewBearer(giver), taker->cert});
  }
  // In-batch duplicate: the detected-double-redemption leg must stream
  // identically too.
  f.redeem1.push_back(f.redeem1[0]);
  Pseudonym* buyer = s.NewPseudonym();
  for (int i = 0; i < 2; ++i) {
    f.purchase.push_back({buyer->cert, s.content, s.Pay(30)});
  }
  Pseudonym* owner = s.NewPseudonym();
  for (int i = 0; i < 2; ++i) {
    rel::License lic = s.NewBoundLicense(owner);
    f.exchange.push_back({lic, s.PossessionSig(owner, lic)});
  }
  for (int i = 0; i < 2; ++i) {
    f.redeem2.push_back({s.NewBearer(giver), taker->cert});
  }
  return f;
}

void ExpectSameIssued(const std::vector<ContentProvider::PurchaseResult>& got,
                      const std::vector<ContentProvider::PurchaseResult>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].status, want[i].status) << what << " " << i;
    EXPECT_EQ(got[i].license.Serialize(), want[i].license.Serialize())
        << what << " " << i;
  }
}

void ExpectSameIssued(const std::vector<ContentProvider::ExchangeResult>& got,
                      const std::vector<ContentProvider::ExchangeResult>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].status, want[i].status) << what << " " << i;
    EXPECT_EQ(got[i].anonymous_license.Serialize(),
              want[i].anonymous_license.Serialize())
        << what << " " << i;
  }
}

// -- streaming vs serial: bit-identical mixed flows --------------------------

TEST(StreamingPipeline, MixedFlowsBitIdenticalToSerial) {
  // Same seed, same call sequence. The serial stack runs the synchronous
  // batch entry points; the streaming stack runs the same batches through
  // Stream* with a 2-batch window over a 3-signer pool, so two batches
  // are genuinely in flight while later ones are being verified.
  Stack serial("streaming-identical", 2);
  Stack streaming("streaming-identical", 2, 512, 4096,
                  /*signer_pool_size=*/3, /*max_batches_in_flight=*/2);
  ASSERT_NE(streaming.cp.Pool(), nullptr);
  Fixtures fs = MakeFixtures(serial);
  Fixtures ff = MakeFixtures(streaming);

  auto out_r1 = serial.cp.RedeemAnonymousBatch(fs.redeem1);
  auto out_p = serial.cp.PurchaseBatch(fs.purchase);
  auto out_e = serial.cp.ExchangeBatch(fs.exchange);
  auto out_r2 = serial.cp.RedeemAnonymousBatch(fs.redeem2);

  std::optional<std::vector<ContentProvider::PurchaseResult>> got_r1, got_p,
      got_r2;
  std::optional<std::vector<ContentProvider::ExchangeResult>> got_e;
  std::vector<std::string> commit_order;
  streaming.cp.StreamRedeemBatch(std::move(ff.redeem1), [&](auto out) {
    commit_order.push_back("r1");
    got_r1 = std::move(out);
  });
  streaming.cp.StreamPurchaseBatch(std::move(ff.purchase), [&](auto out) {
    commit_order.push_back("p");
    got_p = std::move(out);
  });
  streaming.cp.StreamExchangeBatch(std::move(ff.exchange), [&](auto out) {
    commit_order.push_back("e");
    got_e = std::move(out);
  });
  streaming.cp.StreamRedeemBatch(std::move(ff.redeem2), [&](auto out) {
    commit_order.push_back("r2");
    got_r2 = std::move(out);
  });
  // A 2-batch window with four submissions means the first two batches
  // committed while later ones were streaming in — real overlap, not a
  // disguised serial run.
  EXPECT_EQ(streaming.cp.StreamingInFlight(), 2u);
  ASSERT_TRUE(got_r1.has_value());
  ASSERT_TRUE(got_p.has_value());
  EXPECT_FALSE(got_e.has_value());

  streaming.cp.FlushStreaming();
  EXPECT_EQ(streaming.cp.StreamingInFlight(), 0u);
  ASSERT_TRUE(got_e.has_value());
  ASSERT_TRUE(got_r2.has_value());
  EXPECT_EQ(commit_order,
            (std::vector<std::string>{"r1", "p", "e", "r2"}));

  ExpectSameIssued(*got_r1, out_r1, "redeem1");
  EXPECT_EQ((*got_r1)[3].status, Status::kAlreadySpent);
  ExpectSameIssued(*got_p, out_p, "purchase");
  ExpectSameIssued(*got_e, out_e, "exchange");
  ExpectSameIssued(*got_r2, out_r2, "redeem2");
  EXPECT_EQ(serial.cp.LicensesIssued(), streaming.cp.LicensesIssued());
}

// -- synchronous and streamed calls on one provider --------------------------

TEST(StreamingPipeline, SyncCallCommitsEarlierStreamedBatchesFirst) {
  // One pipeline serves both kinds of call: a synchronous batch commits
  // the streamed batches still in flight, in submit order, before its
  // own commit — and the bytes match an all-synchronous run.
  Stack serial("streaming-mixed-sync", 2);
  Stack mixed("streaming-mixed-sync", 2, 512, 4096,
              /*signer_pool_size=*/3, /*max_batches_in_flight=*/2);
  Fixtures fs = MakeFixtures(serial);
  Fixtures fm = MakeFixtures(mixed);

  auto out_r1 = serial.cp.RedeemAnonymousBatch(fs.redeem1);
  auto out_r2 = serial.cp.RedeemAnonymousBatch(fs.redeem2);
  auto out_p = serial.cp.PurchaseBatch(fs.purchase);
  auto out_e = serial.cp.ExchangeBatch(fs.exchange);

  std::optional<std::vector<ContentProvider::PurchaseResult>> got_r1, got_r2;
  std::optional<std::vector<ContentProvider::ExchangeResult>> got_e;
  std::vector<std::string> commit_order;
  mixed.cp.StreamRedeemBatch(std::move(fm.redeem1), [&](auto out) {
    commit_order.push_back("r1");
    got_r1 = std::move(out);
  });
  mixed.cp.StreamRedeemBatch(std::move(fm.redeem2), [&](auto out) {
    commit_order.push_back("r2");
    got_r2 = std::move(out);
  });
  EXPECT_EQ(mixed.cp.StreamingInFlight(), 2u);
  auto got_p = mixed.cp.PurchaseBatch(fm.purchase);
  commit_order.push_back("p");
  // Both streamed callbacks fired before PurchaseBatch returned.
  EXPECT_TRUE(got_r1.has_value());
  EXPECT_TRUE(got_r2.has_value());
  EXPECT_EQ(mixed.cp.StreamingInFlight(), 0u);
  mixed.cp.StreamExchangeBatch(std::move(fm.exchange), [&](auto out) {
    commit_order.push_back("e");
    got_e = std::move(out);
  });
  mixed.cp.FlushStreaming();
  EXPECT_EQ(commit_order,
            (std::vector<std::string>{"r1", "r2", "p", "e"}));

  ASSERT_TRUE(got_r1.has_value());
  ASSERT_TRUE(got_r2.has_value());
  ASSERT_TRUE(got_e.has_value());
  ExpectSameIssued(*got_r1, out_r1, "redeem1");
  ExpectSameIssued(*got_r2, out_r2, "redeem2");
  ExpectSameIssued(got_p, out_p, "purchase");
  ExpectSameIssued(*got_e, out_e, "exchange");
  EXPECT_EQ(serial.cp.LicensesIssued(), mixed.cp.LicensesIssued());
}

// -- shed at mutate leaves no trace while other batches are in flight --------

TEST(StreamingPipeline, ShedAtMutateLeavesNoTraceUnderOverlap) {
  // One shard with a one-item queue; 2-signer pool, window of 4 so a
  // healthy batch stays in flight while the next one is shed.
  Stack stack("streaming-shed", 1, 512, /*queue_capacity=*/1,
              /*signer_pool_size=*/2, /*max_batches_in_flight=*/4);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> ok_items, shed_items;
  for (int i = 0; i < 2; ++i) {
    ok_items.push_back({stack.NewBearer(giver), taker->cert});
    shed_items.push_back({stack.NewBearer(giver), taker->cert});
  }

  std::optional<std::vector<ContentProvider::PurchaseResult>> got_ok, got_shed;
  stack.cp.StreamRedeemBatch(ok_items,
                             [&](auto out) { got_ok = std::move(out); });
  EXPECT_EQ(stack.cp.StreamingInFlight(), 1u);
  // The healthy batch's spends are already recorded (mutate runs inline
  // at Stream time); its licenses are still being signed.
  std::size_t spent_before = stack.cp.SpentSetSize();
  std::uint64_t issued_before = stack.cp.LicensesIssued();

  // Park the only spend shard: every mutate submission is now shed.
  server::ServerRuntime* rt = stack.cp.Runtime();
  ASSERT_NE(rt, nullptr);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  rt->Submit(0, [gate](server::ShardContext&) { gate.wait(); });

  stack.cp.StreamRedeemBatch(shed_items,
                             [&](auto out) { got_shed = std::move(out); });
  release.set_value();
  rt->Drain();
  stack.cp.FlushStreaming();

  ASSERT_TRUE(got_ok.has_value());
  ASSERT_TRUE(got_shed.has_value());
  for (const auto& r : *got_ok) EXPECT_EQ(r.status, Status::kOk);
  // Typed shed status, no spend recorded, nothing signed for the shed
  // batch — only the healthy batch's licenses were issued.
  for (const auto& r : *got_shed) EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before);
  EXPECT_EQ(stack.cp.LicensesIssued(), issued_before + ok_items.size());

  // No trace means the identical retry succeeds once the queue has room.
  auto retried = stack.cp.RedeemAnonymousBatch(shed_items);
  for (const auto& r : retried) EXPECT_EQ(r.status, Status::kOk);
}

// -- teardown with a batch in flight -----------------------------------------

TEST(StreamingPipeline, DestroyingTheProviderCommitsStreamedBatches) {
  // The provider's destructor commits what is still in flight, before the
  // state the commit tail writes is gone (under ASan a commit into
  // destroyed members aborts the test).
  std::optional<std::vector<ContentProvider::PurchaseResult>> got;
  {
    Stack stack("streaming-teardown", /*redeem_shards=*/0);
    ASSERT_EQ(stack.cp.Pool(), nullptr);
    Pseudonym* giver = stack.NewPseudonym();
    Pseudonym* taker = stack.NewPseudonym();
    std::vector<ContentProvider::RedeemItem> items;
    items.push_back({stack.NewBearer(giver), taker->cert});
    stack.cp.StreamRedeemBatch(std::move(items),
                               [&](auto out) { got = std::move(out); });
    EXPECT_EQ(stack.cp.StreamingInFlight(), 1u);
  }
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].status, Status::kOk);
}

// -- injected tick pins the streaming window's makespan ----------------------

TEST(StreamingPipeline, InjectedTickPinsStreamingMakespan) {
  // No shards, no pool: the dispatch thread runs every stage, so the
  // deterministic tick source pins every number. Each stage spans one
  // 7us tick and the window makespan runs from the verify start to the
  // issue end — 5 ticks, the synchronous batch's 35us.
  Stack stack("streaming-timings", /*redeem_shards=*/0, 512);
  std::uint64_t tick = 0;
  stack.cp.set_time_source([&tick]() {
    tick += 7;
    return tick;
  });

  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> items;
  items.push_back({stack.NewBearer(giver), taker->cert});
  items.push_back({stack.NewBearer(giver), taker->cert});

  std::optional<std::vector<ContentProvider::PurchaseResult>> got;
  stack.cp.StreamRedeemBatch(std::move(items),
                             [&](auto out) { got = std::move(out); });
  auto timings = stack.cp.FlushStreaming();
  ASSERT_TRUE(got.has_value());
  for (const auto& r : *got) ASSERT_EQ(r.status, Status::kOk);

  EXPECT_EQ(timings.items, 2u);
  EXPECT_EQ(timings.verify_us, 7.0);
  EXPECT_EQ(timings.spend_us, 7.0);
  EXPECT_EQ(timings.issue_us, 7.0);
  EXPECT_EQ(timings.makespan_us, 35.0);
  // FlushStreaming also refreshes LastBatchTimings.
  EXPECT_EQ(stack.cp.LastBatchTimings().makespan_us, 35.0);
}

}  // namespace
}  // namespace core
}  // namespace p2drm
