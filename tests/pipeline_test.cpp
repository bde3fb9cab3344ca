// Three-stage issuance pipeline: parallel issuance on the signer pool
// must be bit-identical to inline issuance under a fixed DRBG seed;
// PurchaseBatch must match Purchase() item for item with amortized
// verification; the per-thread metrics shards must aggregate
// exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/content_provider.h"
#include "core/metrics.h"
#include "crypto/drbg.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace core {
namespace {

// One full deterministic provider stack per test; two stacks built from
// the same seed and driven through the same call sequence hold
// bit-identical keys and licenses, which is what lets the tests compare
// inline signing (no signer pool, one shard) against pooled signing.
using Stack = sim::ProviderStack;

// -- parallel vs serial issuance ---------------------------------------------

TEST(IssuancePipeline, ParallelIssuanceBitIdenticalToSerial) {
  // Same seed, same call sequence; only redeem_shards and
  // signer_pool_size differ. The batch includes an in-batch duplicate so
  // the double-redemption (transcript signing without issuance) leg is
  // covered too.
  Stack serial("pipeline-identical", 0);
  Stack sharded("pipeline-identical", 4, 512, 4096, /*signer_pool_size=*/3);

  constexpr int kBearers = 6;
  std::vector<rel::License> bearers_serial, bearers_sharded;
  Pseudonym* giver_serial = serial.NewPseudonym();
  Pseudonym* giver_sharded = sharded.NewPseudonym();
  for (int i = 0; i < kBearers; ++i) {
    bearers_serial.push_back(serial.NewBearer(giver_serial));
    bearers_sharded.push_back(sharded.NewBearer(giver_sharded));
    // Pre-redemption state is already bit-identical.
    ASSERT_EQ(bearers_serial[i].Serialize(), bearers_sharded[i].Serialize());
  }
  Pseudonym* taker_serial = serial.NewPseudonym();
  Pseudonym* taker_sharded = sharded.NewPseudonym();
  ASSERT_EQ(taker_serial->cert.Serialize(), taker_sharded->cert.Serialize());

  std::vector<ContentProvider::RedeemItem> items_serial, items_sharded;
  for (int i = 0; i < kBearers; ++i) {
    items_serial.push_back({bearers_serial[i], taker_serial->cert});
    items_sharded.push_back({bearers_sharded[i], taker_sharded->cert});
  }
  // Duplicate of item 0: detected double redemption inside the batch.
  items_serial.push_back(items_serial[0]);
  items_sharded.push_back(items_sharded[0]);

  auto out_serial = serial.cp.RedeemAnonymousBatch(items_serial);
  auto out_sharded = sharded.cp.RedeemAnonymousBatch(items_sharded);
  ASSERT_EQ(out_serial.size(), out_sharded.size());
  for (std::size_t i = 0; i < out_serial.size(); ++i) {
    EXPECT_EQ(out_serial[i].status, out_sharded[i].status) << "item " << i;
    EXPECT_EQ(out_serial[i].license.Serialize(),
              out_sharded[i].license.Serialize())
        << "item " << i;
  }
  EXPECT_EQ(out_serial[kBearers].status, Status::kAlreadySpent);

  // Receipts (first-seen transcripts) are bit-identical as well.
  for (int i = 0; i < kBearers; ++i) {
    auto t_serial = serial.cp.TranscriptFor(bearers_serial[i].id);
    auto t_sharded = sharded.cp.TranscriptFor(bearers_sharded[i].id);
    ASSERT_TRUE(t_serial.has_value());
    ASSERT_TRUE(t_sharded.has_value());
    EXPECT_EQ(t_serial->Serialize(), t_sharded->Serialize()) << "item " << i;
  }
  // So is the fraud evidence from the duplicate.
  auto ev_serial = serial.cp.TakeFraudEvidence();
  auto ev_sharded = sharded.cp.TakeFraudEvidence();
  ASSERT_EQ(ev_serial.size(), 1u);
  ASSERT_EQ(ev_sharded.size(), 1u);
  EXPECT_EQ(ev_serial[0].Serialize(), ev_sharded[0].Serialize());

  EXPECT_EQ(serial.cp.LicensesIssued(), sharded.cp.LicensesIssued());
  // And the single-item path is a batch of one: the next bearer redeems
  // identically through RedeemAnonymous on both stacks.
  rel::License one_serial = serial.NewBearer(giver_serial);
  rel::License one_sharded = sharded.NewBearer(giver_sharded);
  auto r_serial = serial.cp.RedeemAnonymous(one_serial, taker_serial->cert);
  auto r_sharded = sharded.cp.RedeemAnonymous(one_sharded, taker_sharded->cert);
  EXPECT_EQ(r_serial.status, Status::kOk);
  EXPECT_EQ(r_serial.license.Serialize(), r_sharded.license.Serialize());
}

TEST(IssuancePipeline, IssueStageRunsOnSignerPool) {
  Stack stack("pipeline-workers", 3, 512, 4096, /*signer_pool_size=*/3);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back({stack.NewBearer(giver), taker->cert});
  }
  auto out = stack.cp.RedeemAnonymousBatch(items);
  for (const auto& r : out) EXPECT_EQ(r.status, Status::kOk);

  // The signing work accrued on the pool's sim clocks (measured wall time
  // of SignRedemption): the workers' and the joining dispatch thread's.
  const server::SignerPool* pool = stack.cp.Pool();
  ASSERT_NE(pool, nullptr);
  std::uint64_t issue_us_on_pool = pool->JoinerSimClockUs();
  for (std::size_t w = 0; w < pool->worker_count(); ++w) {
    issue_us_on_pool += pool->WorkerSimClockUs(w);
  }
  EXPECT_GT(issue_us_on_pool, 0u);

  auto timings = stack.cp.LastBatchTimings();
  EXPECT_EQ(timings.items, items.size());
  EXPECT_GT(timings.verify_us, 0.0);
  EXPECT_GT(timings.issue_us, 0.0);
}

// -- batched purchases -------------------------------------------------------

TEST(PurchasePipeline, BatchMatchesSingleItemSemantics) {
  Stack stack("purchase-batch", 2);
  Pseudonym* buyer = stack.NewPseudonym();

  std::vector<ContentProvider::PurchaseItem> items;
  items.push_back({buyer->cert, stack.content, stack.Pay(30)});   // ok
  items.push_back({buyer->cert, stack.content, stack.Pay(20)});   // wrong price
  items.push_back({buyer->cert, 999, stack.Pay(30)});             // unknown id
  items.push_back({buyer->cert, stack.content, items[0].payment});  // reused coins
  items.push_back({buyer->cert, stack.content, stack.Pay(30)});   // ok

  auto before = stack.cp.BatchVerifyStats();
  auto out = stack.cp.PurchaseBatch(items);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].status, Status::kOk);
  EXPECT_EQ(out[1].status, Status::kWrongPrice);
  EXPECT_EQ(out[2].status, Status::kUnknownContent);
  EXPECT_EQ(out[3].status, Status::kDoubleSpend);
  EXPECT_EQ(out[4].status, Status::kOk);

  // Issued licenses are genuine, bound, and carry a wrapped content key.
  for (std::size_t i : {0u, 4u}) {
    EXPECT_TRUE(crypto::RsaVerifyFdh(stack.cp.PublicKey(),
                                     out[i].license.CanonicalBytes(),
                                     out[i].license.issuer_signature));
    EXPECT_EQ(out[i].license.bound_key, buyer->cert.KeyId());
    EXPECT_FALSE(out[i].license.wrapped_content_key.empty());
  }

  // One distinct certificate: one full verification for five items.
  auto delta = stack.cp.BatchVerifyStats() - before;
  EXPECT_EQ(delta.full_verifies, 1u);
  EXPECT_EQ(delta.cert_cache_hits, 4u);

  // A revoked buyer is rejected before any money moves.
  stack.cp.Revoke(buyer->cert.KeyId());
  auto coins = stack.Pay(30);
  auto rejected = stack.cp.PurchaseBatch({{buyer->cert, stack.content, coins}});
  EXPECT_EQ(rejected[0].status, Status::kRevoked);
  // The coins were not deposited: a later honest purchase can spend them.
  Pseudonym* honest = stack.NewPseudonym();
  EXPECT_EQ(stack.cp.Purchase(honest->cert, stack.content, coins).status,
            Status::kOk);
}

// -- sharded metrics ---------------------------------------------------------

TEST(ShardedMetrics, ThreadIncrementsAggregateExactly) {
  OpCounters before = AggregateOps();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        GlobalOps().sign += 1;
        if (i % 2 == 0) GlobalOps().verify += 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Shards survive their threads: the aggregate is exact after the join.
  OpCounters delta = AggregateOps() - before;
  EXPECT_EQ(delta.sign, kThreads * kPerThread);
  EXPECT_EQ(delta.verify, kThreads * kPerThread / 2);
}

TEST(ShardedMetrics, WriterThreadSeesItsOwnShard) {
  OpCountersShard& mine = GlobalOps();
  std::uint64_t sign_before = mine.Snapshot().sign;
  std::thread other([] { GlobalOps().sign += 1000; });
  other.join();
  // Another thread's increments land on its shard, not this one's...
  EXPECT_EQ(mine.Snapshot().sign, sign_before);
  // ...and GlobalOps() is stable per thread.
  EXPECT_EQ(&GlobalOps(), &mine);
}

}  // namespace
}  // namespace core
}  // namespace p2drm
