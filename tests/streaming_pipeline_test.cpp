// Back-to-back batches on one provider: redeem, purchase and exchange
// batches issued in turn through the signer pool must be bit-identical
// to inline issuance under a fixed seed, each flow's DRBG fork drawn in
// call order; a redemption batch shed at the spend stage leaves no
// trace, so its identical retry succeeds.

#include <cstddef>
#include <cstdint>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/content_provider.h"
#include "core/metrics.h"
#include "server/server_runtime.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace core {
namespace {

using Stack = sim::ProviderStack;

// The batches the mixed-flow test runs. Fixture creation is the same
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
  // In-batch duplicate: the detected-double-redemption leg too.
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

TEST(IssuancePipeline, MixedFlowsBitIdenticalToSerial) {
  // Same seed, same call sequence of redeem, purchase, exchange and
  // redeem batches on one provider. The serial stack signs inline; the
  // pooled stack signs on a 3-worker pool plus the joining caller, so
  // every flow's fork draw must keep the shared DRBG stream in order.
  Stack serial("mixed-flows-identical", 2);
  Stack pooled("mixed-flows-identical", 2, 512, 4096,
               /*signer_pool_size=*/3);
  ASSERT_NE(pooled.cp.Pool(), nullptr);
  Fixtures fs = MakeFixtures(serial);
  Fixtures fp = MakeFixtures(pooled);

  auto want_r1 = serial.cp.RedeemAnonymousBatch(fs.redeem1);
  auto want_p = serial.cp.PurchaseBatch(fs.purchase);
  auto want_e = serial.cp.ExchangeBatch(fs.exchange);
  auto want_r2 = serial.cp.RedeemAnonymousBatch(fs.redeem2);

  ExpectSameIssued(pooled.cp.RedeemAnonymousBatch(fp.redeem1), want_r1,
                   "redeem1");
  ExpectSameIssued(pooled.cp.PurchaseBatch(fp.purchase), want_p, "purchase");
  ExpectSameIssued(pooled.cp.ExchangeBatch(fp.exchange), want_e, "exchange");
  ExpectSameIssued(pooled.cp.RedeemAnonymousBatch(fp.redeem2), want_r2,
                   "redeem2");
  EXPECT_EQ(want_r1[3].status, Status::kAlreadySpent);
  EXPECT_EQ(serial.cp.LicensesIssued(), pooled.cp.LicensesIssued());
}

TEST(IssuancePipeline, RedeemShedAtSpendStageLeavesNoTrace) {
  // One shard with a one-item queue and a 2-signer pool: while the shard
  // worker is parked on a gate task, every SpendBatch submission is shed.
  Stack stack("redeem-shed", 1, 512, /*queue_capacity=*/1,
              /*signer_pool_size=*/2);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> ok_items, shed_items;
  for (int i = 0; i < 2; ++i) {
    ok_items.push_back({stack.NewBearer(giver), taker->cert});
    shed_items.push_back({stack.NewBearer(giver), taker->cert});
  }
  for (const auto& r : stack.cp.RedeemAnonymousBatch(ok_items)) {
    EXPECT_EQ(r.status, Status::kOk);
  }
  std::size_t spent_before = stack.cp.SpentSetSize();
  std::uint64_t issued_before = stack.cp.LicensesIssued();
  OpCounters ops_before = AggregateOps();

  server::ServerRuntime* rt = stack.cp.Runtime();
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  rt->Submit(0, [gate](server::ShardContext&) { gate.wait(); });
  auto shed = stack.cp.RedeemAnonymousBatch(shed_items);
  release.set_value();
  rt->Drain();

  // Typed shed status, no spend recorded, nothing signed — not even the
  // transcript a detected double redemption would get.
  for (const auto& r : shed) EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before);
  EXPECT_EQ(stack.cp.LicensesIssued(), issued_before);
  EXPECT_EQ((AggregateOps() - ops_before).sign, 0u);
  for (const auto& item : shed_items) {
    EXPECT_FALSE(
        stack.cp.TranscriptFor(item.anonymous_license.id).has_value());
  }

  // No trace means the identical retry succeeds once the queue has room.
  for (const auto& r : stack.cp.RedeemAnonymousBatch(shed_items)) {
    EXPECT_EQ(r.status, Status::kOk);
  }
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before + shed_items.size());
}

}  // namespace
}  // namespace core
}  // namespace p2drm
