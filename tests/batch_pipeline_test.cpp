// Generic batch pipeline (ISSUE 4): the shared server::BatchPipeline
// stage machinery, the exchange and deposit batch flows built on it, and
// the client-side overload retry loop.
//
// Pinned properties:
//  * stage contract — verify -> mutate -> issue -> commit, kOverloaded
//    shed possible at the mutate stage ONLY, shed items skip issue and
//    commit entirely;
//  * determinism — parallel ExchangeBatch is bit-identical to serial
//    under a fixed DRBG seed (fork-drawing rule);
//  * deposit idempotency — one credit per coin serial, within a batch,
//    across batches, and across the single/batched paths;
//  * client retry — UserAgent re-batches only the shed indices, honors
//    retry_after_ms (capped), and stops at the attempt budget.

#include <gtest/gtest.h>

#include <chrono>
#include <algorithm>
#include <future>
#include <mutex>
#include <regex>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/content_provider.h"
#include "core/metrics.h"
#include "core/system.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "server/batch_pipeline.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace core {
namespace {

using Stack = sim::ProviderStack;

// -- pipeline stage contract -------------------------------------------------

// Replays \p tracer's begin/end events, failing on an end that does not
// close the innermost open span; returns the span names in begin order.
std::vector<std::string> NestedSpans(const obs::Tracer& tracer) {
  std::string json;
  bool first = true;
  tracer.AppendChromeTraceEvents(&json, 0, "test", &first);
  const std::regex event("\"name\":\"([^\"]+)\",\"ph\":\"([BE])\"");
  std::vector<std::string> open, begun;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), event);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    if ((*it)[2] == "B") {
      open.push_back(name);
      begun.push_back(name);
    } else if (open.empty() || open.back() != name) {
      ADD_FAILURE() << "span " << name << " ends out of nesting order";
    } else {
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty());
  return begun;
}

TEST(BatchPipelineStages, ShedsAtMutateOnlyAndSkipsShedItems) {
  server::BatchPipeline::Plan plan;
  plan.item_count = 5;
  std::vector<Status> final_status(5, Status::kOk);
  std::vector<std::size_t> forked, issued, committed, rejected;

  // Item 4 fails verification; items 0..3 survive.
  plan.verify = [&] {
    final_status[4] = Status::kBadSignature;
    return std::vector<std::size_t>{0, 1, 2, 3};
  };
  // Item 1 is shed; item 2 is a detected duplicate that still proceeds.
  plan.mutate = [&](const std::vector<std::size_t>& eligible) {
    EXPECT_EQ(eligible, (std::vector<std::size_t>{0, 1, 2, 3}));
    return std::vector<Status>{Status::kOk, Status::kOverloaded,
                               Status::kAlreadySpent, Status::kOk};
  };
  plan.proceed = [](Status s) { return s == Status::kAlreadySpent; };
  plan.begin_issue = [&](std::size_t n) { EXPECT_EQ(n, 3u); };
  plan.draw_fork = [&](std::size_t k, std::size_t i) {
    EXPECT_EQ(k, forked.size());  // ascending k, dispatch-side
    forked.push_back(i);
  };
  plan.issue = [&](const server::IssueRange& range) {
    for (std::size_t k = range.begin; k < range.end; ++k) {
      EXPECT_NE(range.status(k), Status::kOverloaded);
      issued.push_back(range.item(k));
    }
  };
  plan.commit = [&](std::size_t k, std::size_t i, Status) {
    (void)k;
    committed.push_back(i);
  };
  plan.reject = [&](std::size_t i, Status s) {
    rejected.push_back(i);
    final_status[i] = s;
  };

  obs::Tracer tracer;
  server::PipelineObs pobs;
  pobs.tracer = &tracer;
  server::SignerPool inline_pool(0);
  server::BatchPipeline pipeline(
      server::BatchPipeline::Config{&inline_pool, nullptr});
  auto t = pipeline.Run(plan, &pobs);

  // The three stage spans open and close in stage order.
  EXPECT_EQ(NestedSpans(tracer),
            (std::vector<std::string>{"pipeline.verify", "pipeline.mutate",
                                      "pipeline.issue"}));
  // Fork draw, issue (zero workers: the dispatch thread) and commit all saw
  // exactly the live items, in index order; the shed item touched none
  // of them.
  std::vector<std::size_t> live{0, 2, 3};
  EXPECT_EQ(forked, live);
  EXPECT_EQ(issued, live);
  EXPECT_EQ(committed, live);
  EXPECT_EQ(rejected, (std::vector<std::size_t>{1}));
  EXPECT_EQ(final_status[1], Status::kOverloaded);
  EXPECT_EQ(t.items, 5u);
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.committed, 3u);
}

TEST(BatchPipelineStages, OverloadedNeverProceedsEvenIfFlowSaysSo) {
  server::BatchPipeline::Plan plan;
  plan.item_count = 1;
  bool issued = false, rejected = false;
  plan.mutate = [&](const std::vector<std::size_t>&) {
    return std::vector<Status>{Status::kOverloaded};
  };
  plan.proceed = [](Status) { return true; };  // hostile flow
  plan.issue = [&](const server::IssueRange&) { issued = true; };
  plan.reject = [&](std::size_t, Status s) {
    rejected = true;
    EXPECT_EQ(s, Status::kOverloaded);
  };
  server::SignerPool inline_pool(0);
  server::BatchPipeline pipeline(
      server::BatchPipeline::Config{&inline_pool, nullptr});
  auto t = pipeline.Run(plan);
  EXPECT_FALSE(issued);
  EXPECT_TRUE(rejected);
  EXPECT_EQ(t.shed, 1u);
}

TEST(BatchPipelineStages, IssueGroupSizeGivesEverySignerAGroupFirst) {
  // 32 items on 3 workers plus the joiner: four full 8-item passes.
  EXPECT_EQ(server::IssueGroupSize(32, 4), 8u);
  EXPECT_EQ(server::IssueGroupSize(64, 4), 8u);  // capped at one pass
  EXPECT_EQ(server::IssueGroupSize(12, 4), 3u);
  EXPECT_EQ(server::IssueGroupSize(1, 4), 1u);   // a one-item purchase
  EXPECT_EQ(server::IssueGroupSize(5, 1), 5u);   // zero workers: one signer
  EXPECT_EQ(server::IssueGroupSize(20, 1), server::kMaxIssueGroup);
  EXPECT_EQ(server::IssueGroupSize(0, 4), 0u);
}

TEST(BatchPipelineStages, IssueRunsContiguousRangesOfLiveItems) {
  // 34 items, item 3 rejected at verify: 33 live items on a 3-worker
  // pool (4 signers) make groups of 8, 8, 8, 8 and 1, each a contiguous
  // k range carrying its items' batch indices and mutate statuses.
  server::SignerPool pool(3);
  server::BatchPipeline::Config cfg;
  cfg.pool = &pool;
  server::BatchPipeline pipeline(cfg);
  server::BatchPipeline::Plan plan;
  plan.item_count = 34;
  plan.verify = [] {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < 34; ++i) {
      if (i != 3) eligible.push_back(i);
    }
    return eligible;
  };
  plan.mutate = [](const std::vector<std::size_t>& eligible) {
    std::vector<Status> st(eligible.size(), Status::kOk);
    st[5] = Status::kAlreadySpent;  // item 6 proceeds as a double
    return st;
  };
  plan.proceed = [](Status s) { return s == Status::kAlreadySpent; };
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<std::size_t> seen_item(33, 99);
  std::vector<Status> seen_status(33, Status::kBadRequest);
  plan.issue = [&](const server::IssueRange& range) {
    for (std::size_t k = range.begin; k < range.end; ++k) {
      seen_item[k] = range.item(k);
      seen_status[k] = range.status(k);
    }
    std::lock_guard<std::mutex> lk(m);
    ranges.emplace_back(range.begin, range.end);
  };
  auto t = pipeline.Run(plan);
  EXPECT_EQ(t.committed, 33u);
  std::sort(ranges.begin(), ranges.end());
  EXPECT_EQ(ranges, (std::vector<std::pair<std::size_t, std::size_t>>{
                        {0, 8}, {8, 16}, {16, 24}, {24, 32}, {32, 33}}));
  for (std::size_t k = 0; k < 33; ++k) {
    EXPECT_EQ(seen_item[k], k < 3 ? k : k + 1) << "k=" << k;
    EXPECT_EQ(seen_status[k], k == 5 ? Status::kAlreadySpent : Status::kOk)
        << "k=" << k;
  }
}

// -- exchange batch ----------------------------------------------------------

TEST(ExchangePipeline, ParallelExchangeBitIdenticalToSerial) {
  // Same seed, same call sequence; only redeem_shards and
  // signer_pool_size differ, so inline signing is compared with pooled
  // signing. The batch includes a duplicate so the kAlreadySpent leg is
  // covered.
  Stack serial("exchange-identical", 0);
  Stack sharded("exchange-identical", 4, 512, 4096, /*signer_pool_size=*/3);

  constexpr int kLicenses = 6;
  Pseudonym* owner_serial = serial.NewPseudonym();
  Pseudonym* owner_sharded = sharded.NewPseudonym();
  std::vector<ContentProvider::ExchangeItem> items_serial, items_sharded;
  for (int i = 0; i < kLicenses; ++i) {
    rel::License lic_serial = serial.NewBoundLicense(owner_serial);
    rel::License lic_sharded = sharded.NewBoundLicense(owner_sharded);
    ASSERT_EQ(lic_serial.Serialize(), lic_sharded.Serialize());
    items_serial.push_back(
        {lic_serial, serial.PossessionSig(owner_serial, lic_serial)});
    items_sharded.push_back(
        {lic_sharded, sharded.PossessionSig(owner_sharded, lic_sharded)});
  }
  // Duplicate of item 0: the second occurrence loses the spend race
  // deterministically (first-wins in index order).
  items_serial.push_back(items_serial[0]);
  items_sharded.push_back(items_sharded[0]);

  auto out_serial = serial.cp.ExchangeBatch(items_serial);
  auto out_sharded = sharded.cp.ExchangeBatch(items_sharded);
  ASSERT_EQ(out_serial.size(), out_sharded.size());
  for (std::size_t i = 0; i < out_serial.size(); ++i) {
    EXPECT_EQ(out_serial[i].status, out_sharded[i].status) << "item " << i;
    EXPECT_EQ(out_serial[i].anonymous_license.Serialize(),
              out_sharded[i].anonymous_license.Serialize())
        << "item " << i;
  }
  for (int i = 0; i < kLicenses; ++i) {
    EXPECT_EQ(out_serial[i].status, Status::kOk);
  }
  EXPECT_EQ(out_serial[kLicenses].status, Status::kAlreadySpent);
  EXPECT_EQ(serial.cp.LicensesIssued(), sharded.cp.LicensesIssued());

  auto timings = sharded.cp.LastBatchTimings();
  EXPECT_EQ(timings.items, items_sharded.size());
  EXPECT_GT(timings.verify_us, 0.0);
  EXPECT_GT(timings.issue_us, 0.0);

  // The single-item path is a batch of one: the next exchange issues
  // identical bytes on both stacks.
  rel::License one_serial = serial.NewBoundLicense(owner_serial);
  rel::License one_sharded = sharded.NewBoundLicense(owner_sharded);
  auto ex_serial = serial.cp.ExchangeForAnonymous(
      one_serial, serial.PossessionSig(owner_serial, one_serial));
  auto ex_sharded = sharded.cp.ExchangeForAnonymous(
      one_sharded, sharded.PossessionSig(owner_sharded, one_sharded));
  ASSERT_EQ(ex_serial.status, Status::kOk);
  EXPECT_EQ(ex_serial.anonymous_license.Serialize(),
            ex_sharded.anonymous_license.Serialize());

  // The bearers are genuine and redeemable downstream.
  Pseudonym* taker = serial.NewPseudonym();
  EXPECT_EQ(serial.cp
                .RedeemAnonymous(out_serial[0].anonymous_license, taker->cert)
                .status,
            Status::kOk);
}

TEST(ExchangePipeline, BatchMatchesSingleItemRejections) {
  Stack stack("exchange-rejects", 2);
  Pseudonym* owner = stack.NewPseudonym();

  rel::License good = stack.NewBoundLicense(owner);
  rel::License forged = stack.NewBoundLicense(owner);
  forged.issuer_signature[0] ^= 0x01;

  // A genuinely non-transferable license (the rights are signed, so
  // flipping the bit on a retail license would only look like a
  // forgery).
  rel::Rights no_transfer = rel::Rights::FullRetail();
  no_transfer.allow_transfer = false;
  rel::ContentId locked_content = stack.cp.Publish(
      "Locked", std::vector<std::uint8_t>(16, 0x11), 30, no_transfer);
  auto locked = stack.cp.Purchase(owner->cert, locked_content, stack.Pay(30));
  ASSERT_EQ(locked.status, Status::kOk);

  rel::License good2 = stack.NewBoundLicense(owner);

  std::vector<ContentProvider::ExchangeItem> items;
  items.push_back({good, stack.PossessionSig(owner, good)});       // ok
  items.push_back({forged, stack.PossessionSig(owner, forged)});   // bad sig
  items.push_back(
      {locked.license, stack.PossessionSig(owner, locked.license)});  // no xfer
  items.push_back({good2, stack.PossessionSig(owner, good)});  // wrong proof

  auto out = stack.cp.ExchangeBatch(items);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].status, Status::kOk);
  EXPECT_EQ(out[1].status, Status::kBadSignature);
  EXPECT_EQ(out[2].status, Status::kNotTransferable);
  EXPECT_EQ(out[3].status, Status::kBadSignature);

  // Statuses match the single-item path for the same inputs.
  EXPECT_EQ(
      stack.cp.ExchangeForAnonymous(forged, items[1].possession_sig).status,
      Status::kBadSignature);
  EXPECT_EQ(stack.cp.ExchangeForAnonymous(locked.license,
                                          items[2].possession_sig)
                .status,
            Status::kNotTransferable);
  EXPECT_EQ(
      stack.cp.ExchangeForAnonymous(good2, items[3].possession_sig).status,
      Status::kBadSignature);
}

TEST(ExchangePipeline, OverloadShedsAtSpendStageAndLeavesNoTrace) {
  // One shard with a one-item queue: while the worker is parked on a
  // gate task, every SpendBatch submission is shed.
  Stack stack("exchange-shed", 1, 512, /*queue_capacity=*/1);
  Pseudonym* owner = stack.NewPseudonym();
  std::vector<ContentProvider::ExchangeItem> items;
  for (int i = 0; i < 3; ++i) {
    rel::License lic = stack.NewBoundLicense(owner);
    items.push_back({lic, stack.PossessionSig(owner, lic)});
  }

  server::ServerRuntime* rt = stack.cp.Runtime();
  ASSERT_NE(rt, nullptr);
  std::size_t spent_before = stack.cp.SpentSetSize();
  std::uint64_t issued_before = stack.cp.LicensesIssued();
  OpCounters ops_before = AggregateOps();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  rt->Submit(0, [gate](server::ShardContext&) { gate.wait(); });

  auto shed = stack.cp.ExchangeBatch(items);
  release.set_value();
  rt->Drain();

  // Every item was shed at the mutate stage: typed status, no spend, no
  // bearer signed, nothing issued — the held licenses are untouched.
  for (const auto& r : shed) EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before);
  EXPECT_EQ(stack.cp.LicensesIssued(), issued_before);
  EXPECT_EQ((AggregateOps() - ops_before).sign, 0u);
  // The verify stage did run (possession proofs cost full verifies).
  EXPECT_GT((AggregateOps() - ops_before).verify, 0u);

  // The identical retry succeeds once the queue has room.
  auto retried = stack.cp.ExchangeBatch(items);
  for (const auto& r : retried) EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before + items.size());
}

// -- deposit batch -----------------------------------------------------------

Coin MintCoin(PaymentProvider* bank, crypto::HmacDrbg* rng,
              std::uint32_t denomination, const std::string& account) {
  Coin coin;
  rng->Fill(coin.serial.data(), coin.serial.size());
  coin.denomination = denomination;
  const crypto::RsaPublicKey& key = bank->DenominationKey(denomination);
  crypto::BlindingContext ctx =
      crypto::BlindMessage(key, coin.CanonicalBytes(), rng);
  bignum::BigInt blind_sig;
  EXPECT_EQ(bank->Withdraw(account, denomination, ctx.blinded, &blind_sig),
            Status::kOk);
  coin.signature = crypto::Unblind(key, ctx, blind_sig);
  return coin;
}

TEST(DepositPipeline, ExactlyOneCreditPerSerial) {
  for (std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("deposit_shards=" + std::to_string(shards));
    crypto::HmacDrbg rng("deposit-idem-" + std::to_string(shards));
    PaymentProviderConfig pc;
    pc.deposit_shards = shards;
    PaymentProvider bank(512, &rng, pc);
    bank.OpenAccount("pat", 1000);
    bank.OpenAccount("shop", 0);

    Coin a = MintCoin(&bank, &rng, 10, "pat");
    Coin b = MintCoin(&bank, &rng, 5, "pat");
    Coin forged = MintCoin(&bank, &rng, 10, "pat");
    forged.signature[0] ^= 0x01;

    // Same coin twice in ONE batch: one credit, one typed double-spend.
    std::vector<PaymentProvider::DepositItem> batch = {
        {a, "shop"}, {a, "shop"}, {b, "shop"}, {forged, "shop"},
        {b, "nobody"}};
    auto st = bank.DepositBatch(batch);
    ASSERT_EQ(st.size(), 5u);
    EXPECT_EQ(st[0], Status::kOk);
    EXPECT_EQ(st[1], Status::kDoubleSpend);
    EXPECT_EQ(st[2], Status::kOk);
    EXPECT_EQ(st[3], Status::kPaymentFailed);
    EXPECT_EQ(st[4], Status::kUnknownAccount);
    EXPECT_EQ(bank.Balance("shop"), 15u);
    EXPECT_EQ(bank.DepositedCoins(), 2u);
    EXPECT_EQ(bank.DoubleSpendAttempts(), 1u);

    // Across batches, and across the single/batched paths: the serial
    // set is shared, so a repeat is a double spend everywhere.
    EXPECT_EQ(bank.DepositBatch({{a, "shop"}})[0], Status::kDoubleSpend);
    EXPECT_EQ(bank.Deposit(b, "shop"), Status::kDoubleSpend);
    Coin c = MintCoin(&bank, &rng, 20, "pat");
    EXPECT_EQ(bank.Deposit(c, "shop"), Status::kOk);
    EXPECT_EQ(bank.DepositBatch({{c, "shop"}})[0], Status::kDoubleSpend);
    EXPECT_EQ(bank.Balance("shop"), 35u);
    EXPECT_EQ(bank.DepositedCoins(), 3u);
    EXPECT_EQ(bank.DoubleSpendAttempts(), 4u);
  }
}

TEST(DepositPipeline, ShardedBatchMatchesSerialStatuses) {
  crypto::HmacDrbg rng_a("deposit-deterministic");
  crypto::HmacDrbg rng_b("deposit-deterministic");
  PaymentProviderConfig sharded_cfg;
  sharded_cfg.deposit_shards = 4;
  PaymentProvider serial(512, &rng_a);
  PaymentProvider sharded(512, &rng_b, sharded_cfg);
  std::vector<PaymentProvider::DepositItem> items_serial, items_sharded;
  serial.OpenAccount("pat", 1000);
  serial.OpenAccount("shop", 0);
  sharded.OpenAccount("pat", 1000);
  sharded.OpenAccount("shop", 0);
  for (int i = 0; i < 8; ++i) {
    items_serial.push_back({MintCoin(&serial, &rng_a, 5, "pat"), "shop"});
    items_sharded.push_back({MintCoin(&sharded, &rng_b, 5, "pat"), "shop"});
  }
  items_serial.push_back(items_serial[2]);
  items_sharded.push_back(items_sharded[2]);

  auto st_serial = serial.DepositBatch(items_serial);
  auto st_sharded = sharded.DepositBatch(items_sharded);
  EXPECT_EQ(st_serial, st_sharded);
  EXPECT_EQ(serial.Balance("shop"), sharded.Balance("shop"));
  EXPECT_EQ(st_serial.back(), Status::kDoubleSpend);
}

// -- client retry loop -------------------------------------------------------

/// Builds a batch response shedding every sub-request with \p hint_ms.
std::vector<std::uint8_t> ShedAll(const net::RequestEnvelope& env,
                                  std::uint32_t hint_ms) {
  net::ByteReader r(env.payload);
  std::uint32_t n = r.U32();
  net::ByteWriter body;
  body.U32(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    r.U8();
    r.Blob();
    body.U8(static_cast<std::uint8_t>(Status::kOverloaded));
    net::ByteWriter hint;
    hint.U32(hint_ms);
    body.Blob(hint.Take());
  }
  net::ResponseEnvelope resp;
  resp.tag = env.tag;
  resp.correlation_id = env.correlation_id;
  resp.status = Status::kOk;
  resp.payload = body.Take();
  return resp.Encode();
}

class AgentRetryTest : public ::testing::Test {
 protected:
  AgentRetryTest() : rng_("agent-retry") {
    SystemConfig cfg;
    cfg.ca_key_bits = 512;
    cfg.ttp_key_bits = 512;
    cfg.bank_key_bits = 512;
    cfg.cp.signing_key_bits = 512;
    system_ = std::make_unique<P2drmSystem>(cfg, &rng_);
    content_ = system_->cp().Publish(
        "Song", std::vector<std::uint8_t>(64, 0x5a), 7,
        rel::Rights::FullRetail());

    AgentConfig acfg;
    acfg.pseudonym_bits = 512;
    acfg.overload_max_attempts = 3;
    acfg.overload_backoff_cap_ms = 1;  // honor hints without slow sleeps
    agent_ = std::make_unique<UserAgent>("alice", acfg, system_.get(), &rng_);

    // Interpose the cp endpoint: the first `shed_batches_` batch
    // envelopes are shed wholesale with a typed hint (the server is
    // never invoked), everything else dispatches normally.
    system_->transport().RegisterEndpoint(
        P2drmSystem::kCpEndpoint,
        [this](const std::vector<std::uint8_t>& wire) {
          net::RequestEnvelope env = net::RequestEnvelope::Decode(wire);
          if (env.tag == net::kBatchTag && batch_calls_++ < shed_batches_) {
            return ShedAll(env, hint_ms_);
          }
          return system_->cp_service().Dispatch(wire);
        });
  }

  crypto::HmacDrbg rng_;
  std::unique_ptr<P2drmSystem> system_;
  std::unique_ptr<UserAgent> agent_;
  rel::ContentId content_ = 0;
  int batch_calls_ = 0;
  int shed_batches_ = 0;
  std::uint32_t hint_ms_ = 7;
};

TEST_F(AgentRetryTest, RetriesShedItemsAndSucceeds) {
  shed_batches_ = 1;
  std::vector<rel::License> lics;
  auto statuses = agent_->BuyContentBatch({content_, content_}, &lics);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(statuses[1], Status::kOk);
  EXPECT_FALSE(lics[0].wrapped_content_key.empty());

  const RetryStats& stats = agent_->OverloadRetries();
  EXPECT_EQ(stats.retried_items, 2u);      // both items re-sent once
  EXPECT_EQ(stats.retry_round_trips, 1u);  // in one extra round trip
  EXPECT_EQ(stats.backoff_ms, 1u);         // hint 7ms honored, capped at 1
  EXPECT_EQ(stats.exhausted_items, 0u);
  EXPECT_EQ(batch_calls_, 2);
}

TEST_F(AgentRetryTest, StopsAtAttemptBudgetAndRefundsCoins) {
  shed_batches_ = 1 << 20;  // server never recovers
  std::uint64_t wallet_before = agent_->WalletValue() +
                                system_->bank().Balance("alice");
  auto statuses = agent_->BuyContentBatch({content_}, nullptr);
  EXPECT_EQ(statuses[0], Status::kOverloaded);
  EXPECT_EQ(batch_calls_, 3);  // budget: 1 try + 2 retries

  const RetryStats& stats = agent_->OverloadRetries();
  EXPECT_EQ(stats.retried_items, 2u);
  EXPECT_EQ(stats.retry_round_trips, 2u);
  EXPECT_EQ(stats.exhausted_items, 1u);
  // A shed item provably never executed: the coins are refunded, so no
  // value was destroyed.
  EXPECT_EQ(agent_->WalletValue() + system_->bank().Balance("alice"),
            wallet_before);
}

TEST_F(AgentRetryTest, VirtualTimeBackoffHonorsMultiSecondHintsNoSleeps) {
  // A server that never recovers, hinting FIVE SECONDS per retry — with
  // real sleeps the budget below would cost 10s of wall clock. The wait
  // hook serves every wait by advancing the system's virtual timebase
  // instead, so the retry loop, the refund path and the metrics are all
  // exercised at zero wall-clock cost (the ISSUE 5 open item).
  shed_batches_ = 1 << 20;
  hint_ms_ = 5000;

  AgentConfig acfg;
  acfg.pseudonym_bits = 512;
  acfg.overload_max_attempts = 3;
  acfg.overload_backoff_cap_ms = 60'000;  // do not cap the 5s hints
  sim::VirtualClock& timebase = system_->timebase();
  acfg.wait_hook = [&timebase](std::uint32_t wait_ms) {
    timebase.AdvanceUs(static_cast<std::uint64_t>(wait_ms) * 1000ull);
  };
  UserAgent bob("bob", acfg, system_.get(), &rng_);

  std::uint64_t virtual_t0_us = timebase.NowUs();
  std::uint64_t wealth_before =
      bob.WalletValue() + system_->bank().Balance("bob");
  auto wall_t0 = std::chrono::steady_clock::now();
  auto statuses = bob.BuyContentBatch({content_}, nullptr);
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_t0)
                       .count();

  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], Status::kOverloaded);
  const RetryStats& stats = bob.OverloadRetries();
  EXPECT_EQ(stats.retried_items, 2u);
  EXPECT_EQ(stats.retry_round_trips, 2u);
  EXPECT_EQ(stats.exhausted_items, 1u);
  // Both 5s hints honored IN FULL — in virtual time, deterministically.
  EXPECT_EQ(stats.backoff_ms, 10'000u);
  EXPECT_EQ(timebase.NowUs() - virtual_t0_us, 10'000'000u);
  // Wall clock saw crypto, not waiting: far below the 10s of hints
  // (loose bound — TSan CI runs this file).
  EXPECT_LT(wall_ms, 5000.0);
  // The exhausted item's coins were provably never deposited: refunded.
  EXPECT_EQ(bob.WalletValue() + system_->bank().Balance("bob"),
            wealth_before);
}

// -- injectable pipeline time source -----------------------------------------

TEST(PipelineTimings, InjectedTimeSourcePinsStageTimings) {
  // A deterministic tick source makes LastBatchTimings exact, wall clock
  // nowhere. Verify and spend span one tick of 7us each. The issue stage
  // samples its start, then the one issue group samples its own start
  // and end on the zero-worker pool (the sample its signer clock
  // accrues), so issue spans two ticks.
  Stack stack("timings-injected", /*redeem_shards=*/0, 512);
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
  auto results = stack.cp.RedeemAnonymousBatch(items);
  for (const auto& r : results) ASSERT_EQ(r.status, Status::kOk);

  auto timings = stack.cp.LastBatchTimings();
  EXPECT_EQ(timings.items, 2u);
  EXPECT_EQ(timings.verify_us, 7.0);
  EXPECT_EQ(timings.spend_us, 7.0);
  EXPECT_EQ(timings.issue_us, 14.0);
  // End-to-end span of the synchronous run: first verify sample to last
  // issue sample, 6 ticks.
  EXPECT_EQ(timings.makespan_us, 42.0);
}

// -- client exchange batch ---------------------------------------------------

TEST(ExchangeClientBatch, GiveAndReceiveBatchRoundTrip) {
  crypto::HmacDrbg rng("exchange-client-batch");
  SystemConfig cfg;
  cfg.ca_key_bits = 512;
  cfg.ttp_key_bits = 512;
  cfg.bank_key_bits = 512;
  cfg.cp.signing_key_bits = 512;
  cfg.cp.redeem_shards = 2;   // exchange/redeem spends on two shards
  cfg.bank.deposit_shards = 2;  // coin checks shard at the bank
  P2drmSystem system(cfg, &rng);
  std::vector<rel::ContentId> contents;
  for (int i = 0; i < 3; ++i) {
    contents.push_back(system.cp().Publish(
        "title-" + std::to_string(i), std::vector<std::uint8_t>(64, 0x5a),
        10, rel::Rights::FullRetail()));
  }

  AgentConfig acfg;
  acfg.pseudonym_bits = 512;
  UserAgent alice("alice", acfg, &system, &rng);
  UserAgent bob("bob", acfg, &system, &rng);

  std::vector<rel::License> lics;
  auto bought = alice.BuyContentBatch(contents, &lics);
  std::vector<rel::LicenseId> ids;
  for (std::size_t i = 0; i < bought.size(); ++i) {
    ASSERT_EQ(bought[i], Status::kOk);
    ids.push_back(lics[i].id);
  }

  // One round trip gives all three away; the device forgets them.
  std::vector<std::vector<std::uint8_t>> bearers;
  auto gave = alice.GiveLicenseBatch(ids, &bearers);
  for (std::size_t i = 0; i < gave.size(); ++i) {
    EXPECT_EQ(gave[i], Status::kOk) << "item " << i;
    EXPECT_FALSE(bearers[i].empty());
    EXPECT_EQ(alice.device().FindLicense(ids[i]), nullptr);
  }

  // One round trip redeems all three on Bob's side.
  auto received = bob.ReceiveLicenseBatch(bearers);
  for (Status s : received) EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(bob.Play(contents[0]).decision, rel::Decision::kAllow);

  // A copied bearer cannot be redeemed twice.
  auto replay = bob.ReceiveLicenseBatch(bearers);
  for (Status s : replay) EXPECT_EQ(s, Status::kAlreadySpent);

  // An unknown id fails locally and spends no round trip for that item.
  rel::LicenseId bogus;
  auto missing = alice.GiveLicenseBatch({bogus}, nullptr);
  EXPECT_EQ(missing[0], Status::kBadRequest);
}

}  // namespace
}  // namespace core
}  // namespace p2drm
