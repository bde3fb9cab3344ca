// Sharded server runtime: routing, spend serialization under races,
// bounded-queue backpressure, journal segments, and the amortizing batch
// verifier — plus the content provider's batched redemption fast path.

#include "server/server_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <unordered_set>

#include "core/certification_authority.h"
#include "core/content_provider.h"
#include "core/smartcard.h"
#include "core/ttp.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"
#include "obs/registry.h"
#include "server/batch_verifier.h"
#include "server/shard_router.h"

namespace p2drm {
namespace server {
namespace {

using core::Status;

rel::LicenseId MakeId(std::uint64_t n) {
  rel::LicenseId id;
  for (int i = 0; i < 8; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(n >> (8 * (7 - i)));
  }
  id.bytes[15] = static_cast<std::uint8_t>(n * 37);
  return id;
}

// -- router ------------------------------------------------------------------

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(4);
  for (std::uint64_t n = 0; n < 1000; ++n) {
    std::size_t s = router.ShardFor(MakeId(n));
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, router.ShardFor(MakeId(n)));  // stable
  }
}

TEST(ShardRouterTest, SpreadsCounterIds) {
  ShardRouter router(8);
  std::vector<std::size_t> hist(8, 0);
  for (std::uint64_t n = 0; n < 8000; ++n) {
    ++hist[router.ShardFor(MakeId(n))];
  }
  for (std::size_t count : hist) {
    EXPECT_GT(count, 500u);  // no empty or starved shard
  }
}

// -- runtime: spend path -----------------------------------------------------

TEST(ServerRuntimeTest, SpendBatchStatuses) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime rt(cfg);
  // Duplicate inside one batch: first occurrence wins.
  std::vector<rel::LicenseId> ids = {MakeId(1), MakeId(2), MakeId(1)};
  std::vector<Status> st;
  rt.SpendBatch(ids, &st);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0], Status::kOk);
  EXPECT_EQ(st[1], Status::kOk);
  EXPECT_EQ(st[2], Status::kAlreadySpent);
  // Replay across calls is also a double spend.
  EXPECT_EQ(rt.SpendOne(MakeId(2)), Status::kAlreadySpent);
  EXPECT_EQ(rt.SpendOne(MakeId(3)), Status::kOk);
  EXPECT_EQ(rt.SpentSize(), 3u);
  EXPECT_EQ(rt.Processed(), 5u);
}

TEST(ServerRuntimeTest, ConcurrentDoubleRedeemWinsExactlyOnce) {
  // The race the sharded design must kill: the same license id submitted
  // from many client threads at once must succeed exactly once, while
  // unrelated traffic proceeds on every shard.
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 1 << 14;
  ServerRuntime rt(cfg);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200;
  const rel::LicenseId hot = MakeId(0xdeadbeef);
  std::atomic<int> hot_wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<rel::LicenseId> ids;
      ids.push_back(hot);  // every thread races on the hot id...
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        // ...amid its own unique traffic.
        ids.push_back(MakeId(0x1000000ull * (t + 1) + n));
      }
      std::vector<Status> st;
      rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
      if (st[0] == Status::kOk) hot_wins.fetch_add(1);
      for (std::size_t i = 1; i < st.size(); ++i) {
        EXPECT_EQ(st[i], Status::kOk);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hot_wins.load(), 1);
  EXPECT_EQ(rt.SpentSize(), 1u + kThreads * kPerThread);
}

TEST(ServerRuntimeTest, BoundedQueueShedsWithOverloaded) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 2;
  cfg.queue_capacity = 8;
  ServerRuntime rt(cfg);

  // Park both workers so the queues cannot drain.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    rt.Submit(s, [gate](ShardContext&) { gate.wait(); });
  }
  std::vector<rel::LicenseId> flood;
  for (std::uint64_t n = 0; n < 256; ++n) flood.push_back(MakeId(n));
  std::vector<Status> st;
  rt.SpendBatch(flood, &st, /*shed_on_full=*/true);
  release.set_value();
  rt.Drain();

  std::size_t shed = 0;
  for (Status s : st) {
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(rt.Overloads(), 0u);
  // Shed ids left no trace and can be retried successfully.
  std::vector<Status> retry;
  rt.SpendBatch(flood, &retry, /*shed_on_full=*/false);
  for (std::size_t i = 0; i < flood.size(); ++i) {
    EXPECT_EQ(retry[i],
              st[i] == Status::kOk ? Status::kAlreadySpent : Status::kOk);
  }
}

TEST(ServerRuntimeTest, JournalSegmentsSurviveShardCountChange) {
  std::string prefix = ::testing::TempDir() + "/srv_journal_test";
  // Fresh start: remove any leftovers from a previous run.
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 4;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    std::vector<rel::LicenseId> ids;
    for (std::uint64_t n = 0; n < 64; ++n) ids.push_back(MakeId(n));
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    for (Status s : st) EXPECT_EQ(s, Status::kOk);
  }
  {
    // Restart with a DIFFERENT shard count: replay re-routes every id to
    // its new home shard.
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), 64u);
    EXPECT_EQ(rt.SpendOne(MakeId(5)), Status::kAlreadySpent);
    EXPECT_EQ(rt.SpendOne(MakeId(1000)), Status::kOk);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, DuplicateJournalRecordsReplayIdempotently) {
  std::string prefix = ::testing::TempDir() + "/srv_journal_dup";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  std::size_t clean_size;
  std::size_t clean_bytes;
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    std::vector<rel::LicenseId> ids;
    for (std::uint64_t n = 0; n < 40; ++n) ids.push_back(MakeId(n));
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    clean_size = rt.SpentSize();
    clean_bytes = rt.SpentMemoryBytes();
    ASSERT_EQ(clean_size, 40u);
  }
  // A botched migration leaves OVERLAPPING history: append shard 0's
  // segment to shard 1's, duplicating its records.
  {
    std::FILE* src =
        std::fopen(ServerRuntime::SegmentPath(prefix, 0).c_str(), "rb");
    ASSERT_NE(src, nullptr);
    std::FILE* dst =
        std::fopen(ServerRuntime::SegmentPath(prefix, 1).c_str(), "ab");
    ASSERT_NE(dst, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, src)) > 0) {
      std::fwrite(buf, 1, got, dst);
    }
    std::fclose(src);
    std::fclose(dst);
  }
  {
    // Replay sees every record twice; the spent set (and its memory
    // accounting) must come out exactly as from the clean history, and
    // imports/replays must not count as processed traffic.
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), clean_size);
    EXPECT_EQ(rt.SpentMemoryBytes(), clean_bytes);
    EXPECT_EQ(rt.Processed(), 0u);
    EXPECT_EQ(rt.SpendOne(MakeId(7)), Status::kAlreadySpent);
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, ImportSpentIsIdempotentAndJournalsFreshIdsOnce) {
  std::string prefix = ::testing::TempDir() + "/srv_import";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < 50; ++n) ids.push_back(MakeId(n));
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 3;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    // Half the ids are already spent locally; the import overlaps them.
    std::vector<rel::LicenseId> local(ids.begin(), ids.begin() + 25);
    std::vector<Status> st;
    rt.SpendBatch(local, &st, /*shed_on_full=*/false);

    ServerRuntime::ImportStats first = rt.ImportSpent(ids);
    EXPECT_EQ(first.fresh, 25u);
    EXPECT_EQ(first.duplicates, 25u);
    EXPECT_EQ(rt.SpentSize(), 50u);
    // Replaying the SAME migration again must change nothing.
    ServerRuntime::ImportStats second = rt.ImportSpent(ids);
    EXPECT_EQ(second.fresh, 0u);
    EXPECT_EQ(second.duplicates, 50u);
    EXPECT_EQ(rt.SpentSize(), 50u);
    // Imports are not client traffic.
    EXPECT_EQ(rt.Processed(), 25u);  // only the SpendBatch items
  }
  {
    // Fresh imports were journaled exactly once: a restart still refuses
    // every id, and the scan sees 50 records total (25 spends + 25
    // imports, no re-journaled duplicates).
    ServerRuntime::JournalScanStats scan =
        ServerRuntime::ForEachJournalRecord(prefix, nullptr);
    EXPECT_EQ(scan.records, 50u);
    EXPECT_EQ(scan.torn_tails, 0u);
    ServerRuntimeConfig cfg;
    cfg.shard_count = 3;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), 50u);
    for (const rel::LicenseId& id : ids) {
      EXPECT_EQ(rt.SpendOne(id), Status::kAlreadySpent);
    }
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, MatchesReferenceSetThroughRuntimeAndRestart) {
  std::string prefix = ::testing::TempDir() + "/srv_reference";
  auto cleanup = [&prefix] {
    for (std::size_t i = 0; i < 8; ++i) {
      std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
    }
  };
  cleanup();

  // Randomized traffic (heavy duplicates, overlapping imports) through a
  // journaled runtime and through a std::unordered_set replay of the same
  // calls: every status, import tally and size must agree, and a runtime
  // rebuilt from the journal must hold exactly the reference set.
  std::unordered_set<rel::LicenseId> reference;
  ServerRuntimeConfig cfg;
  cfg.shard_count = 3;
  cfg.journal_path_prefix = prefix;
  {
    ServerRuntime rt(cfg);
    crypto::HmacDrbg rng("runtime-reference");
    for (int round = 0; round < 20; ++round) {
      std::vector<rel::LicenseId> ids;
      std::size_t n = 1 + rng.NextUint64(60);
      for (std::size_t i = 0; i < n; ++i) {
        ids.push_back(MakeId(rng.NextUint64(500)));
      }
      std::vector<Status> want;
      ServerRuntime::ImportStats want_import;
      for (const rel::LicenseId& id : ids) {
        const bool fresh = reference.insert(id).second;
        want.push_back(fresh ? Status::kOk : Status::kAlreadySpent);
        ++(fresh ? want_import.fresh : want_import.duplicates);
      }
      if (rng.NextUint64(3) == 0) {
        ServerRuntime::ImportStats got = rt.ImportSpent(ids);
        ASSERT_EQ(got.fresh, want_import.fresh) << "round " << round;
        ASSERT_EQ(got.duplicates, want_import.duplicates) << "round " << round;
      } else {
        std::vector<Status> got;
        rt.SpendBatch(ids, &got, /*shed_on_full=*/false);
        ASSERT_EQ(got, want) << "round " << round;
      }
      ASSERT_EQ(rt.SpentSize(), reference.size()) << "round " << round;
    }
  }
  // Restart from the journal at a different shard count.
  cfg.shard_count = 2;
  {
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), reference.size());
    for (std::uint64_t n = 0; n < 600; ++n) {
      const bool fresh = reference.insert(MakeId(n)).second;
      ASSERT_EQ(rt.SpendOne(MakeId(n)),
                fresh ? Status::kOk : Status::kAlreadySpent)
          << n;
    }
    EXPECT_EQ(rt.SpentSize(), reference.size());
  }
  cleanup();
}

TEST(ServerRuntimeTest, FileAtBarePrefixRefusesConstruction) {
  // A journal at the bare prefix is where a pre-sharding provider kept its
  // spends. Replay reads only shard segments, so the runtime must refuse
  // to start rather than forget those spends.
  std::string prefix = ::testing::TempDir() + "/srv_bare_prefix";
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
  {
    store::AppendLog bare(prefix);
    const rel::LicenseId id = MakeId(7);
    bare.Append(std::vector<std::uint8_t>(id.bytes.begin(), id.bytes.end()));
  }
  ServerRuntimeConfig cfg;
  cfg.shard_count = 2;
  cfg.journal_path_prefix = prefix;
  EXPECT_THROW(ServerRuntime rt(cfg), std::runtime_error);
  // The scan does not read the bare file either, and no segment was made.
  ServerRuntime::JournalScanStats scan =
      ServerRuntime::ForEachJournalRecord(prefix, nullptr);
  EXPECT_EQ(scan.segments, 0u);
  EXPECT_EQ(scan.records, 0u);

  std::remove(prefix.c_str());
  ServerRuntime rt(cfg);
  EXPECT_EQ(rt.SpendOne(MakeId(7)), Status::kOk);
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, TornGroupCommitBlockDropsWholeBlockAndRecovers) {
  std::string prefix = ::testing::TempDir() + "/srv_torn_block";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  constexpr std::uint64_t kN = 64;
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < kN; ++n) ids.push_back(MakeId(n));
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;  // group commit is the default
    ServerRuntime rt(cfg);
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    for (Status s : st) ASSERT_EQ(s, Status::kOk);
    ASSERT_EQ(rt.SpentSize(), kN);
  }
  // Shard 0's share of the batch was journaled as ONE group-committed
  // block; a crash that tears 5 bytes off its tail lands INSIDE that
  // block, and the CRC covers the whole block — so replay must drop every
  // id in it, not just the last one.
  ShardRouter router(2);
  std::size_t shard0_ids = 0;
  for (const auto& id : ids) {
    if (router.ShardFor(id) == 0) ++shard0_ids;
  }
  ASSERT_GT(shard0_ids, 1u);  // the tear must cost >1 record to be a test
  {
    std::string seg = ServerRuntime::SegmentPath(prefix, 0);
    std::FILE* f = std::fopen(seg.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 5), 0);
    std::fclose(f);
  }
  ServerRuntime::JournalScanStats scan =
      ServerRuntime::ForEachJournalRecord(prefix, nullptr);
  EXPECT_EQ(scan.torn_tails, 1u);
  EXPECT_EQ(scan.records, kN - shard0_ids);  // whole block gone
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), kN - shard0_ids);
    // Lost ids are re-spendable (the provider never confirmed them
    // durable); survivors still refuse. Re-spending everything restores
    // the full set and re-journals the lost block.
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    std::size_t ok = 0, dup = 0;
    for (Status s : st) (s == Status::kOk ? ok : dup) += 1;
    EXPECT_EQ(ok, shard0_ids);
    EXPECT_EQ(dup, kN - shard0_ids);
    EXPECT_EQ(rt.SpentSize(), kN);
  }
  // The reopen truncated the torn tail before appending, so the healed
  // journal replays clean and complete.
  scan = ServerRuntime::ForEachJournalRecord(prefix, nullptr);
  EXPECT_EQ(scan.torn_tails, 0u);
  EXPECT_EQ(scan.records, kN);
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), kN);
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, SpentBytesGaugeTracksMemoryBytes) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime rt(cfg);
  obs::Registry registry;
  rt.set_observability(&registry, "srv.");

  auto gauge = [&registry]() -> std::int64_t {
    for (const auto& m : registry.Aggregate()) {
      if (m.name == "srv.spent.bytes") return m.gauge;
    }
    ADD_FAILURE() << "srv.spent.bytes not registered";
    return -1;
  };
  EXPECT_EQ(gauge(), 0);

  // Across growth (rehashes move the footprint in steps, and the gauge is
  // updated as a delta per task) the quiesced gauge must equal the honest
  // per-shard MemoryBytes sum exactly.
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < 3000; ++n) ids.push_back(MakeId(n));
  std::vector<Status> st;
  rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
  rt.Drain();
  EXPECT_EQ(gauge(), static_cast<std::int64_t>(rt.SpentMemoryBytes()));
  EXPECT_GT(gauge(), 0);

  // Imports grow the set through the other write path; same contract.
  std::vector<rel::LicenseId> more;
  for (std::uint64_t n = 3000; n < 9000; ++n) more.push_back(MakeId(n));
  rt.ImportSpent(more);
  rt.Drain();
  EXPECT_EQ(gauge(), static_cast<std::int64_t>(rt.SpentMemoryBytes()));
}

// -- batch verifier ----------------------------------------------------------

class BatchVerifierTest : public ::testing::Test {
 protected:
  BatchVerifierTest()
      : rng_("batch-verifier-test"),
        key_(crypto::GenerateRsaKey(512, &rng_)),
        pub_(key_.PublicKey()) {}

  std::vector<std::uint8_t> RandomMsg() {
    std::vector<std::uint8_t> msg(48);
    rng_.Fill(msg.data(), msg.size());
    return msg;
  }

  crypto::HmacDrbg rng_;
  crypto::RsaPrivateKey key_;
  crypto::RsaPublicKey pub_;
  server::SignerPool inline_{0};  // zero workers: checks run on the caller
};

TEST_F(BatchVerifierTest, SameKeyBatchVerifiesEachItemOnce) {
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < 16; ++i) {
    msgs.push_back(RandomMsg());
    sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
  }
  BatchVerifier verifier;
  std::vector<std::uint8_t> ok =
      verifier.VerifySameKeyBatch(pub_, msgs, sigs, &rng_, inline_);
  for (bool v : ok) EXPECT_TRUE(v);
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.items, 16u);
  EXPECT_EQ(stats.full_verifies, 16u);  // one exponentiation per item
  EXPECT_EQ(stats.screened_groups, 1u);
  EXPECT_EQ(stats.screen_failures, 0u);
}

TEST_F(BatchVerifierTest, SameKeyBatchIsolatesTamperedItems) {
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < 8; ++i) {
    msgs.push_back(RandomMsg());
    sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
  }
  sigs[3][10] ^= 0x01;  // corrupt one signature
  sigs[6] = std::vector<std::uint8_t>(4, 0xab);  // structurally wrong

  BatchVerifier verifier;
  std::vector<std::uint8_t> ok =
      verifier.VerifySameKeyBatch(pub_, msgs, sigs, &rng_, inline_);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ok[i], i != 3 && i != 6) << "item " << i;
  }
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.screen_failures, 1u);  // item 3 was rejected
}

TEST_F(BatchVerifierTest, SameKeyBatchRejectsExactlyTheForgedItems) {
  constexpr std::size_t kItems = 32;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (std::size_t i = 0; i < kItems; ++i) {
    msgs.push_back(RandomMsg());
    sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
  }
  // A forged item keeps a well-formed signature over a different message,
  // so it is rejected by its exponentiation, not by the width/range check.
  auto forge = [](std::vector<std::uint8_t> msg) {
    msg[0] ^= 0x01;
    return msg;
  };
  for (bool all_forged : {false, true}) {
    SCOPED_TRACE(all_forged ? "every item forged" : "last item forged");
    std::vector<std::vector<std::uint8_t>> presented = msgs;
    for (std::size_t i = 0; i < kItems; ++i) {
      if (all_forged || i == kItems - 1) presented[i] = forge(msgs[i]);
    }
    BatchVerifier verifier;
    std::vector<std::uint8_t> ok =
        verifier.VerifySameKeyBatch(pub_, presented, sigs, &rng_, inline_);
    ASSERT_EQ(ok.size(), kItems);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(ok[i], !all_forged && i != kItems - 1) << "item " << i;
    }
    BatchVerifierStats stats = verifier.stats();
    EXPECT_EQ(stats.full_verifies, kItems);
    EXPECT_EQ(stats.screened_groups, 1u);
    EXPECT_EQ(stats.screen_failures, 1u);
  }
}

TEST_F(BatchVerifierTest, SameKeyBatchDrawsFourBytesPerCandidate) {
  // The verifier's draw is pinned against a twin DRBG: groups with two or
  // more candidates make one 4-byte Fill per candidate, other groups none.
  // s = n has the modulus width but fails the range check, so it is never
  // a candidate and draws nothing.
  const std::vector<std::uint8_t> out_of_range = pub_.n.ToBytes();
  ASSERT_EQ(out_of_range.size(), pub_.ModulusBytes());

  crypto::HmacDrbg drbg("draw-test");
  crypto::HmacDrbg twin("draw-test");
  BatchVerifier verifier;
  std::size_t expected_fills = 0;
  for (std::size_t candidates : {0u, 1u, 2u, 32u}) {
    SCOPED_TRACE(candidates);
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    for (std::size_t i = 0; i < candidates; ++i) {
      msgs.push_back(RandomMsg());
      sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
    }
    if (candidates != 1) {  // 0: a lone invalid signature; 2, 32: one extra
      msgs.push_back(RandomMsg());
      sigs.push_back(out_of_range);
    }
    std::vector<std::uint8_t> ok =
        verifier.VerifySameKeyBatch(pub_, msgs, sigs, &drbg, inline_);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(ok[i], i < candidates) << "item " << i;
    }
    if (candidates >= 2) expected_fills += candidates;
  }
  EXPECT_EQ(verifier.stats().full_verifies, 35u);  // 1 + 2 + 32 candidates

  for (std::size_t k = 0; k < expected_fills; ++k) {
    std::uint8_t buf[4];
    twin.Fill(buf, sizeof(buf));
  }
  std::vector<std::uint8_t> next(32), twin_next(32);
  drbg.Fill(next.data(), next.size());
  twin.Fill(twin_next.data(), twin_next.size());
  EXPECT_EQ(next, twin_next);
}

TEST(VerifyGroupSizeTest, SpreadsOverSignersAboveTheFloor) {
  EXPECT_EQ(VerifyGroupSize(32, 4), 8u);   // four groups of 8
  EXPECT_EQ(VerifyGroupSize(33, 4), 9u);   // 9, 9, 9 and 6
  EXPECT_EQ(VerifyGroupSize(64, 4), 16u);  // no cap: one group per signer
  // A few checks make one group: they run on the caller, waking nobody.
  EXPECT_EQ(VerifyGroupSize(3, 4), kMinVerifyGroup);
  EXPECT_EQ(VerifyGroupSize(kMinVerifyGroup, 4), kMinVerifyGroup);
  EXPECT_EQ(VerifyGroupSize(20, 1), 20u);  // zero workers: one group
}

TEST_F(BatchVerifierTest, SameKeyFanOutMatchesInlineAcrossPoolSizes) {
  // A hostile group: genuine, forged (well-formed, wrong message), one
  // byte short, and s = n. Every pool size must give the same verdicts,
  // the same stats and leave the caller's DRBG at the same point.
  const std::vector<std::uint8_t> at_modulus = pub_.n.ToBytes();
  for (std::size_t n : {1u, 3u, 8u, 32u, 33u}) {
    SCOPED_TRACE(n);
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    std::vector<std::uint8_t> expected;
    std::size_t candidates = 0;
    for (std::size_t i = 0; i < n; ++i) {
      msgs.push_back(RandomMsg());
      sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
      switch (i % 4) {
        case 1: msgs.back()[0] ^= 0x01; break;  // forged
        case 2: sigs.back().pop_back(); break;  // wrong width
        case 3: sigs.back() = at_modulus; break;  // s >= n
        default: break;
      }
      expected.push_back(i % 4 == 0 ? 1 : 0);
      if (i % 4 < 2) ++candidates;
    }
    std::vector<std::uint8_t> next_inline;
    for (std::size_t workers : {0u, 1u, 3u}) {
      SCOPED_TRACE(workers);
      SignerPool pool(workers);
      crypto::HmacDrbg drbg("fan-out-draw");
      BatchVerifier verifier;
      std::vector<std::uint8_t> ok =
          verifier.VerifySameKeyBatch(pub_, msgs, sigs, &drbg, pool);
      EXPECT_EQ(ok, expected);
      BatchVerifierStats stats = verifier.stats();
      EXPECT_EQ(stats.items, n);
      EXPECT_EQ(stats.full_verifies, candidates);
      EXPECT_EQ(stats.screened_groups, 1u);
      EXPECT_EQ(stats.screen_failures, candidates > 1 ? 1u : 0u);
      // Verify jobs accrue nothing onto the pool's signing clocks.
      EXPECT_EQ(pool.JoinerSimClockUs(), 0u);
      for (std::size_t w = 0; w < workers; ++w) {
        EXPECT_EQ(pool.WorkerSimClockUs(w), 0u);
      }
      std::vector<std::uint8_t> next(16);
      drbg.Fill(next.data(), next.size());
      if (workers == 0) next_inline = next;
      EXPECT_EQ(next, next_inline) << "the draw moved with the pool size";
    }
  }
}

TEST_F(BatchVerifierTest, MixedKeyListMatchesSingleVerifies) {
  // Possession proofs under three keys, in runs and interleaved, with
  // a forged message and a short signature: VerifyFdhMany gives what one
  // VerifyFdh per check gives, with the same counts, at every pool size.
  std::vector<crypto::RsaPrivateKey> keys;
  keys.push_back(key_);
  keys.push_back(crypto::GenerateRsaKey(512, &rng_));
  keys.push_back(crypto::GenerateRsaKey(512, &rng_));
  std::vector<crypto::RsaPublicKey> pubs;
  for (const auto& k : keys) pubs.push_back(k.PublicKey());
  const std::size_t kChecks = 19;
  std::vector<std::vector<std::uint8_t>> msgs(kChecks), sigs(kChecks);
  std::vector<FdhCheck> checks(kChecks);
  for (std::size_t i = 0; i < kChecks; ++i) {
    const std::size_t k = i < 6 ? 0 : i % 3;  // a run, then interleaved
    msgs[i] = RandomMsg();
    sigs[i] = crypto::RsaSignFdh(keys[k], msgs[i]);
    if (i % 5 == 2) msgs[i][3] ^= 0x10;   // forged
    if (i % 7 == 4) sigs[i].pop_back();   // wrong width
    checks[i] = {&pubs[k], &msgs[i], &sigs[i]};
  }
  BatchVerifier single;
  std::vector<std::uint8_t> expected;
  for (const FdhCheck& c : checks) {
    expected.push_back(single.VerifyFdh(*c.pub, *c.msg, *c.sig) ? 1 : 0);
  }
  for (std::size_t workers : {0u, 1u, 3u}) {
    SCOPED_TRACE(workers);
    SignerPool pool(workers);
    BatchVerifier verifier;
    EXPECT_EQ(verifier.VerifyFdhMany(checks, pool), expected);
    EXPECT_EQ(verifier.stats().items, single.stats().items);
    EXPECT_EQ(verifier.stats().full_verifies, single.stats().full_verifies);
    EXPECT_TRUE(verifier.VerifyFdhMany({}, pool).empty());
  }
}

TEST_F(BatchVerifierTest, PseudonymCertsVerifiedOncePerDistinctCert) {
  crypto::RsaPrivateKey ca = crypto::GenerateRsaKey(512, &rng_);
  std::vector<core::PseudonymCertificate> certs(3);
  for (auto& cert : certs) {
    cert.pseudonym_key = pub_;
    cert.escrow.resize(24);
    rng_.Fill(cert.escrow.data(), cert.escrow.size());
    cert.ca_signature = crypto::RsaSignFdh(ca, cert.CanonicalBytes());
  }
  BatchVerifier verifier;
  // 12 checks over 3 distinct certs: 3 full verifies, 9 cache hits.
  for (int round = 0; round < 4; ++round) {
    for (const auto& cert : certs) {
      EXPECT_TRUE(verifier.VerifyPseudonymCert(ca.PublicKey(), cert));
    }
  }
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.full_verifies, 3u);
  EXPECT_EQ(stats.cert_cache_hits, 9u);

  // A forged cert is rejected and the rejection is cached too.
  core::PseudonymCertificate forged = certs[0];
  forged.escrow.push_back(0x7f);
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca.PublicKey(), forged));
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca.PublicKey(), forged));
  EXPECT_EQ(verifier.stats().cert_cache_hits, 10u);
}

TEST_F(BatchVerifierTest, CertMemoSeparatesCaKeys) {
  // The memo reuses the CA key's fingerprint across calls; a verdict cached
  // under CA A must not answer a question asked under CA B.
  crypto::RsaPrivateKey ca_a = crypto::GenerateRsaKey(512, &rng_);
  crypto::RsaPrivateKey ca_b = crypto::GenerateRsaKey(512, &rng_);
  core::PseudonymCertificate cert;
  cert.pseudonym_key = pub_;
  cert.escrow.assign(24, 0x42);
  cert.ca_signature = crypto::RsaSignFdh(ca_a, cert.CanonicalBytes());

  BatchVerifier verifier;
  EXPECT_TRUE(verifier.VerifyPseudonymCert(ca_a.PublicKey(), cert));
  EXPECT_TRUE(verifier.VerifyPseudonymCert(ca_a.PublicKey(), cert));
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca_b.PublicKey(), cert));
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca_b.PublicKey(), cert));
  EXPECT_TRUE(verifier.VerifyPseudonymCert(ca_a.PublicKey(), cert));
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.full_verifies, 2u);  // one per (CA key, cert) pair
  EXPECT_EQ(stats.cert_cache_hits, 3u);
}

// -- content provider batch fast path ---------------------------------------

class ShardedProviderTest : public ::testing::Test {
 protected:
  ShardedProviderTest()
      : rng_("sharded-cp-test"),
        ca_(512, &rng_),
        ttp_(512, &rng_),
        bank_(512, &rng_),
        cp_(Config(), &rng_, &clock_, &bank_, ca_.PublicKey()),
        card_("Sam", 512, &rng_) {
    card_.StoreIdentityCertificate(ca_.Enrol("Sam", card_.MasterKey()));
    bank_.OpenAccount("sam", 10000);
    content_ = cp_.Publish("Album", std::vector<std::uint8_t>(64, 0x5a), 30,
                           rel::Rights::FullRetail());
  }

  static core::ContentProviderConfig Config() {
    core::ContentProviderConfig c;
    c.signing_key_bits = 512;
    c.redeem_shards = 2;
    return c;
  }

  core::Pseudonym* NewPseudonym() {
    core::PseudonymRequest req =
        card_.BeginPseudonym(ca_.PublicKey(), ttp_.EscrowKey());
    bignum::BigInt sig =
        ca_.SignPseudonymBlinded(card_.CardId(), req.blinding.blinded);
    return card_.FinishPseudonym(std::move(req), sig, ca_.PublicKey());
  }

  std::vector<core::Coin> Pay(std::uint64_t amount) {
    std::vector<core::Coin> coins;
    for (auto d : core::PlanCoins(amount)) {
      core::Coin coin;
      rng_.Fill(coin.serial.data(), coin.serial.size());
      coin.denomination = d;
      const auto& key = bank_.DenominationKey(d);
      auto ctx = crypto::BlindMessage(key, coin.CanonicalBytes(), &rng_);
      bignum::BigInt blind_sig;
      EXPECT_EQ(bank_.Withdraw("sam", d, ctx.blinded, &blind_sig),
                Status::kOk);
      coin.signature = crypto::Unblind(key, ctx, blind_sig);
      coins.push_back(coin);
    }
    return coins;
  }

  /// Buys and exchanges one license, returning the anonymous bearer.
  rel::License NewBearer(core::Pseudonym* p) {
    auto bought = cp_.Purchase(p->cert, content_, Pay(30));
    EXPECT_EQ(bought.status, Status::kOk);
    auto sig = card_.SignWithPseudonym(
        p->cert.KeyId(),
        core::ContentProvider::TransferChallengeBytes(bought.license.id));
    auto exch = cp_.ExchangeForAnonymous(bought.license, sig);
    EXPECT_EQ(exch.status, Status::kOk);
    return exch.anonymous_license;
  }

  crypto::HmacDrbg rng_;
  core::SimClock clock_;
  core::CertificationAuthority ca_;
  core::TrustedThirdParty ttp_;
  core::PaymentProvider bank_;
  core::ContentProvider cp_;
  core::SmartCard card_;
  rel::ContentId content_ = 0;
};

TEST_F(ShardedProviderTest, BatchRedeemMatchesItemSemantics) {
  core::Pseudonym* giver = NewPseudonym();
  core::Pseudonym* taker = NewPseudonym();
  rel::License bearer_a = NewBearer(giver);
  rel::License bearer_b = NewBearer(giver);

  // A genuine batch with a duplicate: the whole batch costs 4 full
  // verifications, one per license signature plus one for the single
  // distinct certificate (its repeats are cache hits).
  auto before = cp_.BatchVerifyStats();
  std::vector<core::ContentProvider::RedeemItem> items = {
      {bearer_a, taker->cert},
      {bearer_a, taker->cert},  // duplicate inside the batch
      {bearer_b, taker->cert},
  };
  auto results = cp_.RedeemAnonymousBatch(items);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, Status::kOk);
  EXPECT_EQ(results[1].status, Status::kAlreadySpent);
  EXPECT_EQ(results[2].status, Status::kOk);
  EXPECT_EQ(results[0].license.bound_key, taker->cert.KeyId());
  EXPECT_FALSE(results[0].license.wrapped_content_key.empty());

  auto delta = cp_.BatchVerifyStats() - before;
  EXPECT_EQ(delta.full_verifies, 4u);
  EXPECT_GT(delta.cert_cache_hits, 0u);
  EXPECT_EQ(delta.screen_failures, 0u);

  // The in-batch duplicate is a detected double redemption with evidence.
  EXPECT_EQ(cp_.DoubleRedemptionAttempts(), 1u);
  auto evidence = cp_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].first.license_id, bearer_a.id);

  // A tampered license in a later batch fails alone, and the honest item
  // still reports correctly.
  rel::License forged = bearer_b;
  forged.rights.play_count = 7;  // breaks the issuer signature
  auto mixed = cp_.RedeemAnonymousBatch(
      {{forged, taker->cert}, {bearer_b, taker->cert}});
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].status, Status::kBadSignature);
  EXPECT_EQ(mixed[1].status, Status::kAlreadySpent);
  EXPECT_GT(cp_.BatchVerifyStats().screen_failures, 0u);

  // Re-redeeming through the SINGLE-item path still hits the shards.
  auto again = cp_.RedeemAnonymous(bearer_b, taker->cert);
  EXPECT_EQ(again.status, Status::kAlreadySpent);
}

TEST_F(ShardedProviderTest, RevokedTakerRejectedInBatch) {
  core::Pseudonym* giver = NewPseudonym();
  core::Pseudonym* taker = NewPseudonym();
  rel::License bearer = NewBearer(giver);
  cp_.Revoke(taker->cert.KeyId());
  auto results = cp_.RedeemAnonymousBatch({{bearer, taker->cert}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, Status::kRevoked);
  // The bearer was not burned by the failed attempt.
  core::Pseudonym* honest = NewPseudonym();
  EXPECT_EQ(cp_.RedeemAnonymous(bearer, honest->cert).status, Status::kOk);
}

}  // namespace
}  // namespace server
}  // namespace p2drm
