// Stores: Bloom filter, spent set (flat table), revocation list, CRC log.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unistd.h>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/drbg.h"
#include "store/append_log.h"
#include "store/bloom_filter.h"
#include "store/revocation_list.h"
#include "store/flat_table.h"

namespace p2drm {
namespace store {
namespace {

rel::LicenseId Id(std::uint64_t n) {
  rel::LicenseId id;
  for (int i = 0; i < 8; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  // Spread into the upper half too, so ids differ in many bytes.
  for (int i = 8; i < 16; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>((n * 2654435761u) >> (8 * (i - 8)));
  }
  return id;
}

rel::DeviceId Dev(std::uint64_t n) {
  rel::DeviceId d{};
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return d;
}

// -- Bloom filter -----------------------------------------------------------

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto id = Id(i);
    bf.Insert(id.bytes.data(), id.bytes.size());
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto id = Id(i);
    EXPECT_TRUE(bf.MayContain(id.bytes.data(), id.bytes.size())) << i;
  }
}

TEST(BloomFilter, FalsePositiveRateReasonable) {
  BloomFilter bf(10000, 10);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    auto id = Id(i);
    bf.Insert(id.bytes.data(), id.bytes.size());
  }
  int fp = 0;
  for (std::uint64_t i = 100000; i < 110000; ++i) {
    auto id = Id(i);
    if (bf.MayContain(id.bytes.data(), id.bytes.size())) ++fp;
  }
  // 10 bits/entry → ~1% theoretical; allow generous 3%.
  EXPECT_LT(fp, 300);
}

TEST(BloomFilter, EmptyFilterRejectsEverything) {
  BloomFilter bf(100);
  auto id = Id(1);
  EXPECT_FALSE(bf.MayContain(id.bytes.data(), id.bytes.size()));
  EXPECT_DOUBLE_EQ(bf.FillRatio(), 0.0);
}

TEST(BloomFilter, FillRatioGrows) {
  BloomFilter bf(100, 10);
  double prev = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto id = Id(i);
    bf.Insert(id.bytes.data(), id.bytes.size());
  }
  EXPECT_GT(bf.FillRatio(), prev);
  EXPECT_LT(bf.FillRatio(), 0.8);  // near 0.5 at design load
}

// -- Spent set: FlatIdTable against a std::unordered_set reference ----------

TEST(SpentSet, InsertContainsBasics) {
  FlatIdTable set;
  EXPECT_FALSE(set.Contains(Id(1)));
  EXPECT_TRUE(set.Insert(Id(1)));
  EXPECT_TRUE(set.Contains(Id(1)));
  EXPECT_FALSE(set.Contains(Id(2)));
  EXPECT_EQ(set.Size(), 1u);
}

TEST(SpentSet, DoubleInsertRejected) {
  FlatIdTable set;
  EXPECT_TRUE(set.Insert(Id(42)));
  EXPECT_FALSE(set.Insert(Id(42)));  // the double-redemption signal
  EXPECT_EQ(set.Size(), 1u);
}

TEST(SpentSet, ManyEntriesAllFound) {
  FlatIdTable set;
  constexpr std::uint64_t kN = 500;
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_TRUE(set.Insert(Id(i)));
  EXPECT_EQ(set.Size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_TRUE(set.Contains(Id(i)));
  for (std::uint64_t i = kN; i < kN + 100; ++i) {
    EXPECT_FALSE(set.Contains(Id(i)));
  }
}

TEST(SpentSet, MemoryAccountingNonZero) {
  FlatIdTable set;
  EXPECT_EQ(set.MemoryBytes(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) set.Insert(Id(i));
  EXPECT_GT(set.MemoryBytes(), 100u * 16u);
}

// Differential: the flat table must agree with unordered_set operation by
// operation under a randomized, duplicate-heavy workload that crosses many
// rehash boundaries (the table starts at 64 slots and doubles at 7/8 load,
// so 40k distinct ids force ~10 rehashes mid-stream).
TEST(SpentSet, FlatMatchesHashSetRandomized) {
  FlatIdTable flat;
  std::unordered_set<rel::LicenseId> hash;
  crypto::HmacDrbg rng("flat-differential");
  for (int i = 0; i < 120000; ++i) {
    auto id = Id(rng.NextUint64(40000));  // ~3x duplicates
    if (rng.NextUint64(4) == 0) {
      ASSERT_EQ(flat.Contains(id), hash.count(id) != 0) << "op " << i;
    } else {
      ASSERT_EQ(flat.Insert(id), hash.insert(id).second) << "op " << i;
    }
  }
  ASSERT_EQ(flat.Size(), hash.size());
  // Post-hoc sweep: every id the hash set holds must probe present in the
  // flat table, and a disjoint range must probe absent.
  for (std::uint64_t i = 0; i < 40000; ++i) {
    ASSERT_EQ(flat.Contains(Id(i)), hash.count(Id(i)) != 0) << i;
  }
  for (std::uint64_t i = 40000; i < 41000; ++i) {
    ASSERT_FALSE(flat.Contains(Id(i)));
  }
}

// The batch APIs must be bit-identical to N scalar calls — including the
// first-wins rule for duplicates INSIDE one batch (the runtime journals
// exactly the fresh ids, so a double-counted duplicate would double-journal).
// Scalar calls are checked on a second flat table and on the reference set.
TEST(SpentSet, BatchApisMatchScalar) {
  FlatIdTable batched;
  FlatIdTable scalar;
  std::unordered_set<rel::LicenseId> reference;
  crypto::HmacDrbg rng("batch-differential");
  std::vector<rel::LicenseId> ids;
  for (int round = 0; round < 40; ++round) {
    // Odd batch sizes exercise the pipelined window's tail handling.
    std::size_t n = 1 + rng.NextUint64(97);
    ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(Id(rng.NextUint64(800)));
    }
    // A guaranteed in-batch duplicate pair: first wins, second does not.
    if (n >= 2) ids[n - 1] = ids[0];
    std::vector<std::uint8_t> fresh(n, 0xAA), hit(n, 0xAA);
    batched.InsertBatch(ids.data(), n, fresh.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fresh[i] != 0, scalar.Insert(ids[i]))
          << "round " << round << " item " << i;
      ASSERT_EQ(fresh[i] != 0, reference.insert(ids[i]).second)
          << "round " << round << " item " << i;
    }
    if (n >= 2) {
      ASSERT_EQ(fresh[n - 1], 0) << "round " << round;
    }
    batched.ContainsBatch(ids.data(), n, hit.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hit[i] != 0, scalar.Contains(ids[i]))
          << "round " << round << " item " << i;
    }
  }
  ASSERT_EQ(batched.Size(), scalar.Size());
  ASSERT_EQ(batched.Size(), reference.size());
}

// Replaying the same import twice (duplicate ImportSpent) must be a no-op
// the second time — InsertBatch reports nothing fresh and the size and
// footprint are unchanged. This is the idempotency the journal-replay path
// (server_runtime.cpp ReplayJournals) depends on.
TEST(SpentSet, DuplicateImportReplayIsIdempotent) {
  FlatIdTable set;
  constexpr std::size_t kN = 5000;
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t i = 0; i < kN; ++i) ids.push_back(Id(i));
  std::vector<std::uint8_t> fresh(kN, 0);
  set.InsertBatch(ids.data(), kN, fresh.data());
  for (std::size_t i = 0; i < kN; ++i) ASSERT_TRUE(fresh[i]) << i;
  const std::size_t bytes = set.MemoryBytes();
  // Second replay of the identical import.
  set.InsertBatch(ids.data(), kN, fresh.data());
  for (std::size_t i = 0; i < kN; ++i) ASSERT_FALSE(fresh[i]) << i;
  ASSERT_EQ(set.Size(), kN);
  ASSERT_EQ(set.MemoryBytes(), bytes);
}

// Rehash boundaries: inserting one-at-a-time versus in one batch must land
// on the same table geometry (MemoryBytes is exact, so equality proves the
// rehash points depend only on the insert sequence).
TEST(SpentSet, FlatRehashDeterministicAcrossBatching) {
  FlatIdTable one_by_one;
  FlatIdTable in_batches;
  constexpr std::size_t kN = 3000;  // crosses several doublings from 64
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t i = 0; i < kN; ++i) ids.push_back(Id(i * 7 + 1));
  for (const auto& id : ids) one_by_one.Insert(id);
  std::vector<std::uint8_t> fresh(kN, 0);
  // Deliberately awkward chunk sizes straddling the doubling points.
  for (std::size_t base = 0; base < kN;) {
    std::size_t n = std::min<std::size_t>(kN - base, 13 + base % 50);
    in_batches.InsertBatch(ids.data() + base, n, fresh.data());
    base += n;
  }
  EXPECT_EQ(one_by_one.Size(), in_batches.Size());
  EXPECT_EQ(one_by_one.MemoryBytes(), in_batches.MemoryBytes());
  EXPECT_GT(one_by_one.MemoryBytes(), kN * 16u);  // honest: holds the ids
}

// -- RevocationList -----------------------------------------------------------

class CrlTest : public ::testing::TestWithParam<CrlStrategy> {};

TEST_P(CrlTest, RevokeAndCheck) {
  RevocationList crl(GetParam(), 100);
  EXPECT_FALSE(crl.IsRevoked(Dev(1)));
  crl.Revoke(Dev(1));
  EXPECT_TRUE(crl.IsRevoked(Dev(1)));
  EXPECT_FALSE(crl.IsRevoked(Dev(2)));
  EXPECT_EQ(crl.Size(), 1u);
}

TEST_P(CrlTest, VersionBumpsOncePerNewEntry) {
  RevocationList crl(GetParam(), 100);
  EXPECT_EQ(crl.Version(), 0u);
  crl.Revoke(Dev(1));
  EXPECT_EQ(crl.Version(), 1u);
  crl.Revoke(Dev(1));  // idempotent
  EXPECT_EQ(crl.Version(), 1u);
  crl.Revoke(Dev(2));
  EXPECT_EQ(crl.Version(), 2u);
}

TEST_P(CrlTest, SerializeRoundTrip) {
  RevocationList crl(GetParam(), 100);
  for (std::uint64_t i = 0; i < 50; ++i) crl.Revoke(Dev(i));
  auto bytes = crl.Serialize();
  RevocationList back =
      RevocationList::Deserialize(bytes, CrlStrategy::kSortedSet);
  EXPECT_EQ(back.Version(), crl.Version());
  EXPECT_EQ(back.Size(), crl.Size());
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(back.IsRevoked(Dev(i)));
  EXPECT_FALSE(back.IsRevoked(Dev(99)));
}

TEST_P(CrlTest, EntriesSnapshot) {
  RevocationList crl(GetParam(), 10);
  crl.Revoke(Dev(3));
  crl.Revoke(Dev(7));
  auto entries = crl.Entries();
  EXPECT_EQ(entries.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CrlTest,
                         ::testing::Values(CrlStrategy::kSortedSet,
                                           CrlStrategy::kBloomFronted));

// -- AppendLog ---------------------------------------------------------------

class AppendLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "append_log_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(AppendLogTest, AppendAndReplay) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3});
    log.Append({});
    log.Append({9});
    EXPECT_EQ(log.AppendedRecords(), 3u);
  }
  std::vector<std::vector<std::uint8_t>> records;
  std::size_t n = AppendLog::Replay(
      path_, [&records](const std::vector<std::uint8_t>& r) {
        records.push_back(r);
      });
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(records[1].empty());
  EXPECT_EQ(records[2], (std::vector<std::uint8_t>{9}));
}

TEST_F(AppendLogTest, MissingFileReplaysNothing) {
  std::size_t n = AppendLog::Replay(path_ + ".nope",
                                    [](const std::vector<std::uint8_t>&) {});
  EXPECT_EQ(n, 0u);
}

TEST_F(AppendLogTest, TornTailStopsCleanly) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3});
    log.Append({4, 5, 6});
  }
  // Truncate mid-record.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 2), 0);
  std::fclose(f);

  std::vector<std::vector<std::uint8_t>> records;
  std::size_t n = AppendLog::Replay(
      path_, [&records](const std::vector<std::uint8_t>& r) {
        records.push_back(r);
      });
  EXPECT_EQ(n, 1u);  // only the intact first record
  EXPECT_EQ(records[0], (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(AppendLogTest, ReplayWithStatsReportsTornTail) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3});
    log.Append({4, 5, 6});
  }
  AppendLog::ReplayStats clean = AppendLog::ReplayWithStats(path_, nullptr);
  EXPECT_EQ(clean.delivered, 2u);
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.valid_bytes, 2u * (8 + 3));

  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 2), 0);
  std::fclose(f);

  AppendLog::ReplayStats torn = AppendLog::ReplayWithStats(path_, nullptr);
  EXPECT_EQ(torn.delivered, 1u);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.valid_bytes, 8u + 3u);  // just past the intact record
}

TEST_F(AppendLogTest, ReopenAfterTornTailTruncatesAndStaysReplayable) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3});
    log.Append({4, 5, 6});
  }
  // Crash mid-append: the second record loses its last 2 bytes.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 2), 0);
  std::fclose(f);

  // Reopening for append must truncate the torn tail FIRST — otherwise
  // this append would land behind garbage and be unreplayable forever.
  {
    AppendLog log(path_);
    log.Append({7, 8, 9});
  }
  std::vector<std::vector<std::uint8_t>> records;
  AppendLog::ReplayStats stats = AppendLog::ReplayWithStats(
      path_, [&records](const std::vector<std::uint8_t>& r) {
        records.push_back(r);
      });
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(records[1], (std::vector<std::uint8_t>{7, 8, 9}));
}

TEST_F(AppendLogTest, CorruptPayloadDetectedByCrc) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3, 4, 5});
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8 + 2, SEEK_SET);  // into the payload
  std::fputc(0xFF, f);
  std::fclose(f);

  std::size_t n =
      AppendLog::Replay(path_, [](const std::vector<std::uint8_t>&) {});
  EXPECT_EQ(n, 0u);
}

// -- group commit (AppendMany) ----------------------------------------------

TEST_F(AppendLogTest, AppendManyDeliversOneBlockCountingEachRecord) {
  // 5 fixed-width 16-byte records in one group-committed block.
  std::vector<std::uint8_t> records(5 * 16);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  {
    AppendLog log(path_);
    log.AppendMany(records.data(), 16, 5);
    // AppendedRecords counts logical records, not write() calls.
    EXPECT_EQ(log.AppendedRecords(), 5u);
  }
  // On disk the block is ONE framed record whose payload is the 5 records
  // back to back; the replay consumer is responsible for splitting it.
  std::vector<std::vector<std::uint8_t>> blocks;
  AppendLog::ReplayStats stats = AppendLog::ReplayWithStats(
      path_, [&blocks](const std::vector<std::uint8_t>& r) {
        blocks.push_back(r);
      });
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], records);
  EXPECT_EQ(stats.valid_bytes, 8u + records.size());
}

TEST_F(AppendLogTest, AppendManyMixesWithSingleRecords) {
  {
    AppendLog log(path_);
    log.Append({1, 2, 3});
    std::vector<std::uint8_t> block(3 * 16, 0x5A);
    log.AppendMany(block.data(), 16, 3);
    log.Append({7});
    EXPECT_EQ(log.AppendedRecords(), 5u);
  }
  std::vector<std::size_t> sizes;
  AppendLog::Replay(path_, [&sizes](const std::vector<std::uint8_t>& r) {
    sizes.push_back(r.size());
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 48, 1}));
}

TEST_F(AppendLogTest, AppendManyZeroRecordsWritesNothing) {
  {
    AppendLog log(path_);
    log.AppendMany(nullptr, 16, 0);
    EXPECT_EQ(log.AppendedRecords(), 0u);
  }
  std::size_t n =
      AppendLog::Replay(path_, [](const std::vector<std::uint8_t>&) {});
  EXPECT_EQ(n, 0u);
}

// The torn-tail rule for group commit: the CRC covers the WHOLE block, so a
// tear landing inside a block (not just between records) must drop the whole
// block — partial batches never replay, which is what keeps "fresh ids were
// journaled atomically with their InsertBatch group" true after a crash.
TEST_F(AppendLogTest, TornTailInsideBlockDropsWholeBlock) {
  std::vector<std::uint8_t> block(8 * 16);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i);
  }
  {
    AppendLog log(path_);
    log.Append({9, 9, 9});          // intact single record before the block
    log.AppendMany(block.data(), 16, 8);
  }
  // Tear INSIDE the block: keep its header and the first 3.5 records.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  long keep = (8 + 3) + 8 + 3 * 16 + 8;  // first record + block header + 3.5
  ASSERT_EQ(ftruncate(fileno(f), keep), 0);
  std::fclose(f);

  std::vector<std::vector<std::uint8_t>> delivered;
  AppendLog::ReplayStats stats = AppendLog::ReplayWithStats(
      path_, [&delivered](const std::vector<std::uint8_t>& r) {
        delivered.push_back(r);
      });
  EXPECT_TRUE(stats.torn_tail);
  ASSERT_EQ(delivered.size(), 1u);  // only the single record survives
  EXPECT_EQ(delivered[0], (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(stats.valid_bytes, 8u + 3u);

  // Reopening for append truncates the torn block and stays appendable —
  // a fresh group commit after the crash replays cleanly.
  {
    AppendLog log(path_);
    std::vector<std::uint8_t> fresh_block(2 * 16, 0xBB);
    log.AppendMany(fresh_block.data(), 16, 2);
  }
  delivered.clear();
  stats = AppendLog::ReplayWithStats(
      path_, [&delivered](const std::vector<std::uint8_t>& r) {
        delivered.push_back(r);
      });
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(delivered[1], std::vector<std::uint8_t>(32, 0xBB));
}

TEST_F(AppendLogTest, ReopenAppends) {
  {
    AppendLog log(path_);
    log.Append({1});
  }
  {
    AppendLog log(path_);
    log.Append({2});
  }
  std::vector<std::uint8_t> seen;
  AppendLog::Replay(path_, [&seen](const std::vector<std::uint8_t>& r) {
    seen.push_back(r[0]);
  });
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 2}));
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  std::string s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

}  // namespace
}  // namespace store
}  // namespace p2drm
