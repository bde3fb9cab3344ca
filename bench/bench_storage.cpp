// RT-3: Storage overhead per actor, plus the spent-set storage-engine
// sweep (docs/storage.md).
//
// Prints the serialized size of every persistent artifact — licenses (both
// kinds, across modulus sizes), certificates, coins — and the per-entry
// cost of the provider's spent set and CRL. Regenerates the paper's
// storage-cost accounting. The sweep section then drives the flat table
// and a bench-local std::unordered_set baseline through 1M/10M-entry
// insert/contains workloads via the batch API; tools/check_storage_perf.py
// gates flat contains throughput at >= 2x hash-set at 10M entries.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/certificates.h"
#include "core/payment.h"
#include "core/smartcard.h"
#include "core/system.h"
#include "core/agent.h"
#include "sim/bench_report.h"
#include "crypto/drbg.h"
#include "store/flat_table.h"
#include "store/revocation_list.h"

namespace {

using namespace p2drm;        // NOLINT
using namespace p2drm::core;  // NOLINT

void Line(const char* what, std::size_t bytes, const char* note = "") {
  std::printf("%-44s %8zu B   %s\n", what, bytes, note);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Deterministic sweep ids: splitmix64 over (tag, index) filling both id
// halves, so neither std::hash's first-8-byte fold nor the flat table's
// mixer sees degenerate keys.
rel::LicenseId SweepId(std::uint64_t tag, std::uint64_t i) {
  std::uint64_t z = (i + 1) * 0x9e3779b97f4a7c15ull + tag;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  rel::LicenseId id;
  std::memcpy(id.bytes.data(), &z, 8);
  std::uint64_t w = z ^ (tag * 0xc2b2ae3d27d4eb4full) ^ i;
  std::memcpy(id.bytes.data() + 8, &w, 8);
  return id;
}

/// The hash-set baseline: std::unordered_set behind FlatIdTable's batch
/// interface (scalar loops), with an honest node-based footprint.
struct HashSetIds {
  bool Insert(const rel::LicenseId& id) { return set.insert(id).second; }
  void InsertBatch(const rel::LicenseId* ids, std::size_t count,
                   std::uint8_t* fresh) {
    for (std::size_t i = 0; i < count; ++i) fresh[i] = Insert(ids[i]) ? 1 : 0;
  }
  void ContainsBatch(const rel::LicenseId* ids, std::size_t count,
                     std::uint8_t* hit) const {
    for (std::size_t i = 0; i < count; ++i) hit[i] = set.count(ids[i]) ? 1 : 0;
  }
  std::size_t Size() const { return set.size(); }
  /// Per node: the id plus the forward-list next pointer (libstdc++ does
  /// not cache the hash code because std::hash<LicenseId> is noexcept),
  /// plus the bucket array of head pointers, counted even when sparse.
  std::size_t MemoryBytes() const {
    const std::size_t node = sizeof(rel::LicenseId) + sizeof(void*);
    return set.size() * node + set.bucket_count() * sizeof(void*);
  }
  std::unordered_set<rel::LicenseId> set;
};

/// One container x one table size: timed batch insert, contains-hit, and
/// contains-miss passes (4096-id chunks, the shard hot path's shape).
template <class Set>
void SweepBackend(sim::BenchReport* report, const char* name,
                  std::size_t entries,
                  const std::vector<rel::LicenseId>& present,
                  const std::vector<rel::LicenseId>& absent) {
  constexpr std::size_t kChunk = 4096;
  Set set;
  std::vector<std::uint8_t> flags(kChunk);
  std::size_t bad = 0;

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < entries; base += kChunk) {
    const std::size_t n = std::min(kChunk, entries - base);
    set.InsertBatch(present.data() + base, n, flags.data());
    for (std::size_t j = 0; j < n; ++j) bad += flags[j] == 0;
  }
  const double insert_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < entries; base += kChunk) {
    const std::size_t n = std::min(kChunk, entries - base);
    set.ContainsBatch(present.data() + base, n, flags.data());
    for (std::size_t j = 0; j < n; ++j) bad += flags[j] == 0;
  }
  const double hit_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < entries; base += kChunk) {
    const std::size_t n = std::min(kChunk, entries - base);
    set.ContainsBatch(absent.data() + base, n, flags.data());
    for (std::size_t j = 0; j < n; ++j) bad += flags[j] != 0;
  }
  const double miss_s = SecondsSince(t0);

  if (bad != 0 || set.Size() != entries) {
    std::fprintf(stderr, "FAIL: sweep semantic check (%zu bad, size %zu)\n",
                 bad, set.Size());
    std::exit(1);
  }

  const double m = static_cast<double>(entries) / 1e6;
  const std::string key =
      "sweep." + std::to_string(entries) + "." + name + ".";
  const double insert_mops = m / insert_s;
  const double hit_mops = m / hit_s;
  const double miss_mops = m / miss_s;
  const double bpe = static_cast<double>(set.MemoryBytes()) /
                     static_cast<double>(entries);
  std::printf(
      "%10zu x %-13s insert %7.1f Mops/s   hit %7.1f Mops/s   miss %7.1f "
      "Mops/s   %5.1f B/entry\n",
      entries, name, insert_mops, hit_mops, miss_mops, bpe);
  report->Metric(key + "insert_mops", insert_mops);
  report->Metric(key + "contains_hit_mops", hit_mops);
  report->Metric(key + "contains_miss_mops", miss_mops);
  report->Metric(key + "bytes_per_entry", bpe);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  p2drm::sim::BenchReport report("bench_storage");
  report.ConfigNote("key_bits_swept", "512,1024");
  report.ConfigNote("seed", "storage-<bits>");
  // Storage-engine sweep parameters (docs/storage.md); the CI gate
  // asserts these so a silently changed table geometry cannot masquerade
  // as a perf win or loss.
  report.ConfigMetric("spent_flat_group_width",
                      static_cast<double>(store::FlatIdTable::kGroupWidth));
  report.ConfigMetric(
      "spent_flat_max_load_factor",
      static_cast<double>(store::FlatIdTable::kMaxLoadNum) /
          static_cast<double>(store::FlatIdTable::kMaxLoadDen));
  report.ConfigNote("spent_sweep_backends", "hash-set,flat");
  report.ConfigNote("spent_sweep_entries",
                    smoke ? "200000" : "1000000,10000000");
  std::printf("RT-3: storage overhead per artifact and per actor\n");
  std::printf("%s\n", std::string(84, '-').c_str());

  for (std::size_t bits : {512u, 1024u}) {
    crypto::HmacDrbg rng("storage-" + std::to_string(bits));
    SystemConfig cfg;
    cfg.ca_key_bits = bits;
    cfg.ttp_key_bits = bits;
    cfg.bank_key_bits = bits;
    cfg.cp.signing_key_bits = bits;
    P2drmSystem system(cfg, &rng);
    rel::ContentId c = system.cp().Publish(
        "X", std::vector<std::uint8_t>(16, 1), 5, rel::Rights::FullRetail());

    AgentConfig acfg;
    acfg.pseudonym_bits = bits;
    acfg.initial_bank_balance = 1000;
    UserAgent alice("alice-" + std::to_string(bits), acfg, &system, &rng);

    rel::License lic;
    if (alice.BuyContent(c, &lic) != Status::kOk) {
      std::fprintf(stderr, "setup purchase failed\n");
      return 1;
    }
    std::vector<std::uint8_t> bearer;
    if (alice.GiveLicense(lic.id, &bearer) != Status::kOk) {
      std::fprintf(stderr, "setup exchange failed\n");
      return 1;
    }

    Pseudonym* p = alice.card().pseudonyms().front().get();
    std::printf("\n-- %zu-bit keys --\n", bits);
    Line("user-bound license (incl. wrapped CK)", lic.SerializedSize());
    Line("anonymous (bearer) license", bearer.size(),
         "no key, no wrapped CK");
    Line("pseudonym certificate", p->cert.Serialize().size(),
         "key + TTP escrow + CA sig");
    Line("device certificate",
         alice.device().Certificate().Serialize().size());

    Coin coin;
    coin.denomination = 1;
    coin.signature.assign(bits / 8, 0);
    Line("e-cash coin", coin.Serialize().size(), "serial + denom + sig");
  }

  std::printf("\n-- provider-side per-entry costs --\n");
  {
    store::FlatIdTable flat;
    HashSetIds hash;
    for (std::uint64_t i = 0; i < 100000; ++i) {
      rel::LicenseId id;
      for (int b = 0; b < 8; ++b) {
        id.bytes[b] = static_cast<std::uint8_t>(i >> (8 * b));
      }
      id.bytes[15] = static_cast<std::uint8_t>(i * 7);
      flat.Insert(id);
      hash.Insert(id);
    }
    std::printf("%-44s %8.1f B/entry\n", "spent set (flat, resident)",
                static_cast<double>(flat.MemoryBytes()) / 100000.0);
    std::printf("%-44s %8.1f B/entry\n", "spent set (hash-set, resident)",
                static_cast<double>(hash.MemoryBytes()) / 100000.0);
    report.Metric("spent_set.flat_bytes_per_entry",
                  static_cast<double>(flat.MemoryBytes()) / 100000.0);
    report.Metric("spent_set.hash_bytes_per_entry",
                  static_cast<double>(hash.MemoryBytes()) / 100000.0);
    Line("spent-set journal, per id", 16,
         "+ 8 B length/crc per group-commit block");
  }
  {
    store::RevocationList crl(store::CrlStrategy::kBloomFronted, 100000);
    for (std::uint64_t i = 0; i < 100000; ++i) {
      rel::DeviceId d{};
      for (int b = 0; b < 8; ++b) d[b] = static_cast<std::uint8_t>(i >> (8 * b));
      crl.Revoke(d);
    }
    std::printf("%-44s %8.1f B/entry\n",
                "revocation list (bloom-fronted, resident)",
                static_cast<double>(crl.MemoryBytes()) / 100000.0);
    report.Metric("crl.bloom_fronted_bytes_per_entry",
                  static_cast<double>(crl.MemoryBytes()) / 100000.0);
    std::printf("%-44s %8.1f B/entry\n", "CRL wire snapshot",
                static_cast<double>(crl.Serialize().size()) / 100000.0);
  }

  std::printf("\n-- spent-set storage-engine sweep (batch API, 4096-id "
              "chunks) --\n");
  {
    std::vector<std::size_t> sizes;
    if (smoke) {
      sizes = {200000};
    } else {
      sizes = {1000000, 10000000};
    }
    for (std::size_t entries : sizes) {
      std::vector<rel::LicenseId> present(entries);
      std::vector<rel::LicenseId> absent(entries);
      for (std::size_t i = 0; i < entries; ++i) {
        present[i] = SweepId(0x11, i);
        absent[i] = SweepId(0x22, i);
      }
      // One table alive at a time: at 10M entries each is a few hundred
      // MB, and the sweep compares speed, not coexistence.
      SweepBackend<HashSetIds>(&report, "hash-set", entries, present, absent);
      SweepBackend<store::FlatIdTable>(&report, "flat", entries, present,
                                       absent);
    }
  }

  std::printf(
      "\nTakeaway: the provider's only per-customer state on the P2DRM path "
      "is 16 B/redeemed\nlicense id — no identities, no profiles. The "
      "baseline stores an identified activity row\nper operation instead.\n");
  report.WriteJsonFile();
  return 0;
}
