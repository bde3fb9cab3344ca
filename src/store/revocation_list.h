#ifndef P2DRM_STORE_REVOCATION_LIST_H_
#define P2DRM_STORE_REVOCATION_LIST_H_

/// \file revocation_list.h
/// \brief Device/key revocation list (CRL) with an optional Bloom negative
/// cache.
///
/// Compliant devices must refuse to cooperate with revoked peers, and the
/// content provider refuses purchases from revoked pseudonym issuers. The
/// CRL is versioned so devices can sync deltas; membership checks are the
/// subject of the RF-3 experiment (bloom-fronted vs sorted; the bench
/// keeps a linear-scan strawman of its own).

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "rel/ids.h"
#include "store/bloom_filter.h"

namespace p2drm {
namespace store {

/// Membership strategy for RF-3.
enum class CrlStrategy : std::uint8_t {
  kSortedSet = 0,       ///< std::set lookup only
  kBloomFronted = 1,    ///< Bloom filter negative cache, set on maybe
};

/// Versioned revocation list over 32-byte device / key identifiers.
class RevocationList {
 public:
  explicit RevocationList(CrlStrategy strategy = CrlStrategy::kBloomFronted,
                          std::size_t expected_entries = 1024);

  /// Adds \p id; bumps the version. Idempotent (re-adding does not bump).
  void Revoke(const rel::DeviceId& id);

  /// True when \p id is revoked.
  bool IsRevoked(const rel::DeviceId& id) const;

  /// Monotonic version; devices use it to detect stale local copies.
  std::uint64_t Version() const { return version_; }

  std::size_t Size() const { return members_.size(); }

  /// Snapshot of all revoked identifiers (device CRL sync).
  std::vector<rel::DeviceId> Entries() const;

  /// Serialized snapshot (version + all entries) for distribution.
  std::vector<std::uint8_t> Serialize() const;
  static RevocationList Deserialize(const std::vector<std::uint8_t>& bytes,
                                    CrlStrategy strategy);

  /// Approximate memory (RT-3).
  std::size_t MemoryBytes() const;

  CrlStrategy strategy() const { return strategy_; }

 private:
  CrlStrategy strategy_;
  std::uint64_t version_ = 0;
  std::set<rel::DeviceId> members_;
  std::unique_ptr<BloomFilter> bloom_;
};

}  // namespace store
}  // namespace p2drm

#endif  // P2DRM_STORE_REVOCATION_LIST_H_
