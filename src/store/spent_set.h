#ifndef P2DRM_STORE_SPENT_SET_H_
#define P2DRM_STORE_SPENT_SET_H_

/// \file spent_set.h
/// \brief The content provider's spent-license set.
///
/// Every anonymous license carries a unique LicenseId; the provider records
/// redeemed ids here so a copied bearer license cannot be redeemed twice.
/// This set is on the provider's hot path (one lookup + one insert per
/// redemption), so its data structure is the subject of the RF-2 ablation:
/// flat table vs hash set vs sorted vector vs linear scan. The default is
/// kFlat — a SwissTable-style open-addressing table (store/flat_table.h,
/// docs/storage.md) with no per-node allocations and 16-wide control-byte
/// group probes; kHashSet stays as the differential baseline.
///
/// SpentSetShard is one partition of the set. It deliberately has NO
/// internal locking: the sharded server runtime (server/server_runtime.h)
/// gives each shard to exactly one worker thread, which makes every
/// partition single-writer by construction. The RF-2 ablation benches use
/// a shard on its own.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "rel/ids.h"
#include "store/flat_table.h"

namespace p2drm {
namespace store {

/// Storage backend selector (RF-2 ablation).
enum class SpentSetBackend : std::uint8_t {
  kHashSet = 0,       ///< unordered_set; O(1) expected, node per entry
  kSortedVector = 1,  ///< binary search + ordered insert; O(log n)/O(n)
  kLinearScan = 2,    ///< the naive strawman; O(n)
  kFlat = 3,          ///< open-addressing flat table; O(1), allocation-free
};

const char* SpentSetBackendName(SpentSetBackend b);

/// One partition of the spent-license set.
///
/// Concurrency contract: a shard performs NO internal locking and is not
/// safe for concurrent access. The owner must guarantee that all calls on
/// a given shard are serialized (the server runtime does this by pinning
/// each shard to one worker thread; handing a shard from one thread to
/// another requires an external happens-before edge, e.g. the runtime's
/// queue). This is what makes the sharded redemption path lock-free on
/// the per-item hot path: routing replaces locking.
class SpentSetShard {
 public:
  explicit SpentSetShard(SpentSetBackend backend = SpentSetBackend::kFlat)
      : backend_(backend) {}

  /// Marks \p id spent. Returns false (and changes nothing) if it was
  /// already present — i.e. a double-redemption attempt.
  bool Insert(const rel::LicenseId& id);

  /// True when \p id has been redeemed before.
  bool Contains(const rel::LicenseId& id) const;

  /// Batch probe: hit[i] = 1 iff ids[i] is present. On the flat backend
  /// probes run as a software-pipelined window (FlatIdTable::ContainsBatch)
  /// that prefetches control and candidate-slot lines ahead of resolution,
  /// keeping many cache misses in flight instead of serializing them;
  /// other backends fall back to a scalar loop (the differential tests
  /// rely on identical semantics across backends).
  void ContainsBatch(const rel::LicenseId* ids, std::size_t count,
                     std::uint8_t* hit) const;

  /// Batch insert: fresh[i] = 1 iff ids[i] was not present before this
  /// call processed it. Items are applied in order, so a duplicate pair
  /// inside one batch marks the first occurrence fresh and the second
  /// not — the same first-wins semantics as N sequential Insert calls.
  void InsertBatch(const rel::LicenseId* ids, std::size_t count,
                   std::uint8_t* fresh);

  std::size_t Size() const;

  /// Resident memory (RT-3 storage accounting), including container
  /// bookkeeping. Flat: the exact control-byte + inline-slot arrays.
  /// Hash set: per-node id + next pointer plus the bucket array of head
  /// pointers. Vectors: capacity.
  std::size_t MemoryBytes() const;

  SpentSetBackend backend() const { return backend_; }

 private:
  SpentSetBackend backend_;
  FlatIdTable flat_;
  std::unordered_set<rel::LicenseId> hash_;
  std::vector<rel::LicenseId> sorted_;  // kept ordered
  std::vector<rel::LicenseId> linear_;  // insertion order
};

}  // namespace store
}  // namespace p2drm

#endif  // P2DRM_STORE_SPENT_SET_H_
