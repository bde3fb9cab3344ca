#ifndef P2DRM_STORE_FLAT_TABLE_H_
#define P2DRM_STORE_FLAT_TABLE_H_

/// \file flat_table.h
/// \brief SwissTable-style open-addressing flat table for license ids.
///
/// The spent set's hot operation is "probe one 16-byte id against millions
/// of entries"; a node-based `unordered_set` pays a heap allocation per
/// insert and a pointer chase per probe. This table stores ids inline in
/// one flat slot array and keeps a parallel byte of metadata per slot
/// (the "control byte"), so one 16-byte metadata load answers "which of
/// these 16 slots could match?" before any id memory is touched:
///
///   ctrl[i]  = kEmpty (0x80)           — slot i has never held an id
///   ctrl[i]  = H2(hash) in [0, 0x7f]   — slot i holds an id whose hash
///                                        has these low 7 bits
///
/// A probe splits the 64-bit mixed hash into H1 (everything above the low
/// 7 bits — picks the starting group) and H2 (the low 7 bits — the byte
/// sought inside each group). Groups are aligned runs of 16 control
/// bytes, compared 16-at-a-time with SSE2 (`_mm_cmpeq_epi8` +
/// `_mm_movemask_epi8`) or a portable per-byte fallback. Because the set
/// never erases (spent ids stay spent), there are no tombstones: kEmpty
/// is the only control value with the high bit set, so the group's
/// movemask of high bits *is* its empty mask, and the first group
/// containing an empty slot terminates an unsuccessful probe — and is
/// exactly where the insert lands.
///
/// Capacity is a power of two; groups are visited in triangular order
/// (g, g+1, g+3, g+6, ...) which is a permutation of all groups when the
/// group count is a power of two. The table rehashes at 7/8 load.
///
/// This is the provider's one spent-set engine: each server::ServerRuntime
/// shard owns one table and calls it directly. The batch calls
/// (ContainsBatch / InsertBatch) pipeline their probes so the ~100 ns
/// cache miss of a cold probe overlaps other probes instead of stalling
/// the shard worker. See docs/storage.md.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "rel/ids.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace p2drm {
namespace store {

/// Open-addressing hash set of rel::LicenseId with 16-wide group probes.
///
/// Concurrency contract: none. All calls must be serialized by the owner
/// (the runtime pins each shard's table to that shard's worker thread).
class FlatIdTable {
 public:
  /// Control bytes scanned per probe step; one SSE2 register.
  static constexpr std::size_t kGroupWidth = 16;
  /// Rehash threshold: grow when size would exceed capacity * 7/8.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  FlatIdTable() = default;

  /// Inserts \p id; returns false (and changes nothing) if already present.
  bool Insert(const rel::LicenseId& id) { return InsertWithHash(id, Mix(id)); }

  /// True when \p id is present.
  bool Contains(const rel::LicenseId& id) const {
    return ContainsWithHash(id, Mix(id));
  }

  /// Batch probe: hit[i] = 1 iff ids[i] is present. Probes run as a
  /// 3-stage software pipeline over 16-item windows (the AMAC idea):
  /// stage 1 mixes every hash and prefetches each home control group,
  /// stage 2 reads the now-warm control bytes and prefetches the exact
  /// candidate slot line, stage 3 resolves with both lines in cache. At
  /// 10M+ entries each probe costs two dependent cache misses cold; the
  /// pipeline keeps ~16 of them in flight instead of serializing.
  void ContainsBatch(const rel::LicenseId* ids, std::size_t count,
                     std::uint8_t* hit) const {
    if (capacity_ == 0) {
      for (std::size_t i = 0; i < count; ++i) hit[i] = 0;
      return;
    }
    std::uint64_t h[kWindow];
    for (std::size_t base = 0; base < count; base += kWindow) {
      const std::size_t m =
          count - base < kWindow ? count - base : kWindow;
      for (std::size_t j = 0; j < m; ++j) {
        h[j] = Mix(ids[base + j]);
        PrefetchCtrl(h[j]);
      }
      for (std::size_t j = 0; j < m; ++j) PrefetchCandidateSlot(h[j]);
      for (std::size_t j = 0; j < m; ++j) {
        hit[base + j] = ContainsWithHash(ids[base + j], h[j]) ? 1 : 0;
      }
    }
  }

  /// Batch insert: fresh[i] = 1 iff ids[i] was absent before this call
  /// processed it (applied in order: in-batch duplicates are first-wins).
  /// Same pipeline as ContainsBatch; stage 2 additionally prefetches the
  /// group's first empty slot for the write. A rehash triggered mid-window
  /// only wastes the remaining hints — resolution never trusts them.
  void InsertBatch(const rel::LicenseId* ids, std::size_t count,
                   std::uint8_t* fresh) {
    std::uint64_t h[kWindow];
    for (std::size_t base = 0; base < count; base += kWindow) {
      const std::size_t m =
          count - base < kWindow ? count - base : kWindow;
      for (std::size_t j = 0; j < m; ++j) {
        h[j] = Mix(ids[base + j]);
        PrefetchCtrl(h[j]);
      }
      for (std::size_t j = 0; j < m; ++j) PrefetchInsertTargets(h[j]);
      for (std::size_t j = 0; j < m; ++j) {
        fresh[base + j] = InsertWithHash(ids[base + j], h[j]) ? 1 : 0;
      }
    }
  }

  std::size_t Size() const { return size_; }

  /// Exact footprint of the backing arrays: one control byte plus one
  /// inline 16-byte slot per bucket of capacity (RT-3 accounting; there
  /// is no per-entry heap node to estimate).
  std::size_t MemoryBytes() const {
    return ctrl_.capacity() * sizeof(std::uint8_t) +
           slots_.capacity() * sizeof(rel::LicenseId);
  }

 private:
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::size_t kMinCapacity = 4 * kGroupWidth;
  /// Batch-pipeline window: how many probes run their prefetch stages
  /// before the first one resolves. Sized to the memory subsystem's
  /// outstanding-miss budget (~10–16 line-fill buffers), not to taste.
  static constexpr std::size_t kWindow = 16;

  bool ContainsWithHash(const rel::LicenseId& id, std::uint64_t h) const {
    if (capacity_ == 0) return false;
    const std::uint8_t h2 = H2(h);
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    std::size_t g = (h >> 7) & group_mask;
    for (std::size_t step = 1;; ++step) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      std::uint32_t match = MatchByte(ctrl, h2);
      while (match != 0) {
        const std::size_t slot = g * kGroupWidth + CountTrailingZeros(match);
        if (slots_[slot] == id) return true;
        match &= match - 1;
      }
      // No tombstones: the first empty slot in probe order proves the id
      // was never placed past this group.
      if (MatchEmpty(ctrl) != 0) return false;
      g = (g + step) & group_mask;
    }
  }

  bool InsertWithHash(const rel::LicenseId& id, std::uint64_t h) {
    if (growth_left_ == 0 && !ContainsWithHash(id, h)) {
      Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    }
    const std::uint8_t h2 = H2(h);
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    std::size_t g = (h >> 7) & group_mask;
    for (std::size_t step = 1;; ++step) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      std::uint32_t match = MatchByte(ctrl, h2);
      while (match != 0) {
        const std::size_t slot = g * kGroupWidth + CountTrailingZeros(match);
        if (slots_[slot] == id) return false;
        match &= match - 1;
      }
      const std::uint32_t empty = MatchEmpty(ctrl);
      if (empty != 0) {
        const std::size_t slot = g * kGroupWidth + CountTrailingZeros(empty);
        ctrl_[slot] = h2;
        slots_[slot] = id;
        ++size_;
        --growth_left_;
        return true;
      }
      g = (g + step) & group_mask;
    }
  }

  /// Pipeline stage 1: pull the home control group's cache line.
  void PrefetchCtrl(std::uint64_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    if (capacity_ == 0) return;
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    __builtin_prefetch(ctrl_.data() + ((h >> 7) & group_mask) * kGroupWidth);
#else
    (void)h;
#endif
  }

  /// Pipeline stage 2 (probe): with the control group warm, compute the
  /// first H2 candidate and pull exactly its slot line — the id compare
  /// in stage 3 is the only dependent load left.
  void PrefetchCandidateSlot(std::uint64_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    if (capacity_ == 0) return;
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    const std::size_t base = ((h >> 7) & group_mask) * kGroupWidth;
    const std::uint32_t match = MatchByte(ctrl_.data() + base, H2(h));
    if (match != 0) {
      __builtin_prefetch(slots_.data() + base + CountTrailingZeros(match));
    }
#else
    (void)h;
#endif
  }

  /// Pipeline stage 2 (insert): also pull the group's first empty slot
  /// for the likely write.
  void PrefetchInsertTargets(std::uint64_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    if (capacity_ == 0) return;
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    const std::size_t base = ((h >> 7) & group_mask) * kGroupWidth;
    const std::uint8_t* ctrl = ctrl_.data() + base;
    const std::uint32_t match = MatchByte(ctrl, H2(h));
    if (match != 0) {
      __builtin_prefetch(slots_.data() + base + CountTrailingZeros(match));
    }
    const std::uint32_t empty = MatchEmpty(ctrl);
    if (empty != 0) {
      __builtin_prefetch(slots_.data() + base + CountTrailingZeros(empty), 1);
    }
#else
    (void)h;
#endif
  }

  /// 64-bit mix of the id. Deliberately NOT std::hash<LicenseId> (which
  /// folds only the first 8 bytes) and NOT the ShardRouter's splitmix64
  /// placement hash: within one shard every id lands in the same residue
  /// class of the router's hash, so reusing it would correlate H1 across
  /// a shard's whole key population. Murmur3's 64-bit finalizer over both
  /// halves keeps group indices independent of shard routing.
  static std::uint64_t Mix(const rel::LicenseId& id) {
    std::uint64_t lo, hi;
    std::memcpy(&lo, id.bytes.data(), 8);
    std::memcpy(&hi, id.bytes.data() + 8, 8);
    std::uint64_t z = lo ^ (hi * 0xc2b2ae3d27d4eb4full);
    z ^= z >> 33;
    z *= 0xff51afd7ed558ccdull;
    z ^= z >> 33;
    z *= 0xc4ceb9fe1a85ec53ull;
    z ^= z >> 33;
    return z;
  }

  static std::uint8_t H2(std::uint64_t h) {
    return static_cast<std::uint8_t>(h & 0x7f);
  }

  static int CountTrailingZeros(std::uint32_t mask) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctz(mask);
#else
    int n = 0;
    while ((mask & 1u) == 0) {
      mask >>= 1;
      ++n;
    }
    return n;
#endif
  }

  /// Bit i of the result is set when ctrl[i] == b (b < 0x80).
  static std::uint32_t MatchByte(const std::uint8_t* ctrl, std::uint8_t b) {
#if defined(__SSE2__)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(b));
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#else
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      if (ctrl[i] == b) mask |= 1u << i;
    }
    return mask;
#endif
  }

  /// Bit i of the result is set when ctrl[i] is empty. kEmpty is the only
  /// control value with the high bit set (no tombstones), so this is just
  /// the group's sign-bit mask.
  static std::uint32_t MatchEmpty(const std::uint8_t* ctrl) {
#if defined(__SSE2__)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(group));
#else
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      if (ctrl[i] & 0x80u) mask |= 1u << i;
    }
    return mask;
#endif
  }

  /// Re-places an id known absent during rehash: probe straight to the
  /// first empty slot, no equality checks.
  void InsertUnique(const rel::LicenseId& id) {
    const std::uint64_t h = Mix(id);
    const std::size_t group_mask = capacity_ / kGroupWidth - 1;
    std::size_t g = (h >> 7) & group_mask;
    for (std::size_t step = 1;; ++step) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      const std::uint32_t empty = MatchEmpty(ctrl);
      if (empty != 0) {
        const std::size_t slot = g * kGroupWidth + CountTrailingZeros(empty);
        ctrl_[slot] = H2(h);
        slots_[slot] = id;
        return;
      }
      g = (g + step) & group_mask;
    }
  }

  void Rehash(std::size_t new_capacity) {
    const std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    const std::vector<rel::LicenseId> old_slots = std::move(slots_);
    const std::size_t old_capacity = capacity_;
    capacity_ = new_capacity;
    ctrl_.assign(capacity_, kEmpty);
    slots_.assign(capacity_, rel::LicenseId{});
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if ((old_ctrl[i] & 0x80u) == 0) InsertUnique(old_slots[i]);
    }
    growth_left_ = capacity_ / kMaxLoadDen * kMaxLoadNum - size_;
  }

  std::size_t capacity_ = 0;  // power of two, multiple of kGroupWidth
  std::size_t size_ = 0;
  std::size_t growth_left_ = 0;  // inserts remaining before rehash
  std::vector<std::uint8_t> ctrl_;
  std::vector<rel::LicenseId> slots_;
};

}  // namespace store
}  // namespace p2drm

#endif  // P2DRM_STORE_FLAT_TABLE_H_
