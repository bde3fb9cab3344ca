#include "bignum/limbs.h"

#include <algorithm>
#include <cstring>

namespace p2drm {
namespace bignum {

namespace kernel_stats {
std::atomic<std::uint64_t> scratch_heap_allocs{0};
std::atomic<std::uint64_t> powmod_fixed_512{0};
std::atomic<std::uint64_t> powmod_fixed_1024{0};
std::atomic<std::uint64_t> powmod_fixed_2048{0};
std::atomic<std::uint64_t> powmod_generic{0};
std::atomic<std::uint64_t> powmod_window_1{0};
std::atomic<std::uint64_t> powmod_window_4{0};
std::atomic<std::uint64_t> powmod_window_5{0};
std::atomic<std::uint64_t> powmod_ifma{0};
std::atomic<std::uint64_t> crt_pairs{0};
std::atomic<std::uint64_t> powmod_mb8{0};
std::atomic<std::uint64_t> karatsuba_mults{0};
}  // namespace kernel_stats

namespace {

using DoubleLimb = unsigned __int128;

// Karatsuba pays for its bookkeeping from ~20 limbs (1280 bits): below
// that the schoolbook inner loop's locality wins. RSA-2048 signing
// lives entirely under this bound (CRT halves are 16 limbs), so the
// Montgomery path never recurses here; keygen's n = p*q and the CRT
// recombination h*q do.
constexpr std::size_t kKaratsubaThreshold = 20;

// out[0..2n) = a * b with both operands n limbs wide. All temporaries
// come from the scratch arena; recursion reuses frames.
void KaratsubaEqual(Limb* out, const Limb* a, const Limb* b, std::size_t n,
                    Scratch* scratch) {
  if (n < kKaratsubaThreshold) {
    MulSchoolbookN(out, a, n, b, n);
    return;
  }
  const std::size_t lo = n / 2;
  const std::size_t hi = n - lo;

  Scratch::Frame frame(scratch);
  // sa = a0 + a1, sb = b0 + b1 (hi limbs + carry limb each).
  Limb* sa = scratch->Alloc(hi + 1);
  Limb* sb = scratch->Alloc(hi + 1);
  std::memcpy(sa, a, lo * sizeof(Limb));
  std::memset(sa + lo, 0, (hi - lo) * sizeof(Limb));
  sa[hi] = AddN(sa, sa, a + lo, hi);
  std::memcpy(sb, b, lo * sizeof(Limb));
  std::memset(sb + lo, 0, (hi - lo) * sizeof(Limb));
  sb[hi] = AddN(sb, sb, b + lo, hi);

  // z1 = (a0+a1)(b0+b1), then z1 -= z0 + z2 (always non-negative).
  Limb* z1 = scratch->Alloc(2 * (hi + 1));
  KaratsubaEqual(z1, sa, sb, hi + 1, scratch);

  // z0 and z2 land directly in the output: out = z0 + z2 << (128*lo).
  KaratsubaEqual(out, a, b, lo, scratch);                    // z0: 2*lo limbs
  KaratsubaEqual(out + 2 * lo, a + lo, b + lo, hi, scratch);  // z2: 2*hi limbs

  SubInto(z1, 2 * (hi + 1), out, 2 * lo);
  SubInto(z1, 2 * (hi + 1), out + 2 * lo, 2 * hi);

  // out += z1 << (64*lo); the carry dies inside 2n limbs because the
  // total is exactly a*b < 2^(128n).
  AddInto(out + lo, 2 * n - lo, z1, 2 * (hi + 1));
}

}  // namespace

Limb* Scratch::Alloc(std::size_t n) {
  if (n == 0) n = 1;
  while (cur_block_ < blocks_.size()) {
    Block& blk = blocks_[cur_block_];
    if (blk.cap - cur_used_ >= n) {
      Limb* p = blk.data.get() + cur_used_;
      cur_used_ += n;
      return p;
    }
    ++cur_block_;
    cur_used_ = 0;
  }
  // Grow: geometric so a workload's high-water mark is reached in
  // O(log) allocations, after which the arena is warm forever.
  constexpr std::size_t kMinBlockLimbs = 1024;  // 8 KiB
  std::size_t cap = std::max(n, blocks_.empty() ? kMinBlockLimbs
                                                : blocks_.back().cap * 2);
  Block blk;
  blk.data.reset(new Limb[cap]);
  blk.cap = cap;
  blocks_.push_back(std::move(blk));
  ++heap_allocs_;
  kernel_stats::scratch_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  cur_block_ = blocks_.size() - 1;
  cur_used_ = n;
  return blocks_.back().data.get();
}

Scratch& TlsScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

int CmpN(const Limb* a, const Limb* b, std::size_t n) {
  for (std::size_t i = n; i > 0; --i) {
    if (a[i - 1] != b[i - 1]) return a[i - 1] < b[i - 1] ? -1 : 1;
  }
  return 0;
}

Limb AddN(Limb* out, const Limb* a, const Limb* b, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    DoubleLimb cur = static_cast<DoubleLimb>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
  }
  return carry;
}

Limb SubN(Limb* out, const Limb* a, const Limb* b, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Limb bi = b[i];
    Limb ai = a[i];
    Limb diff = ai - bi - borrow;
    borrow = (ai < bi || (borrow && ai == bi)) ? 1 : 0;
    out[i] = diff;
  }
  return borrow;
}

void AddInto(Limb* acc, std::size_t acc_len, const Limb* v,
             std::size_t v_len) {
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < v_len; ++i) {
    DoubleLimb cur = static_cast<DoubleLimb>(acc[i]) + v[i] + carry;
    acc[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
  }
  for (; carry != 0 && i < acc_len; ++i) {
    DoubleLimb cur = static_cast<DoubleLimb>(acc[i]) + carry;
    acc[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
  }
}

void SubInto(Limb* acc, std::size_t acc_len, const Limb* v,
             std::size_t v_len) {
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < v_len; ++i) {
    Limb ai = acc[i];
    Limb vi = v[i];
    Limb diff = ai - vi - borrow;
    borrow = (ai < vi || (borrow && ai == vi)) ? 1 : 0;
    acc[i] = diff;
  }
  for (; borrow != 0 && i < acc_len; ++i) {
    Limb ai = acc[i];
    acc[i] = ai - 1;
    borrow = ai == 0 ? 1 : 0;
  }
}

void MulSchoolbookN(Limb* out, const Limb* a, std::size_t na, const Limb* b,
                    std::size_t nb) {
  if (na == 0 || nb == 0) return;
  std::memset(out, 0, (na + nb) * sizeof(Limb));
  for (std::size_t i = 0; i < na; ++i) {
    Limb carry = 0;
    DoubleLimb ai = a[i];
    for (std::size_t j = 0; j < nb; ++j) {
      DoubleLimb cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    out[i + nb] = carry;
  }
}

void MulN(Limb* out, const Limb* a, std::size_t na, const Limb* b,
          std::size_t nb, Scratch* scratch) {
  if (na == 0 || nb == 0) return;
  if (std::min(na, nb) < kKaratsubaThreshold) {
    MulSchoolbookN(out, a, na, b, nb);
    return;
  }
  kernel_stats::karatsuba_mults.fetch_add(1, std::memory_order_relaxed);
  if (na == nb) {
    KaratsubaEqual(out, a, b, na, scratch);
    return;
  }
  // Unbalanced: pad the shorter operand to the longer width. The waste
  // is bounded (operands reaching here are within 2x of each other in
  // every call site: keygen's p*q, the CRT h*q recombination).
  const std::size_t n = std::max(na, nb);
  Scratch::Frame frame(scratch);
  Limb* pa = scratch->Alloc(n);
  Limb* pb = scratch->Alloc(n);
  Limb* wide = scratch->Alloc(2 * n);
  std::memcpy(pa, a, na * sizeof(Limb));
  std::memset(pa + na, 0, (n - na) * sizeof(Limb));
  std::memcpy(pb, b, nb * sizeof(Limb));
  std::memset(pb + nb, 0, (n - nb) * sizeof(Limb));
  KaratsubaEqual(wide, pa, pb, n, scratch);
  std::memcpy(out, wide, (na + nb) * sizeof(Limb));
}

std::size_t BitLengthN(LimbSpan v) {
  std::size_t n = v.len;
  while (n > 0 && v.ptr[n - 1] == 0) --n;
  if (n == 0) return 0;
  Limb top = v.ptr[n - 1];
  std::size_t bits = (n - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

void Pack32To64(Limb* out, std::size_t n64, const std::uint32_t* in,
                std::size_t n32) {
  for (std::size_t i = 0; i < n64; ++i) {
    Limb lo = 2 * i < n32 ? in[2 * i] : 0u;
    Limb hi = 2 * i + 1 < n32 ? in[2 * i + 1] : 0u;
    out[i] = lo | (hi << 32);
  }
}

void Unpack64To32(std::uint32_t* out, std::size_t n32, const Limb* in,
                  std::size_t n64) {
  for (std::size_t i = 0; i < n32; ++i) {
    std::size_t limb = i / 2;
    Limb v = limb < n64 ? in[limb] : 0u;
    out[i] = static_cast<std::uint32_t>(i % 2 == 0 ? v : v >> 32);
  }
}

KernelStatsSnapshot KernelStats() {
  namespace ks = kernel_stats;
  KernelStatsSnapshot s;
  s.scratch_heap_allocs = ks::scratch_heap_allocs.load(std::memory_order_relaxed);
  s.powmod_fixed_512 = ks::powmod_fixed_512.load(std::memory_order_relaxed);
  s.powmod_fixed_1024 = ks::powmod_fixed_1024.load(std::memory_order_relaxed);
  s.powmod_fixed_2048 = ks::powmod_fixed_2048.load(std::memory_order_relaxed);
  s.powmod_generic = ks::powmod_generic.load(std::memory_order_relaxed);
  s.powmod_window_1 = ks::powmod_window_1.load(std::memory_order_relaxed);
  s.powmod_window_4 = ks::powmod_window_4.load(std::memory_order_relaxed);
  s.powmod_window_5 = ks::powmod_window_5.load(std::memory_order_relaxed);
  s.powmod_ifma = ks::powmod_ifma.load(std::memory_order_relaxed);
  s.crt_pairs = ks::crt_pairs.load(std::memory_order_relaxed);
  s.powmod_mb8 = ks::powmod_mb8.load(std::memory_order_relaxed);
  s.karatsuba_mults = ks::karatsuba_mults.load(std::memory_order_relaxed);
  return s;
}

std::string DescribeKernelWidthsHit() {
  KernelStatsSnapshot s = KernelStats();
  return "512:" + std::to_string(s.powmod_fixed_512) +
         ",1024:" + std::to_string(s.powmod_fixed_1024) +
         ",2048:" + std::to_string(s.powmod_fixed_2048) +
         ",generic:" + std::to_string(s.powmod_generic) +
         ",ifma:" + std::to_string(s.powmod_ifma) +
         ",mb8:" + std::to_string(s.powmod_mb8);
}

}  // namespace bignum
}  // namespace p2drm
