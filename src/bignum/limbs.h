#ifndef P2DRM_BIGNUM_LIMBS_H_
#define P2DRM_BIGNUM_LIMBS_H_

/// \file limbs.h
/// \brief Flat 64-bit limb kernels and caller-provided scratch memory.
///
/// This is the allocation-free substrate under BigInt and Montgomery
/// (docs/bignum.md). Everything here operates on pointer+size over
/// little-endian 64-bit limbs; no function in this header touches the
/// heap except Scratch itself, and Scratch only allocates while it is
/// still growing toward a workload's high-water mark ("cold"). Once
/// warm, every kernel — Montgomery mul/REDC, Karatsuba, windowed
/// modular exponentiation — runs with zero heap allocations, which is
/// what keeps per-item RSA signing off the allocator on the server's
/// issue path.
///
/// Ownership contract: kernels never allocate and never retain scratch
/// pointers past the call; the caller owns the Scratch and its
/// lifetime. Scratch is NOT thread-safe — use one per thread
/// (TlsScratch() is the conventional per-thread instance).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace p2drm {
namespace bignum {

/// One machine word of a flat bignum. Little-endian limb order
/// throughout; intermediate products use unsigned __int128.
using Limb = std::uint64_t;

/// Read-only view of a limb array (pointer + length, no ownership).
struct LimbSpan {
  const Limb* ptr = nullptr;
  std::size_t len = 0;
};

/// Bump-pointer arena for kernel temporaries. Alloc() hands out
/// uninitialized limb blocks; Frame restores the high-water mark on
/// scope exit so recursive kernels (Karatsuba) reuse the same memory.
/// Blocks are retained across frames: after the first pass over a
/// given workload shape the arena never grows again, so warm calls do
/// zero heap allocations (tracked by heap_allocations()).
class Scratch {
 public:
  Scratch() = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// Returns an uninitialized block of \p n limbs, valid until the
  /// enclosing Frame unwinds (or forever, if no frame is open).
  Limb* Alloc(std::size_t n);

  /// Number of times this arena had to grab a new block from the heap.
  /// Stable across warm calls — the basis of the zero-allocation tests.
  std::uint64_t heap_allocations() const { return heap_allocs_; }

  /// RAII mark/release: everything Alloc()ed inside the frame is
  /// recycled when it closes; the underlying blocks stay owned.
  class Frame {
   public:
    explicit Frame(Scratch* s)
        : s_(s), block_(s->cur_block_), used_(s->cur_used_) {}
    ~Frame() {
      s_->cur_block_ = block_;
      s_->cur_used_ = used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Scratch* s_;
    std::size_t block_;
    std::size_t used_;
  };

 private:
  struct Block {
    std::unique_ptr<Limb[]> data;
    std::size_t cap = 0;
  };

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;  // block currently being bumped
  std::size_t cur_used_ = 0;   // limbs used in that block
  std::uint64_t heap_allocs_ = 0;
};

/// The calling thread's scratch arena. One per thread, never shared:
/// signer threads signing concurrently each warm their own arena.
Scratch& TlsScratch();

// -- flat-limb primitives --------------------------------------------------
// All spans are little-endian; lengths are in limbs. None of these
// allocate.

/// Three-way compare of two n-limb values.
int CmpN(const Limb* a, const Limb* b, std::size_t n);

/// out = a + b over n limbs; returns the carry. Aliasing allowed.
Limb AddN(Limb* out, const Limb* a, const Limb* b, std::size_t n);

/// out = a - b over n limbs; returns the borrow. Aliasing allowed.
Limb SubN(Limb* out, const Limb* a, const Limb* b, std::size_t n);

/// acc[0..acc_len) += v[0..v_len); carry propagates inside acc only.
/// Requires acc_len >= v_len and the sum to fit (carry out must be 0
/// when the caller's math says so).
void AddInto(Limb* acc, std::size_t acc_len, const Limb* v, std::size_t v_len);

/// acc[0..acc_len) -= v[0..v_len). Requires acc >= v as integers.
void SubInto(Limb* acc, std::size_t acc_len, const Limb* v, std::size_t v_len);

/// out[0..na+nb) = a * b, schoolbook. out must not alias a or b.
void MulSchoolbookN(Limb* out, const Limb* a, std::size_t na, const Limb* b,
                    std::size_t nb);

/// out[0..na+nb) = a * b; Karatsuba above a threshold, threading all
/// temporaries through \p scratch. out must not alias a or b.
void MulN(Limb* out, const Limb* a, std::size_t na, const Limb* b,
          std::size_t nb, Scratch* scratch);

/// Significant bits of an exponent span (0 for zero).
std::size_t BitLengthN(LimbSpan v);

// -- 32 <-> 64 bit limb packing --------------------------------------------
// BigInt stores 32-bit limbs (its public contract); the kernels run on
// 64-bit. Packing is a straight pairwise merge, cheap relative to any
// kernel worth calling.

/// 64-bit limbs needed to hold \p n32 32-bit limbs.
inline std::size_t PackedWidth(std::size_t n32) { return (n32 + 1) / 2; }

/// Packs \p n32 32-bit limbs into \p out (width \p n64), zero-padding
/// the tail. Requires n64 >= PackedWidth(n32).
void Pack32To64(Limb* out, std::size_t n64, const std::uint32_t* in,
                std::size_t n32);

/// Unpacks \p n64 64-bit limbs into \p out (width \p n32), dropping
/// limbs beyond n32 (caller guarantees they are zero).
void Unpack64To32(std::uint32_t* out, std::size_t n32, const Limb* in,
                  std::size_t n64);

// -- kernel instrumentation ------------------------------------------------
// Cheap relaxed counters bumped once per exponentiation / dispatch
// decision (never inside inner loops). Benches publish them in their
// "config" blocks; tests pin the zero-allocation contract on
// scratch_heap_allocs.

struct KernelStatsSnapshot {
  std::uint64_t scratch_heap_allocs = 0;  // all Scratch arenas, all threads
  std::uint64_t powmod_fixed_512 = 0;     // exponentiations per width bucket
  std::uint64_t powmod_fixed_1024 = 0;
  std::uint64_t powmod_fixed_2048 = 0;
  std::uint64_t powmod_generic = 0;
  std::uint64_t powmod_window_1 = 0;  // binary ladder (exponent <= 64 bits)
  std::uint64_t powmod_window_4 = 0;  // window size chosen per exponentiation
  std::uint64_t powmod_window_5 = 0;
  std::uint64_t powmod_ifma = 0;      // exponentiations on the IFMA kernel
                                      // (also counted in their width bucket)
  std::uint64_t crt_pairs = 0;        // PowModCrtPair calls run as one pass
  std::uint64_t powmod_mb8 = 0;       // PowModMb8 passes (up to 8 lanes
                                      // each; every lane is also counted
                                      // in its width bucket)
  std::uint64_t karatsuba_mults = 0;  // MulN calls that went Karatsuba
};

/// Point-in-time snapshot of the global kernel counters.
KernelStatsSnapshot KernelStats();

/// "512:<n>,1024:<n>,2048:<n>,generic:<n>,ifma:<n>,mb8:<n>" — which
/// width buckets the exponentiations fell in, how many of them ran on
/// the single/pair IFMA kernel, and how many 8-lane passes ran; for
/// bench config blocks.
std::string DescribeKernelWidthsHit();

namespace kernel_stats {
// Internals shared with montgomery.cpp; relaxed increments only.
extern std::atomic<std::uint64_t> scratch_heap_allocs;
extern std::atomic<std::uint64_t> powmod_fixed_512;
extern std::atomic<std::uint64_t> powmod_fixed_1024;
extern std::atomic<std::uint64_t> powmod_fixed_2048;
extern std::atomic<std::uint64_t> powmod_generic;
extern std::atomic<std::uint64_t> powmod_window_1;
extern std::atomic<std::uint64_t> powmod_window_4;
extern std::atomic<std::uint64_t> powmod_window_5;
extern std::atomic<std::uint64_t> powmod_ifma;
extern std::atomic<std::uint64_t> crt_pairs;
extern std::atomic<std::uint64_t> powmod_mb8;
extern std::atomic<std::uint64_t> karatsuba_mults;
}  // namespace kernel_stats

}  // namespace bignum
}  // namespace p2drm

#endif  // P2DRM_BIGNUM_LIMBS_H_
