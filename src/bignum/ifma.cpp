#include "bignum/ifma.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define P2DRM_HAVE_IFMA_KERNEL 1
#endif

namespace p2drm {
namespace bignum {
namespace ifma {

namespace {

#if P2DRM_HAVE_IFMA_KERNEL

using DoubleLimb = unsigned __int128;

// GCC 12's intrinsic headers build the pass-through operand of some
// unmasked intrinsics (srli, alignr, castsi512_si128) from a deliberately
// self-initialized register and then warn about it at every use; the
// warning says nothing about this code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Almost-Montgomery multiply, digit-serial in b, for W independent
// operand sets of nd digits held in V registers each (Gueron & Krasnov,
// ARITH 2016; the dual-set loop follows OpenSSL's rsaz-2k-avx512).
//
// Per digit b[i], for every set:
//   acc += a * b[i] + m * N, with m = (acc[0] + a[0]*b[i]) * k0 mod 2^52
//   chosen so digit 0 of the sum is zero; then acc /= 2^52.
// The low halves of the 104-bit products land in their own lane, the
// high halves one lane up; the register shift in between lets both be
// added lane-aligned. Digit 0 lives in a scalar (acc0) that sees the
// full products, so m never waits on a register-to-scalar move of the
// sum it is about to zero; the register copy of lane 0 is shifted out
// unread each step, and acc0 takes the new lane 0 right after the
// shift. Lanes stay unnormalized inside the loop (each gains < 2^54
// per step, < 2^60 over 64 steps); one carry pass at the end
// normalizes. The W sets share no data, so their dependency chains
// overlap.
template <std::size_t V, std::size_t W>
__attribute__((target("avx512f,avx512ifma"))) void Amm(
    const AmmOperands* sets, std::size_t nd) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i a[W][V];
  __m512i n[W][V];
  __m512i acc[W][V];
  Limb acc0[W];
  for (std::size_t w = 0; w < W; ++w) {
    for (std::size_t v = 0; v < V; ++v) {
      a[w][v] = _mm512_loadu_si512(sets[w].a + kLanes * v);
      n[w][v] = _mm512_loadu_si512(sets[w].n + kLanes * v);
      acc[w][v] = zero;
    }
    acc0[w] = 0;
  }

  for (std::size_t i = 0; i < nd; ++i) {
    __m512i bi[W];
    __m512i mi[W];
    Limb carry[W];
    for (std::size_t w = 0; w < W; ++w) {
      const Limb b = sets[w].b[i];
      DoubleLimb s = static_cast<DoubleLimb>(sets[w].a[0]) * b + acc0[w];
      const Limb m = (static_cast<Limb>(s) * sets[w].k0) & kDigitMask;
      s += static_cast<DoubleLimb>(m) * sets[w].n[0];
      carry[w] = static_cast<Limb>(s >> kDigitBits);  // digit 0 is now 0
      bi[w] = _mm512_set1_epi64(static_cast<long long>(b));
      mi[w] = _mm512_set1_epi64(static_cast<long long>(m));
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t v = 0; v < V; ++v) {
        acc[w][v] = _mm512_madd52lo_epu64(acc[w][v], a[w][v], bi[w]);
        acc[w][v] = _mm512_madd52lo_epu64(acc[w][v], n[w][v], mi[w]);
      }
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t v = 0; v + 1 < V; ++v) {
        acc[w][v] = _mm512_alignr_epi64(acc[w][v + 1], acc[w][v], 1);
      }
      acc[w][V - 1] = _mm512_alignr_epi64(zero, acc[w][V - 1], 1);
      acc0[w] = carry[w] + static_cast<Limb>(_mm_cvtsi128_si64(
                               _mm512_castsi512_si128(acc[w][0])));
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t v = 0; v < V; ++v) {
        acc[w][v] = _mm512_madd52hi_epu64(acc[w][v], a[w][v], bi[w]);
        acc[w][v] = _mm512_madd52hi_epu64(acc[w][v], n[w][v], mi[w]);
      }
    }
  }

  // Normalize to 52-bit digits: move every lane's excess one lane up,
  // then resolve the remaining +1 ripples with generate/propagate masks
  // (a lane above the mask generates a carry, a lane equal to it
  // passes one on). The result is < 2N < R', so nothing leaves the top.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  const __m512i one = _mm512_set1_epi64(1);
  for (std::size_t w = 0; w < W; ++w) {
    acc[w][0] = _mm512_mask_set1_epi64(acc[w][0], 1,
                                       static_cast<long long>(acc0[w]));
    __m512i hi[V];
    for (std::size_t v = 0; v < V; ++v) {
      hi[v] = _mm512_srli_epi64(acc[w][v], kDigitBits);
      acc[w][v] = _mm512_and_si512(acc[w][v], mask);
    }
    std::uint64_t gen = 0;
    std::uint64_t prop = 0;
    for (std::size_t v = 0; v < V; ++v) {
      acc[w][v] = _mm512_add_epi64(
          acc[w][v], _mm512_alignr_epi64(hi[v], v == 0 ? zero : hi[v - 1], 7));
      gen |= static_cast<std::uint64_t>(
                 _mm512_cmpgt_epu64_mask(acc[w][v], mask))
             << (kLanes * v);
      prop |= static_cast<std::uint64_t>(
                  _mm512_cmpeq_epu64_mask(acc[w][v], mask))
              << (kLanes * v);
    }
    const std::uint64_t carry_in = ((gen << 1) + prop) ^ prop;
    for (std::size_t v = 0; v < V; ++v) {
      const __mmask8 k = static_cast<__mmask8>(carry_in >> (kLanes * v));
      acc[w][v] = _mm512_and_si512(
          _mm512_mask_add_epi64(acc[w][v], k, acc[w][v], one), mask);
      _mm512_storeu_si512(sets[w].out + kLanes * v, acc[w][v]);
    }
  }
}
#pragma GCC diagnostic pop

template <std::size_t W>
constexpr AmmFn kAmmByRegisters[] = {Amm<1, W>, Amm<2, W>, Amm<3, W>,
                                     Amm<4, W>, Amm<5, W>, Amm<6, W>,
                                     Amm<7, W>, Amm<8, W>};

#endif  // P2DRM_HAVE_IFMA_KERNEL

}  // namespace

bool CpuSupported() {
#if P2DRM_HAVE_IFMA_KERNEL
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512ifma");
  return supported;
#else
  return false;
#endif
}

AmmFn SelectAmm(std::size_t nd, std::size_t ways) {
#if P2DRM_HAVE_IFMA_KERNEL
  if (!CpuSupported() || nd == 0 || nd > kMaxDigits) return nullptr;
  const std::size_t regs = StrideFor(nd) / kLanes;
  switch (ways) {
    case 1: return kAmmByRegisters<1>[regs - 1];
    case 2: return kAmmByRegisters<2>[regs - 1];
    default: return nullptr;
  }
#else
  (void)nd;
  (void)ways;
  return nullptr;
#endif
}

void ToDigits(Limb* out, std::size_t stride, const Limb* in, std::size_t n64) {
  for (std::size_t i = 0; i < stride; ++i) {
    const std::size_t bit = i * kDigitBits;
    const std::size_t word = bit / 64;
    const std::size_t shift = bit % 64;
    Limb d = word < n64 ? in[word] >> shift : 0;
    if (shift > 64 - kDigitBits && word + 1 < n64) {
      d |= in[word + 1] << (64 - shift);
    }
    out[i] = d & kDigitMask;
  }
}

void FromDigits(Limb* out, std::size_t n64, const Limb* in, std::size_t nd) {
  for (std::size_t j = 0; j < n64; ++j) out[j] = 0;
  for (std::size_t i = 0; i < nd; ++i) {
    const std::size_t bit = i * kDigitBits;
    const std::size_t word = bit / 64;
    const std::size_t shift = bit % 64;
    if (word < n64) out[word] |= in[i] << shift;
    if (shift > 64 - kDigitBits && word + 1 < n64) {
      out[word + 1] |= in[i] >> (64 - shift);
    }
  }
}

}  // namespace ifma
}  // namespace bignum
}  // namespace p2drm
