#include "bignum/ifma.h"

#include <array>
#include <utility>

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
// -- the 8-lane kernel --------------------------------------------------------
// The same recurrence as Amm, run on 8 independent values, one per
// 64-bit lane (Gueron & Krasnov, "Software Implementation of Modular
// Exponentiation, Using Advanced Vector Instructions Architectures",
// WAIFI 2012; the digit-major layout of Intel IPP's crypto_mb). Register
// j holds digit j of all 8 values and N, k0 are shared, so a lane's m
// is one madd52lo on the digit-0 register and waits on no other lane:
// the kernel is bound by multiply throughput, not by the digit-0 -> m
// -> broadcast chain that bounds Amm. Each step's division by 2^52
// renames registers instead of moving data: at step I, digit j lives in
// acc[(I + j) % ND]. The digit-0 register, once its carry has moved
// into the next digit, is zeroed and becomes the new top digit. Every
// index is a compile-time constant, so the accumulator stays in
// registers (nd + 4 zmm at most).

#define P2DRM_MB8_TARGET \
  __attribute__((target("avx512f,avx512ifma"), always_inline)) inline

template <std::size_t ND, std::size_t I, std::size_t... J>
P2DRM_MB8_TARGET void Mb8Step(__m512i* acc, const Limb* a, const Limb* b,
                              const Limb* n, __m512i k0,
                              std::index_sequence<J...>) {
  const __m512i bi = _mm512_loadu_si512(b + kLanes * I);
  ((acc[(I + J) % ND] = _mm512_madd52lo_epu64(
        acc[(I + J) % ND], _mm512_loadu_si512(a + kLanes * J), bi)),
   ...);
  const __m512i m =
      _mm512_madd52lo_epu64(_mm512_setzero_si512(), acc[I % ND], k0);
  ((acc[(I + J) % ND] = _mm512_madd52lo_epu64(
        acc[(I + J) % ND], _mm512_set1_epi64(static_cast<long long>(n[J])),
        m)),
   ...);
  // Digit 0 is now a multiple of 2^52: its carry joins digit 1, which
  // becomes digit 0, and the emptied register becomes the top digit.
  const __m512i carry = _mm512_srli_epi64(acc[I % ND], kDigitBits);
  acc[I % ND] = _mm512_setzero_si512();
  acc[(I + 1) % ND] = _mm512_add_epi64(acc[(I + 1) % ND], carry);
  // High halves belong one digit up, which after the division is
  // digit j again.
  ((acc[(I + 1 + J) % ND] = _mm512_madd52hi_epu64(
        acc[(I + 1 + J) % ND], _mm512_loadu_si512(a + kLanes * J), bi)),
   ...);
  ((acc[(I + 1 + J) % ND] = _mm512_madd52hi_epu64(
        acc[(I + 1 + J) % ND],
        _mm512_set1_epi64(static_cast<long long>(n[J])), m)),
   ...);
}

template <std::size_t ND, std::size_t... I>
P2DRM_MB8_TARGET void Mb8Steps(__m512i* acc, const Limb* a, const Limb* b,
                               const Limb* n, __m512i k0,
                               std::index_sequence<I...>) {
  (Mb8Step<ND, I>(acc, a, b, n, k0, std::make_index_sequence<ND>{}), ...);
}

// After ND steps digit j is back in acc[j]. Each lane normalizes on its
// own: one carry ripple up the registers. The result is < 2N < R', so
// nothing leaves the top digit.
template <std::size_t... J>
P2DRM_MB8_TARGET void Mb8Store(Limb* out, __m512i* acc,
                               std::index_sequence<J...>) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  __m512i carry = _mm512_setzero_si512();
  ((acc[J] = _mm512_add_epi64(acc[J], carry),
    carry = _mm512_srli_epi64(acc[J], kDigitBits),
    _mm512_storeu_si512(out + kLanes * J, _mm512_and_si512(acc[J], mask))),
   ...);
}

template <std::size_t ND>
__attribute__((target("avx512f,avx512ifma"))) void AmmMb8(
    Limb* out, const Limb* a, const Limb* b, const Limb* n, Limb k0) {
  __m512i acc[ND];
  for (__m512i& v : acc) v = _mm512_setzero_si512();
  Mb8Steps<ND>(acc, a, b, n, _mm512_set1_epi64(static_cast<long long>(k0)),
               std::make_index_sequence<ND>{});
  Mb8Store(out, acc, std::make_index_sequence<ND>{});
}

// -- the 8-lane square ---------------------------------------------------------
// a^2 * R'^-1 mod N (plus N) per lane, the integer AmmMb8(a, a) returns:
// both add to a^2 the unique M < R' with a^2 + M N = 0 mod R'. The
// square is built first, each cross product a_i a_j (i < j) once, the
// sum doubled, the diagonal a_i^2 added: ND^2 + ND madds where the
// multiply spends 2 ND^2 on a * b. The 2 ND product digits do not fit
// in registers, so the square is built in two halves of ND digits, the
// high half first (kept in memory), then the low half (kept in
// registers). The reduction is AmmMb8's m * N pass over the low half,
// with the same register renaming; the register that digit i frees
// takes high-half digit i + ND.

// Adds lo(x * y) at digit P and hi(x * y) at digit P + 1, for the digits
// that fall in the half [Base, Base + ND).
template <std::size_t ND, std::size_t Base, std::size_t P>
P2DRM_MB8_TARGET void Mb8AddProduct(__m512i* half, __m512i x, __m512i y) {
  if constexpr (P >= Base && P < Base + ND) {
    half[P - Base] = _mm512_madd52lo_epu64(half[P - Base], x, y);
  }
  if constexpr (P + 1 >= Base && P + 1 < Base + ND) {
    half[P + 1 - Base] = _mm512_madd52hi_epu64(half[P + 1 - Base], x, y);
  }
}

template <std::size_t ND, std::size_t Base, std::size_t I, std::size_t J>
P2DRM_MB8_TARGET void Mb8CrossProduct(__m512i* half, const Limb* a) {
  if constexpr (I < J) {
    Mb8AddProduct<ND, Base, I + J>(half, _mm512_loadu_si512(a + kLanes * I),
                                   _mm512_loadu_si512(a + kLanes * J));
  }
}

template <std::size_t ND, std::size_t Base, std::size_t I, std::size_t... J>
P2DRM_MB8_TARGET void Mb8CrossRow(__m512i* half, const Limb* a,
                                  std::index_sequence<J...>) {
  (Mb8CrossProduct<ND, Base, I, J>(half, a), ...);
}

// Digits [Base, Base + ND) of a^2, unnormalized.
template <std::size_t ND, std::size_t Base, std::size_t... I>
P2DRM_MB8_TARGET void Mb8SquareHalf(__m512i* half, const Limb* a,
                                    std::index_sequence<I...>) {
  ((half[I] = _mm512_setzero_si512()), ...);
  (Mb8CrossRow<ND, Base, I>(half, a, std::make_index_sequence<ND>{}), ...);
  ((half[I] = _mm512_add_epi64(half[I], half[I])), ...);
  (Mb8AddProduct<ND, Base, 2 * I>(half, _mm512_loadu_si512(a + kLanes * I),
                                  _mm512_loadu_si512(a + kLanes * I)),
   ...);
}

template <std::size_t ND, std::size_t I, std::size_t... J>
P2DRM_MB8_TARGET void Mb8ReduceStep(__m512i* acc, const __m512i* high,
                                    const Limb* n, __m512i k0,
                                    std::index_sequence<J...>) {
  const __m512i m =
      _mm512_madd52lo_epu64(_mm512_setzero_si512(), acc[I % ND], k0);
  ((acc[(I + J) % ND] = _mm512_madd52lo_epu64(
        acc[(I + J) % ND], _mm512_set1_epi64(static_cast<long long>(n[J])),
        m)),
   ...);
  const __m512i carry = _mm512_srli_epi64(acc[I % ND], kDigitBits);
  acc[I % ND] = high[I];
  acc[(I + 1) % ND] = _mm512_add_epi64(acc[(I + 1) % ND], carry);
  ((acc[(I + 1 + J) % ND] = _mm512_madd52hi_epu64(
        acc[(I + 1 + J) % ND],
        _mm512_set1_epi64(static_cast<long long>(n[J])), m)),
   ...);
}

template <std::size_t ND, std::size_t... I>
P2DRM_MB8_TARGET void Mb8Reduce(__m512i* acc, const __m512i* high,
                                const Limb* n, __m512i k0,
                                std::index_sequence<I...>) {
  (Mb8ReduceStep<ND, I>(acc, high, n, k0, std::make_index_sequence<ND>{}),
   ...);
}

template <std::size_t ND>
__attribute__((target("avx512f,avx512ifma"))) void AmsMb8(Limb* out,
                                                          const Limb* a,
                                                          const Limb* n,
                                                          Limb k0) {
  __m512i high[ND];
  Mb8SquareHalf<ND, ND>(high, a, std::make_index_sequence<ND>{});
  __m512i acc[ND];
  Mb8SquareHalf<ND, 0>(acc, a, std::make_index_sequence<ND>{});
  Mb8Reduce<ND>(acc, high, n, _mm512_set1_epi64(static_cast<long long>(k0)),
                std::make_index_sequence<ND>{});
  Mb8Store(out, acc, std::make_index_sequence<ND>{});
}

#undef P2DRM_MB8_TARGET
#pragma GCC diagnostic pop

template <std::size_t... D>
constexpr std::array<AmmMb8Fn, sizeof...(D)> Mb8Table(
    std::index_sequence<D...>) {
  return {AmmMb8<D + 1>...};
}

template <std::size_t... D>
constexpr std::array<AmsMb8Fn, sizeof...(D)> Mb8SquareTable(
    std::index_sequence<D...>) {
  return {AmsMb8<D + 1>...};
}

constexpr std::array<AmmMb8Fn, kMb8MaxDigits> kAmmMb8ByDigits =
    Mb8Table(std::make_index_sequence<kMb8MaxDigits>{});
constexpr std::array<AmsMb8Fn, kMb8MaxDigits> kAmsMb8ByDigits =
    Mb8SquareTable(std::make_index_sequence<kMb8MaxDigits>{});

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

AmmMb8Fn SelectAmmMb8(std::size_t nd) {
#if P2DRM_HAVE_IFMA_KERNEL
  if (!CpuSupported() || nd == 0 || nd > kMb8MaxDigits) return nullptr;
  return kAmmMb8ByDigits[nd - 1];
#else
  (void)nd;
  return nullptr;
#endif
}

AmsMb8Fn SelectAmsMb8(std::size_t nd) {
#if P2DRM_HAVE_IFMA_KERNEL
  if (!CpuSupported() || nd == 0 || nd > kMb8MaxDigits) return nullptr;
  return kAmsMb8ByDigits[nd - 1];
#else
  (void)nd;
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
