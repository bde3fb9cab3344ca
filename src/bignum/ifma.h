#ifndef P2DRM_BIGNUM_IFMA_H_
#define P2DRM_BIGNUM_IFMA_H_

/// \file ifma.h
/// \brief AVX-512 IFMA almost-Montgomery multiplication in radix 2^52.
///
/// Internal to the bignum layer: Montgomery selects these kernels once
/// per context when the CPU has IFMA, and PowModLimbs / PowModCrtPair
/// drive them (docs/bignum.md, "The IFMA kernel").
///
/// An operand is nd = ceil((bits + 2) / 52) little-endian 52-bit digits,
/// one per 64-bit limb, zero padded to whole 8-digit registers. With
/// R' = 2^(52 nd) >= 4N, the almost-Montgomery product of two values
/// below 2N is again below 2N, so the kernel never subtracts N; only the
/// final conversion out of Montgomery form reduces into [0, N).

#include <cstddef>
#include <cstdint>

#include "bignum/limbs.h"

namespace p2drm {
namespace bignum {
namespace ifma {

constexpr std::size_t kDigitBits = 52;
constexpr Limb kDigitMask = (Limb{1} << kDigitBits) - 1;
/// Digits per 512-bit register.
constexpr std::size_t kLanes = 8;
/// Largest operand in digits: eight registers, so the carry masks of
/// the final normalization fit one 64-bit word (moduli up to 3326 bits).
constexpr std::size_t kMaxDigits = 64;

/// True when the CPU executes AVX-512F and AVX-512 IFMA instructions.
bool CpuSupported();

/// Digits per operand for a modulus of \p bits bits: ceil((bits+2)/52),
/// the least count with R' = 2^(52 nd) >= 4N.
inline std::size_t DigitsFor(std::size_t bits) {
  return (bits + 2 + kDigitBits - 1) / kDigitBits;
}

/// Limbs one operand occupies: nd rounded up to whole registers.
inline std::size_t StrideFor(std::size_t nd) {
  return (nd + kLanes - 1) / kLanes * kLanes;
}

/// One operand set: out = a * b * R'^-1 mod N, possibly plus N.
/// a and b are below 2N in normalized digits; so is out. out may alias
/// a or b. k0 = -N^-1 mod 2^52.
struct AmmOperands {
  Limb* out;
  const Limb* a;
  const Limb* b;
  const Limb* n;
  Limb k0;
};

/// Almost-Montgomery multiply over an array of operand sets, all of nd
/// digits, run in one interleaved loop.
using AmmFn = void (*)(const AmmOperands* sets, std::size_t nd);

/// The kernel for \p ways (1 or 2) operand sets of \p nd digits, or
/// nullptr when the CPU lacks IFMA or nd is above kMaxDigits.
AmmFn SelectAmm(std::size_t nd, std::size_t ways);

/// Largest operand in digits the 8-lane kernel accepts: moduli up to
/// 1038 bits, the CRT halves of keys up to 2048 bits. Its accumulator
/// is nd registers, so nd = 20 already fills most of the 32 zmm
/// registers; wider moduli use the single-set kernel.
constexpr std::size_t kMb8MaxDigits = 20;

/// Almost-Montgomery multiply over 8 lanes, one value per 64-bit lane:
/// out = a * b * R'^-1 mod N (possibly plus N) in every lane. Operands
/// are digit-major blocks of nd * kLanes limbs: limbs [8j, 8j + 8) hold
/// digit j of the 8 values, so one register holds one digit of all
/// lanes. The modulus \p n (nd digits, as for AmmOperands) and
/// k0 = -N^-1 mod 2^52 are shared by all lanes. a and b are below 2N in
/// normalized digits; so is out, which may alias a or b.
using AmmMb8Fn = void (*)(Limb* out, const Limb* a, const Limb* b,
                          const Limb* n, Limb k0);

/// The 8-lane kernel for \p nd digits, or nullptr when the CPU lacks
/// IFMA or nd is above kMb8MaxDigits.
AmmMb8Fn SelectAmmMb8(std::size_t nd);

/// 8-lane almost-Montgomery square: out = a * a * R'^-1 mod N (possibly
/// plus N) in every lane, the same digits AmmMb8Fn(a, a) returns, at
/// about three quarters of its multiply-adds. Same layout and bounds.
using AmsMb8Fn = void (*)(Limb* out, const Limb* a, const Limb* n, Limb k0);

/// The 8-lane square for \p nd digits, or nullptr when SelectAmmMb8(nd)
/// is.
AmsMb8Fn SelectAmsMb8(std::size_t nd);

/// Splits \p n64 64-bit limbs into \p stride 52-bit digits (the value
/// must fit; digits past it are zero).
void ToDigits(Limb* out, std::size_t stride, const Limb* in, std::size_t n64);

/// Packs \p nd digits into \p n64 64-bit limbs (the value must fit).
void FromDigits(Limb* out, std::size_t n64, const Limb* in, std::size_t nd);

}  // namespace ifma
}  // namespace bignum
}  // namespace p2drm

#endif  // P2DRM_BIGNUM_IFMA_H_
