#ifndef P2DRM_BIGNUM_MONTGOMERY_H_
#define P2DRM_BIGNUM_MONTGOMERY_H_

/// \file montgomery.h
/// \brief Montgomery-form modular arithmetic for odd moduli.
///
/// RSA sign/verify dominates every protocol bench in this repo, so modular
/// exponentiation must not reduce with full division at every step — and,
/// on the server's per-item issue path, must not touch the heap either.
/// The context precomputes R = 2^(64n) mod N and performs CIOS Montgomery
/// multiplication and SOS Montgomery squaring over flat 64-bit limbs
/// (limbs.h), with branch-free fixed-width kernels for the modulus sizes
/// RSA actually uses (512/1024/2048 bits — the CRT halves and full moduli
/// of RsaPrivateKey / BatchVerifier). PowMod uses a windowed table (4- or
/// 5-bit by exponent size) living entirely in scratch and squares with
/// the dedicated kernel; the span-level entry points are allocation-free
/// once the caller's Scratch is warm. See docs/bignum.md.

#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/limbs.h"

namespace p2drm {
namespace bignum {

/// Precomputed Montgomery context for a fixed odd modulus. Immutable
/// after construction: any number of threads may use one concurrently
/// (all scratch comes from the caller or thread-local arenas).
class Montgomery {
 public:
  /// \param modulus Odd modulus > 1. Throws std::domain_error otherwise.
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  /// Width of the modulus in 64-bit limbs; every span handed to the
  /// limb-level API below must be exactly this long.
  std::size_t width() const { return n_; }

  // -- BigInt-boxed API (compatibility layer; one result allocation) -------

  /// Converts into Montgomery form: a * R mod N. Requires 0 <= a < R.
  BigInt ToMont(const BigInt& a) const;

  /// Converts out of Montgomery form: a * R^-1 mod N. Requires a < N.
  BigInt FromMont(const BigInt& a) const;

  /// Montgomery product: a * b * R^-1 mod N (operands in Montgomery form).
  BigInt MulMont(const BigInt& a, const BigInt& b) const;

  /// base^exp mod N with base, result in ordinary form.
  /// Requires 0 <= base < N and exp >= 0.
  BigInt PowMod(const BigInt& base, const BigInt& exp) const;

  // -- span API (zero allocations warm; see docs/bignum.md) ----------------
  // All limb pointers reference width() limbs. Outputs may alias inputs.

  /// out = a * b * R^-1 mod N over raw limbs (CIOS).
  void MontMulLimbs(Limb* out, const Limb* a, const Limb* b,
                    Scratch* scratch) const;

  /// out = a * a * R^-1 mod N over raw limbs (SOS squaring: the
  /// off-diagonal products once, doubled, plus the diagonal, then the
  /// same word-by-word reduction). Requires a < N. Bit-identical to
  /// MontMulLimbs(out, a, a) at about 3/4 of its word multiplies.
  void MontSqrLimbs(Limb* out, const Limb* a, Scratch* scratch) const;

  /// out = base^exp mod N, base and result in ordinary form.
  /// Requires base < N (width() limbs). The windowed table and every
  /// temporary live in \p scratch.
  void PowModLimbs(Limb* out, const Limb* base, LimbSpan exp,
                   Scratch* scratch) const;

  /// Packs a non-negative BigInt < N into width() limbs.
  /// Throws std::domain_error if out of range.
  void Load(Limb* out, const BigInt& a) const;

  /// Boxes width() limbs back into a BigInt.
  BigInt Unload(const Limb* in) const;

  /// Thread-local context cache keyed by modulus (small MRU). This is
  /// what lets BigInt::PowMod reuse R^2 mod N across calls instead of
  /// rebuilding the context per exponentiation.
  static std::shared_ptr<const Montgomery> CachedFor(const BigInt& modulus);

 private:
  // Raw CIOS multiply; t is a caller-provided n_+2 limb accumulator
  // (ignored by the fixed-width kernels, which keep it on the stack).
  using MulFn = void (*)(const Limb* n, std::size_t nlimbs, Limb n0_inv,
                         Limb* out, const Limb* a, const Limb* b, Limb* t);
  // Raw SOS square; t is a caller-provided 2*n_ limb accumulator (the
  // fixed-width kernels keep theirs on the stack).
  using SqrFn = void (*)(const Limb* n, std::size_t nlimbs, Limb n0_inv,
                         Limb* out, const Limb* a, Limb* t);

  BigInt modulus_;
  std::size_t n_ = 0;          // width in 64-bit limbs
  std::vector<Limb> n64_;      // modulus, n_ limbs
  Limb n0_inv_ = 0;            // -N^-1 mod 2^64
  std::vector<Limb> one_mont_; // R mod N: 1 in Montgomery form
  std::vector<Limb> r2_;       // R^2 mod N
  MulFn mul_fn_ = nullptr;
  SqrFn sqr_fn_ = nullptr;
};

}  // namespace bignum
}  // namespace p2drm

#endif  // P2DRM_BIGNUM_MONTGOMERY_H_
