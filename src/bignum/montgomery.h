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
/// of RsaPrivateKey / BatchVerifier). On CPUs with AVX-512 IFMA, PowMod
/// runs instead on a radix-2^52 almost-Montgomery kernel (ifma.h), and
/// PowModCrtPair runs both CRT halves of a private operation in one
/// interleaved pass, and PowModMb8 runs eight exponentiations that share
/// an exponent, one per lane of an 8-lane kernel. PowMod uses a windowed table (4- or 5-bit by
/// exponent size; a plain binary ladder for exponents of 64 bits or
/// less) living entirely in scratch; the span-level entry points are
/// allocation-free once the caller's Scratch is warm. See docs/bignum.md.

#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/ifma.h"
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
  /// temporary live in \p scratch. Runs on the IFMA kernel when this
  /// context selected it, on the CIOS/SOS kernels otherwise; the result
  /// is the same integer either way.
  void PowModLimbs(Limb* out, const Limb* base, LimbSpan exp,
                   Scratch* scratch) const;

  /// True when PowModMb8 can run: the CPU has IFMA and the modulus has
  /// at most ifma::kMb8MaxDigits 52-bit digits (up to 1038 bits).
  bool HasMb8() const { return amm_mb8_fn_ != nullptr; }

  /// out[l] = base[l]^exp mod N for every lane l < \p lanes (1..8), all
  /// sharing one exponent, in one pass of the 8-lane IFMA kernel
  /// (ifma::AmmMb8Fn). \p base and \p out hold \p lanes values of
  /// width() limbs back to back, lane l at l * width(); every base is
  /// below N, and out may alias base. The windowed loop is PowModLimbs'
  /// own: the exponent is shared, so every lane reads the same table
  /// index at every window. Requires HasMb8(). The results are the
  /// integers PowModLimbs returns lane by lane.
  void PowModMb8(Limb* out, const Limb* base, std::size_t lanes, LimbSpan exp,
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

  friend void PowModCrtPair(const Montgomery& mont_p,
                            const Montgomery& mont_q, Limb* out_p,
                            const Limb* base_p, LimbSpan exp_p, Limb* out_q,
                            const Limb* base_q, LimbSpan exp_q,
                            Scratch* scratch);

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

  // IFMA path (ifma.h), chosen once by the constructor; amm_fn_ stays
  // null when the CPU lacks IFMA or the modulus is too wide for it.
  std::size_t nd_ = 0;          // 52-bit digits per operand
  Limb k0_ = 0;                 // -N^-1 mod 2^52
  std::vector<Limb> n52_;       // N as digits (StrideFor(nd_) limbs)
  std::vector<Limb> one52_;     // R' mod N, R' = 2^(52 nd_)
  std::vector<Limb> r2_52_;     // R'^2 mod N
  ifma::AmmFn amm_fn_ = nullptr;       // one operand set
  ifma::AmmFn amm_pair_fn_ = nullptr;  // two sets in one loop (CRT pair)
  ifma::AmmMb8Fn amm_mb8_fn_ = nullptr;  // 8 lanes, shared N (PowModMb8)
  ifma::AmsMb8Fn ams_mb8_fn_ = nullptr;  // its square
};

/// The two halves of an RSA-CRT private operation:
///   out_p = base_p^exp_p mod P,  out_q = base_q^exp_q mod Q,
/// each with the span contract of Montgomery::PowModLimbs. When both
/// contexts run the IFMA kernel at the same digit count, the two
/// exponentiations advance in one loop (the shorter exponent padded
/// with leading zero bits), so each one's multiply latency hides behind
/// the other's. Otherwise this is two PowModLimbs calls. The results
/// are identical either way.
void PowModCrtPair(const Montgomery& mont_p, const Montgomery& mont_q,
                   Limb* out_p, const Limb* base_p, LimbSpan exp_p,
                   Limb* out_q, const Limb* base_q, LimbSpan exp_q,
                   Scratch* scratch);

}  // namespace bignum
}  // namespace p2drm

#endif  // P2DRM_BIGNUM_MONTGOMERY_H_
