#include "bignum/montgomery.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace p2drm {
namespace bignum {

namespace {

using DoubleLimb = unsigned __int128;

// CIOS (coarsely integrated operand scanning) Montgomery multiply over
// 64-bit limbs: out = a * b * R^-1 mod N with R = 2^(64*nlimbs).
// Requires a < N (or < R when b < N), b < N, N odd. t is an nlimbs+2
// accumulator. The operand widths are fixed at entry — both a and b are
// exactly nlimbs wide — so the inner loops carry no bounds branches
// (the per-iteration a.size()/b.size() checks of the old 32-bit kernel
// are gone; callers normalize once via Montgomery::Load).
inline void CiosBody(const Limb* n, std::size_t nlimbs, Limb n0_inv,
                     Limb* out, const Limb* a, const Limb* b, Limb* t) {
  std::memset(t, 0, (nlimbs + 2) * sizeof(Limb));
  for (std::size_t i = 0; i < nlimbs; ++i) {
    // t += a * b[i]
    const DoubleLimb bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < nlimbs; ++j) {
      DoubleLimb cur = bi * a[j] + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    DoubleLimb cur = static_cast<DoubleLimb>(t[nlimbs]) + carry;
    t[nlimbs] = static_cast<Limb>(cur);
    t[nlimbs + 1] = static_cast<Limb>(cur >> 64);

    // m = t[0] * n0_inv mod 2^64; t += m * N; t >>= 64
    const DoubleLimb m = t[0] * n0_inv;
    carry = static_cast<Limb>((m * n[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < nlimbs; ++j) {
      DoubleLimb c2 = m * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(c2);
      carry = static_cast<Limb>(c2 >> 64);
    }
    cur = static_cast<DoubleLimb>(t[nlimbs]) + carry;
    t[nlimbs - 1] = static_cast<Limb>(cur);
    t[nlimbs] = t[nlimbs + 1] + static_cast<Limb>(cur >> 64);
    t[nlimbs + 1] = 0;
  }
  // t < 2N: one conditional subtraction normalizes into [0, N).
  if (t[nlimbs] != 0 || CmpN(t, n, nlimbs) >= 0) {
    SubN(out, t, n, nlimbs);
  } else {
    std::memcpy(out, t, nlimbs * sizeof(Limb));
  }
}

void MontMulGeneric(const Limb* n, std::size_t nlimbs, Limb n0_inv, Limb* out,
                    const Limb* a, const Limb* b, Limb* t) {
  CiosBody(n, nlimbs, n0_inv, out, a, b, t);
}

// Fixed-width kernels: the limb count is a compile-time constant, so
// the compiler fully unrolls the carry chains and keeps the CIOS
// accumulator on the stack (N+2 limbs, <= 272 bytes at 2048 bits).
template <std::size_t N>
void MontMulFixed(const Limb* n, std::size_t /*nlimbs*/, Limb n0_inv,
                  Limb* out, const Limb* a, const Limb* b, Limb* /*t*/) {
  Limb t[N + 2];
  CiosBody(n, N, n0_inv, out, a, b, t);
}

// Montgomery squaring, SOS form (separated operand scanning; Koç, Acar
// & Kaliski 1996): out = a * a * R^-1 mod N. Requires a < N. t is a
// 2*nlimbs accumulator. The full square is built first — each
// off-diagonal product a[i]*a[j] (i < j) once, the sum doubled by a
// one-bit shift, then the diagonal a[i]^2 added — which takes
// nlimbs*(nlimbs+1)/2 word multiplies instead of the general product's
// nlimbs^2. The word-by-word reduction that follows is the same
// m = t[i] * n0_inv step CIOS interleaves, run over the 2n-limb square.
// The result is the unique value in [0, N), so it is bit-identical to
// CiosBody(a, a).
inline void SqrBody(const Limb* n, std::size_t nlimbs, Limb n0_inv,
                    Limb* out, const Limb* a, Limb* t) {
  // t = sum over i < j of a[i]*a[j] * 2^(64(i+j)). Row i's carry lands
  // in t[i + nlimbs], which no earlier row has reached yet.
  std::memset(t, 0, 2 * nlimbs * sizeof(Limb));
  for (std::size_t i = 0; i + 1 < nlimbs; ++i) {
    const DoubleLimb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = i + 1; j < nlimbs; ++j) {
      DoubleLimb cur = ai * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    t[i + nlimbs] = carry;
  }

  // t = 2t + sum of a[i]^2 * 2^(128i). a^2 < R^2, so nothing carries out.
  Limb shifted_out = 0;
  Limb carry = 0;
  for (std::size_t i = 0; i < nlimbs; ++i) {
    const Limb lo = t[2 * i];
    const Limb hi = t[2 * i + 1];
    const DoubleLimb sq = static_cast<DoubleLimb>(a[i]) * a[i];
    DoubleLimb cur = static_cast<DoubleLimb>((lo << 1) | shifted_out) +
                     static_cast<Limb>(sq) + carry;
    t[2 * i] = static_cast<Limb>(cur);
    cur = static_cast<DoubleLimb>((hi << 1) | (lo >> 63)) +
          static_cast<Limb>(sq >> 64) + static_cast<Limb>(cur >> 64);
    t[2 * i + 1] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
    shifted_out = hi >> 63;
  }

  // Word-by-word reduction: zero t[i] by adding m * N * 2^(64i). top
  // holds the carry out of t[i + nlimbs], which belongs to the next
  // row's top word (t[i + 1 + nlimbs]).
  Limb top = 0;
  for (std::size_t i = 0; i < nlimbs; ++i) {
    const DoubleLimb m = t[i] * n0_inv;
    Limb c = static_cast<Limb>((m * n[0] + t[i]) >> 64);
    for (std::size_t j = 1; j < nlimbs; ++j) {
      DoubleLimb cur = m * n[j] + t[i + j] + c;
      t[i + j] = static_cast<Limb>(cur);
      c = static_cast<Limb>(cur >> 64);
    }
    DoubleLimb cur = static_cast<DoubleLimb>(t[i + nlimbs]) + c + top;
    t[i + nlimbs] = static_cast<Limb>(cur);
    top = static_cast<Limb>(cur >> 64);
  }
  // (top, t[nlimbs..2n)) < 2N: one conditional subtraction normalizes.
  const Limb* r = t + nlimbs;
  if (top != 0 || CmpN(r, n, nlimbs) >= 0) {
    SubN(out, r, n, nlimbs);
  } else {
    std::memcpy(out, r, nlimbs * sizeof(Limb));
  }
}

void MontSqrGeneric(const Limb* n, std::size_t nlimbs, Limb n0_inv, Limb* out,
                    const Limb* a, Limb* t) {
  SqrBody(n, nlimbs, n0_inv, out, a, t);
}

template <std::size_t N>
void MontSqrFixed(const Limb* n, std::size_t /*nlimbs*/, Limb n0_inv,
                  Limb* out, const Limb* a, Limb* /*t*/) {
  Limb t[2 * N];
  SqrBody(n, N, n0_inv, out, a, t);
}

}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : modulus_(modulus) {
  if (modulus.IsZero() || modulus.IsNegative() || !modulus.IsOdd() ||
      modulus == BigInt(1)) {
    throw std::domain_error("Montgomery: modulus must be odd and > 1");
  }
  const std::vector<std::uint32_t>& limbs32 = modulus.limbs();
  n_ = PackedWidth(limbs32.size());
  n64_.resize(n_);
  Pack32To64(n64_.data(), n_, limbs32.data(), limbs32.size());

  // n0_inv = -N^-1 mod 2^64 via Newton iteration: each step doubles the
  // number of correct low bits (1 -> 2 -> ... -> 64 in 6 steps).
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2u - n64_[0] * inv;
  }
  n0_inv_ = ~inv + 1u;  // negate mod 2^64

  BigInt r = BigInt(1) << (64 * n_);
  BigInt r_mod_n = r.Mod(modulus_);
  BigInt r2_mod_n = (r_mod_n * r_mod_n).Mod(modulus_);
  one_mont_.resize(n_);
  r2_.resize(n_);
  Load(one_mont_.data(), r_mod_n);
  Load(r2_.data(), r2_mod_n);

  // Fixed-width dispatch for the RSA modulus sizes (bits = 64 * n_).
  switch (n_) {
    case 8:   // 512-bit
      mul_fn_ = &MontMulFixed<8>;
      sqr_fn_ = &MontSqrFixed<8>;
      break;
    case 16:  // 1024-bit
      mul_fn_ = &MontMulFixed<16>;
      sqr_fn_ = &MontSqrFixed<16>;
      break;
    case 32:  // 2048-bit
      mul_fn_ = &MontMulFixed<32>;
      sqr_fn_ = &MontSqrFixed<32>;
      break;
    default:
      mul_fn_ = &MontMulGeneric;
      sqr_fn_ = &MontSqrGeneric;
      break;
  }
}

void Montgomery::Load(Limb* out, const BigInt& a) const {
  if (a.IsNegative() || a.CompareMagnitude(modulus_) >= 0) {
    throw std::domain_error("Montgomery::Load: value out of [0, N)");
  }
  const std::vector<std::uint32_t>& limbs32 = a.limbs();
  Pack32To64(out, n_, limbs32.data(), limbs32.size());
}

BigInt Montgomery::Unload(const Limb* in) const {
  std::vector<std::uint32_t> out32(2 * n_);
  Unpack64To32(out32.data(), out32.size(), in, n_);
  return BigInt::FromLimbs(std::move(out32), false);
}

void Montgomery::MontMulLimbs(Limb* out, const Limb* a, const Limb* b,
                              Scratch* scratch) const {
  Scratch::Frame frame(scratch);
  Limb* t = scratch->Alloc(n_ + 2);
  mul_fn_(n64_.data(), n_, n0_inv_, out, a, b, t);
}

void Montgomery::MontSqrLimbs(Limb* out, const Limb* a,
                              Scratch* scratch) const {
  Scratch::Frame frame(scratch);
  Limb* t = scratch->Alloc(2 * n_);
  sqr_fn_(n64_.data(), n_, n0_inv_, out, a, t);
}

BigInt Montgomery::MulMont(const BigInt& a, const BigInt& b) const {
  Scratch* scratch = &TlsScratch();
  Scratch::Frame frame(scratch);
  Limb* pa = scratch->Alloc(n_);
  Limb* pb = scratch->Alloc(n_);
  Limb* t = scratch->Alloc(n_ + 2);
  Load(pa, a);
  Load(pb, b);
  mul_fn_(n64_.data(), n_, n0_inv_, pa, pa, pb, t);
  return Unload(pa);
}

BigInt Montgomery::ToMont(const BigInt& a) const {
  // a may be any value < R (not just < N): CIOS stays correct when one
  // operand is < R and the other (here R^2 mod N) is < N.
  if (a.IsNegative() || a.BitLength() > 64 * n_) {
    throw std::domain_error("Montgomery::ToMont: value out of [0, R)");
  }
  Scratch* scratch = &TlsScratch();
  Scratch::Frame frame(scratch);
  Limb* pa = scratch->Alloc(n_);
  Limb* t = scratch->Alloc(n_ + 2);
  const std::vector<std::uint32_t>& limbs32 = a.limbs();
  Pack32To64(pa, n_, limbs32.data(), limbs32.size());
  mul_fn_(n64_.data(), n_, n0_inv_, pa, pa, r2_.data(), t);
  return Unload(pa);
}

BigInt Montgomery::FromMont(const BigInt& a) const {
  Scratch* scratch = &TlsScratch();
  Scratch::Frame frame(scratch);
  Limb* pa = scratch->Alloc(n_);
  Limb* one = scratch->Alloc(n_);
  Limb* t = scratch->Alloc(n_ + 2);
  Load(pa, a);
  std::memset(one, 0, n_ * sizeof(Limb));
  one[0] = 1;
  mul_fn_(n64_.data(), n_, n0_inv_, pa, pa, one, t);
  return Unload(pa);
}

void Montgomery::PowModLimbs(Limb* out, const Limb* base, LimbSpan exp,
                             Scratch* scratch) const {
  namespace ks = kernel_stats;
  switch (n_) {
    case 8:  ks::powmod_fixed_512.fetch_add(1, std::memory_order_relaxed); break;
    case 16: ks::powmod_fixed_1024.fetch_add(1, std::memory_order_relaxed); break;
    case 32: ks::powmod_fixed_2048.fetch_add(1, std::memory_order_relaxed); break;
    default: ks::powmod_generic.fetch_add(1, std::memory_order_relaxed); break;
  }

  const std::size_t nbits = BitLengthN(exp);
  if (nbits == 0) {
    // base^0 = 1 (modulus > 1, so 1 is already reduced).
    std::memset(out, 0, n_ * sizeof(Limb));
    out[0] = 1;
    return;
  }

  // Window size: 5 bits amortizes better once the exponent is longer
  // than 512 bits (table build is 2^w multiplies); 4 below.
  const std::size_t w = nbits > 512 ? 5 : 4;
  (w == 5 ? ks::powmod_window_5 : ks::powmod_window_4)
      .fetch_add(1, std::memory_order_relaxed);

  const Limb* n = n64_.data();
  Scratch::Frame frame(scratch);
  // One accumulator serves both kernels: n+2 limbs for the multiply,
  // 2n for the square.
  Limb* t = scratch->Alloc(2 * n_ + 2);
  Limb* mb = scratch->Alloc(n_);
  mul_fn_(n, n_, n0_inv_, mb, base, r2_.data(), t);  // base into Montgomery form

  // Fixed-width table: table[i] = base^i in Montgomery form.
  const std::size_t table_size = std::size_t{1} << w;
  Limb* table = scratch->Alloc(table_size * n_);
  std::memcpy(table, one_mont_.data(), n_ * sizeof(Limb));
  for (std::size_t i = 1; i < table_size; ++i) {
    mul_fn_(n, n_, n0_inv_, table + i * n_, table + (i - 1) * n_, mb, t);
  }

  Limb* acc = scratch->Alloc(n_);
  std::memcpy(acc, one_mont_.data(), n_ * sizeof(Limb));
  const std::size_t nwindows = (nbits + w - 1) / w;
  for (std::size_t win = nwindows; win > 0; --win) {
    for (std::size_t s = 0; s < w; ++s) {
      sqr_fn_(n, n_, n0_inv_, acc, acc, t);
    }
    std::size_t idx = 0;
    for (std::size_t bit = 0; bit < w; ++bit) {
      std::size_t pos = (win - 1) * w + bit;
      if (pos < nbits &&
          ((exp.ptr[pos / 64] >> (pos % 64)) & 1u) != 0) {
        idx |= std::size_t{1} << bit;
      }
    }
    if (idx != 0) {
      mul_fn_(n, n_, n0_inv_, acc, acc, table + idx * n_, t);
    }
  }

  // Out of Montgomery form: multiply by 1.
  Limb* one = scratch->Alloc(n_);
  std::memset(one, 0, n_ * sizeof(Limb));
  one[0] = 1;
  mul_fn_(n, n_, n0_inv_, out, acc, one, t);
}

BigInt Montgomery::PowMod(const BigInt& base, const BigInt& exp) const {
  Scratch* scratch = &TlsScratch();
  Scratch::Frame frame(scratch);
  Limb* pb = scratch->Alloc(n_);
  Load(pb, base);
  const std::vector<std::uint32_t>& e32 = exp.limbs();
  const std::size_t en = PackedWidth(e32.size());
  Limb* pe = scratch->Alloc(en > 0 ? en : 1);
  Pack32To64(pe, en, e32.data(), e32.size());
  Limb* out = scratch->Alloc(n_);
  PowModLimbs(out, pb, LimbSpan{pe, en}, scratch);
  return Unload(out);
}

std::shared_ptr<const Montgomery> Montgomery::CachedFor(const BigInt& modulus) {
  // Per-thread MRU cache: big enough for the working set of any flow
  // (CP key + CA key + payment denominations + CRT halves), small
  // enough that a scan is free next to an exponentiation.
  constexpr std::size_t kCacheCap = 8;
  thread_local std::vector<std::shared_ptr<const Montgomery>> cache;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache[i]->modulus() == modulus) {
      if (i != 0) {
        std::rotate(cache.begin(), cache.begin() + i, cache.begin() + i + 1);
      }
      return cache.front();
    }
  }
  auto ctx = std::make_shared<const Montgomery>(modulus);
  cache.insert(cache.begin(), ctx);
  if (cache.size() > kCacheCap) cache.pop_back();
  return ctx;
}

}  // namespace bignum
}  // namespace p2drm
