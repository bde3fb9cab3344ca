#include "bignum/montgomery.h"

#include <algorithm>
#include <cstdint>
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

void CountWidth(std::size_t nlimbs) {
  namespace ks = kernel_stats;
  switch (nlimbs) {
    case 8:  ks::powmod_fixed_512.fetch_add(1, std::memory_order_relaxed); break;
    case 16: ks::powmod_fixed_1024.fetch_add(1, std::memory_order_relaxed); break;
    case 32: ks::powmod_fixed_2048.fetch_add(1, std::memory_order_relaxed); break;
    default: ks::powmod_generic.fetch_add(1, std::memory_order_relaxed); break;
  }
}

// A scratch block of n limbs on a 64-byte boundary, so IFMA operands
// load as whole cache lines.
Limb* AllocAligned(Scratch* scratch, std::size_t n) {
  Limb* p = scratch->Alloc(n + ifma::kLanes - 1);
  const std::size_t misalign = reinterpret_cast<std::uintptr_t>(p) % 64;
  return misalign == 0 ? p : p + (64 - misalign) / sizeof(Limb);
}

// -- kernels as the exponentiation loop sees them --------------------------
// kWays independent exponentiations advance in lockstep: every step is
// one kernel call covering all of them (arrays of kWays pointers). Each
// way's values are Stride() limbs in the kernel's own Montgomery
// representation; Enter and Leave convert from and to ordinary 64-bit
// limbs in [0, N).

using CiosMulFn = void (*)(const Limb*, std::size_t, Limb, Limb*, const Limb*,
                           const Limb*, Limb*);
using CiosSqrFn = void (*)(const Limb*, std::size_t, Limb, Limb*, const Limb*,
                           Limb*);

// The CIOS multiply and SOS square over 64-bit limbs, R = 2^(64 n).
class CiosKernel {
 public:
  static constexpr std::size_t kWays = 1;

  CiosKernel(const Limb* n, std::size_t width, Limb n0_inv, CiosMulFn mul,
             CiosSqrFn sqr, const Limb* one_mont, const Limb* r2,
             Scratch* scratch)
      : n_(n), width_(width), n0_inv_(n0_inv), mul_(mul), sqr_(sqr),
        one_mont_(one_mont), r2_(r2),
        t_(scratch->Alloc(2 * width + 2)),  // n+2 for mul, 2n for sqr
        unit_(scratch->Alloc(width)) {
    std::memset(unit_, 0, width * sizeof(Limb));
    unit_[0] = 1;
  }

  std::size_t Stride() const { return width_; }
  const Limb* One(std::size_t /*way*/) const { return one_mont_; }
  void Mul(Limb* const* out, const Limb* const* a, const Limb* const* b) const {
    mul_(n_, width_, n0_inv_, out[0], a[0], b[0], t_);
  }
  void Sqr(Limb* const* out, const Limb* const* a) const {
    sqr_(n_, width_, n0_inv_, out[0], a[0], t_);
  }
  void Enter(Limb* const* out, const Limb* const* base) const {
    mul_(n_, width_, n0_inv_, out[0], base[0], r2_, t_);
  }
  void Leave(Limb* const* out, const Limb* const* acc) const {
    mul_(n_, width_, n0_inv_, out[0], acc[0], unit_, t_);
  }

 private:
  const Limb* n_;
  std::size_t width_;
  Limb n0_inv_;
  CiosMulFn mul_;
  CiosSqrFn sqr_;
  const Limb* one_mont_;
  const Limb* r2_;
  Limb* t_;
  Limb* unit_;
};

// One modulus's constants for the IFMA kernel.
struct IfmaWay {
  const Limb* n52;   // N as digits
  Limb k0;           // -N^-1 mod 2^52
  const Limb* one;   // R' mod N as digits
  const Limb* r2;    // R'^2 mod N as digits
  const Limb* n64;   // N as 64-bit limbs
  std::size_t width; // 64-bit limbs of N
};

// The radix-2^52 almost-Montgomery kernel (ifma.h), R' = 2^(52 nd), over
// W moduli of one digit count. Values between steps are below 2N; Leave
// multiplies by 1, which lands in [0, N], and subtracts N once if needed.
template <std::size_t W>
class IfmaKernel {
 public:
  static constexpr std::size_t kWays = W;

  IfmaKernel(ifma::AmmFn amm, std::size_t nd, const IfmaWay* ways,
             Scratch* scratch)
      : amm_(amm), nd_(nd), stride_(ifma::StrideFor(nd)), ways_(ways),
        unit_(AllocAligned(scratch, stride_)) {
    std::memset(unit_, 0, stride_ * sizeof(Limb));
    unit_[0] = 1;
    for (std::size_t w = 0; w < W; ++w) {
      tmp_[w] = AllocAligned(scratch, stride_);
    }
  }

  std::size_t Stride() const { return stride_; }
  const Limb* One(std::size_t way) const { return ways_[way].one; }
  void Mul(Limb* const* out, const Limb* const* a, const Limb* const* b) const {
    ifma::AmmOperands sets[W];
    for (std::size_t w = 0; w < W; ++w) {
      sets[w] = {out[w], a[w], b[w], ways_[w].n52, ways_[w].k0};
    }
    amm_(sets, nd_);
  }
  void Sqr(Limb* const* out, const Limb* const* a) const { Mul(out, a, a); }
  void Enter(Limb* const* out, const Limb* const* base) const {
    const Limb* r2[W];
    for (std::size_t w = 0; w < W; ++w) {
      ifma::ToDigits(tmp_[w], stride_, base[w], ways_[w].width);
      r2[w] = ways_[w].r2;
    }
    Mul(out, tmp_, r2);
  }
  void Leave(Limb* const* out, const Limb* const* acc) const {
    const Limb* unit[W];
    for (std::size_t w = 0; w < W; ++w) unit[w] = unit_;
    Mul(tmp_, acc, unit);
    for (std::size_t w = 0; w < W; ++w) {
      const IfmaWay& way = ways_[w];
      ifma::FromDigits(out[w], way.width, tmp_[w], nd_);
      if (CmpN(out[w], way.n64, way.width) >= 0) {
        SubN(out[w], out[w], way.n64, way.width);
      }
    }
  }

 private:
  ifma::AmmFn amm_;
  std::size_t nd_;
  std::size_t stride_;
  const IfmaWay* ways_;
  Limb* unit_;
  Limb* tmp_[W];
};

// The 8-lane kernels (ifma.h, AmmMb8Fn and AmsMb8Fn) over one modulus,
// as one way whose value is a digit-major block of 8 values: Stride() is
// nd * 8 limbs. In ordinary form the way is `lanes` values of `width` limbs
// back to back; the lanes past them enter as 0 and are never read out.
// Values between steps are below 2N, as for IfmaKernel.
class IfmaMb8Kernel {
 public:
  static constexpr std::size_t kWays = 1;

  IfmaMb8Kernel(ifma::AmmMb8Fn amm, ifma::AmsMb8Fn ams, std::size_t nd,
                const IfmaWay& way, std::size_t lanes, Scratch* scratch)
      : amm_(amm), ams_(ams), nd_(nd), way_(way), lanes_(lanes),
        one_(AllocAligned(scratch, Stride())),
        r2_(AllocAligned(scratch, Stride())),
        unit_(AllocAligned(scratch, Stride())),
        tmp_(AllocAligned(scratch, Stride())),
        digits_(scratch->Alloc(ifma::StrideFor(nd))) {
    for (std::size_t j = 0; j < nd_; ++j) {
      for (std::size_t l = 0; l < ifma::kLanes; ++l) {
        one_[j * ifma::kLanes + l] = way_.one[j];
        r2_[j * ifma::kLanes + l] = way_.r2[j];
        unit_[j * ifma::kLanes + l] = j == 0 ? 1 : 0;
      }
    }
  }

  std::size_t Stride() const { return nd_ * ifma::kLanes; }
  const Limb* One(std::size_t /*way*/) const { return one_; }
  void Mul(Limb* const* out, const Limb* const* a, const Limb* const* b) const {
    amm_(out[0], a[0], b[0], way_.n52, way_.k0);
  }
  void Sqr(Limb* const* out, const Limb* const* a) const {
    ams_(out[0], a[0], way_.n52, way_.k0);
  }
  void Enter(Limb* const* out, const Limb* const* base) const {
    std::memset(tmp_, 0, Stride() * sizeof(Limb));
    for (std::size_t l = 0; l < lanes_; ++l) {
      ifma::ToDigits(digits_, ifma::StrideFor(nd_), base[0] + l * way_.width,
                     way_.width);
      for (std::size_t j = 0; j < nd_; ++j) {
        tmp_[j * ifma::kLanes + l] = digits_[j];
      }
    }
    amm_(out[0], tmp_, r2_, way_.n52, way_.k0);
  }
  void Leave(Limb* const* out, const Limb* const* acc) const {
    amm_(tmp_, acc[0], unit_, way_.n52, way_.k0);
    for (std::size_t l = 0; l < lanes_; ++l) {
      for (std::size_t j = 0; j < nd_; ++j) {
        digits_[j] = tmp_[j * ifma::kLanes + l];
      }
      Limb* lane = out[0] + l * way_.width;
      ifma::FromDigits(lane, way_.width, digits_, nd_);
      if (CmpN(lane, way_.n64, way_.width) >= 0) {
        SubN(lane, lane, way_.n64, way_.width);
      }
    }
  }

 private:
  ifma::AmmMb8Fn amm_;
  ifma::AmsMb8Fn ams_;
  std::size_t nd_;
  IfmaWay way_;
  std::size_t lanes_;
  Limb* one_;     // R' mod N in every lane
  Limb* r2_;      // R'^2 mod N in every lane
  Limb* unit_;    // 1 in every lane
  Limb* tmp_;     // digit-major staging block
  Limb* digits_;  // one lane's digits
};

// Bit \p pos of an exponent (zero past its end).
unsigned ExpBit(LimbSpan exp, std::size_t pos) {
  return pos / 64 < exp.len ? (exp.ptr[pos / 64] >> (pos % 64)) & 1u : 0u;
}

// out[w] = base[w]^exp[w] mod N_w for every way of \p kernel, ordinary
// form in and out. Exponents of at most 64 bits run a left-to-right
// binary ladder (no table: e = 65537 is 16 squarings and 1 multiply).
// Longer ones use fixed windows: 5 bits above 512 exponent bits, 4
// below, with the table (base^0..base^(2^w-1)) in scratch. Ways
// advance together; a shorter exponent reads as leading zero bits.
template <class Kernel>
void WindowedPowMod(const Kernel& kernel, Limb* const* out,
                    const Limb* const* base, const LimbSpan* exp,
                    Scratch* scratch) {
  namespace ks = kernel_stats;
  constexpr std::size_t W = Kernel::kWays;
  const std::size_t stride = kernel.Stride();
  std::size_t nbits = 0;
  for (std::size_t w = 0; w < W; ++w) {
    nbits = std::max(nbits, BitLengthN(exp[w]));
  }

  Scratch::Frame frame(scratch);
  Limb* acc[W];
  for (std::size_t w = 0; w < W; ++w) acc[w] = AllocAligned(scratch, stride);
  const Limb* factor[W];

  if (nbits <= 64) {
    Limb* mb[W];
    for (std::size_t w = 0; w < W; ++w) mb[w] = AllocAligned(scratch, stride);
    if (nbits > 0) {
      ks::powmod_window_1.fetch_add(W, std::memory_order_relaxed);
      kernel.Enter(mb, base);
    }
    for (std::size_t w = 0; w < W; ++w) {
      const bool top = nbits > 0 && ExpBit(exp[w], nbits - 1) != 0;
      std::memcpy(acc[w], top ? mb[w] : kernel.One(w), stride * sizeof(Limb));
    }
    for (std::size_t pos = nbits > 0 ? nbits - 1 : 0; pos-- > 0;) {
      kernel.Sqr(acc, acc);
      bool any = false;
      for (std::size_t w = 0; w < W; ++w) {
        const bool bit = ExpBit(exp[w], pos) != 0;
        factor[w] = bit ? mb[w] : kernel.One(w);
        any = any || bit;
      }
      if (any) kernel.Mul(acc, acc, factor);
    }
    kernel.Leave(out, acc);
    return;
  }

  // Window size: 5 bits amortizes better once the exponent is longer
  // than 512 bits (the table costs 2^w - 2 multiplies); 4 below.
  const std::size_t wbits = nbits > 512 ? 5 : 4;
  (wbits == 5 ? ks::powmod_window_5 : ks::powmod_window_4)
      .fetch_add(W, std::memory_order_relaxed);
  const std::size_t table_size = std::size_t{1} << wbits;
  Limb* table[W];
  Limb* entry[W];
  for (std::size_t w = 0; w < W; ++w) {
    table[w] = AllocAligned(scratch, table_size * stride);
    std::memcpy(table[w], kernel.One(w), stride * sizeof(Limb));
    entry[w] = table[w] + stride;
  }
  kernel.Enter(entry, base);  // table[1] = base
  const Limb* prev[W];
  for (std::size_t i = 2; i < table_size; ++i) {
    for (std::size_t w = 0; w < W; ++w) {
      prev[w] = entry[w];
      entry[w] += stride;
      factor[w] = table[w] + stride;
    }
    kernel.Mul(entry, prev, factor);  // table[i] = table[i-1] * base
  }

  const std::size_t nwindows = (nbits + wbits - 1) / wbits;
  auto window = [&](std::size_t w, std::size_t win) {
    std::size_t idx = 0;
    for (std::size_t bit = 0; bit < wbits; ++bit) {
      idx |= std::size_t{ExpBit(exp[w], win * wbits + bit)} << bit;
    }
    return idx;
  };
  for (std::size_t w = 0; w < W; ++w) {
    std::memcpy(acc[w], table[w] + window(w, nwindows - 1) * stride,
                stride * sizeof(Limb));
  }
  for (std::size_t win = nwindows - 1; win-- > 0;) {
    for (std::size_t s = 0; s < wbits; ++s) kernel.Sqr(acc, acc);
    bool any = false;
    for (std::size_t w = 0; w < W; ++w) {
      const std::size_t idx = window(w, win);
      factor[w] = table[w] + idx * stride;
      any = any || idx != 0;
    }
    if (any) kernel.Mul(acc, acc, factor);
  }
  kernel.Leave(out, acc);
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

  // IFMA dispatch: PowMod moves to the radix-2^52 kernel when the CPU
  // has it; the CIOS kernels above keep the span API and MulMont.
  const std::size_t nd = ifma::DigitsFor(modulus_.BitLength());
  amm_fn_ = ifma::SelectAmm(nd, 1);
  if (amm_fn_ != nullptr) {
    amm_pair_fn_ = ifma::SelectAmm(nd, 2);
    amm_mb8_fn_ = ifma::SelectAmmMb8(nd);
    ams_mb8_fn_ = ifma::SelectAmsMb8(nd);
    nd_ = nd;
    k0_ = n0_inv_ & ifma::kDigitMask;
    const std::size_t stride = ifma::StrideFor(nd);
    n52_.resize(stride);
    ifma::ToDigits(n52_.data(), stride, n64_.data(), n_);
    std::vector<Limb> packed(n_);
    auto to_digits = [&](const BigInt& v, std::vector<Limb>* out) {
      Load(packed.data(), v);
      out->resize(stride);
      ifma::ToDigits(out->data(), stride, packed.data(), n_);
    };
    const BigInt r_prime = (BigInt(1) << (ifma::kDigitBits * nd)).Mod(modulus_);
    to_digits(r_prime, &one52_);
    to_digits((r_prime * r_prime).Mod(modulus_), &r2_52_);
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
  CountWidth(n_);
  Scratch::Frame frame(scratch);
  if (amm_fn_ != nullptr) {
    kernel_stats::powmod_ifma.fetch_add(1, std::memory_order_relaxed);
    const IfmaWay way{n52_.data(), k0_, one52_.data(), r2_52_.data(),
                      n64_.data(), n_};
    const IfmaKernel<1> kernel(amm_fn_, nd_, &way, scratch);
    WindowedPowMod(kernel, &out, &base, &exp, scratch);
  } else {
    const CiosKernel kernel(n64_.data(), n_, n0_inv_, mul_fn_, sqr_fn_,
                            one_mont_.data(), r2_.data(), scratch);
    WindowedPowMod(kernel, &out, &base, &exp, scratch);
  }
}

void Montgomery::PowModMb8(Limb* out, const Limb* base, std::size_t lanes,
                           LimbSpan exp, Scratch* scratch) const {
  if (amm_mb8_fn_ == nullptr || lanes == 0 || lanes > ifma::kLanes) {
    throw std::logic_error("Montgomery::PowModMb8: no 8-lane kernel here");
  }
  namespace ks = kernel_stats;
  for (std::size_t l = 0; l < lanes; ++l) CountWidth(n_);
  ks::powmod_mb8.fetch_add(1, std::memory_order_relaxed);
  Scratch::Frame frame(scratch);
  const IfmaWay way{n52_.data(), k0_, one52_.data(), r2_52_.data(),
                    n64_.data(), n_};
  const IfmaMb8Kernel kernel(amm_mb8_fn_, ams_mb8_fn_, nd_, way, lanes,
                             scratch);
  WindowedPowMod(kernel, &out, &base, &exp, scratch);
}

void PowModCrtPair(const Montgomery& mont_p, const Montgomery& mont_q,
                   Limb* out_p, const Limb* base_p, LimbSpan exp_p,
                   Limb* out_q, const Limb* base_q, LimbSpan exp_q,
                   Scratch* scratch) {
  if (mont_p.amm_pair_fn_ == nullptr || mont_q.amm_pair_fn_ == nullptr ||
      mont_p.nd_ != mont_q.nd_) {
    mont_p.PowModLimbs(out_p, base_p, exp_p, scratch);
    mont_q.PowModLimbs(out_q, base_q, exp_q, scratch);
    return;
  }
  namespace ks = kernel_stats;
  CountWidth(mont_p.n_);
  CountWidth(mont_q.n_);
  ks::powmod_ifma.fetch_add(2, std::memory_order_relaxed);
  ks::crt_pairs.fetch_add(1, std::memory_order_relaxed);

  Scratch::Frame frame(scratch);
  const IfmaWay ways[2] = {
      {mont_p.n52_.data(), mont_p.k0_, mont_p.one52_.data(),
       mont_p.r2_52_.data(), mont_p.n64_.data(), mont_p.n_},
      {mont_q.n52_.data(), mont_q.k0_, mont_q.one52_.data(),
       mont_q.r2_52_.data(), mont_q.n64_.data(), mont_q.n_}};
  const IfmaKernel<2> kernel(mont_p.amm_pair_fn_, mont_p.nd_, ways, scratch);
  Limb* const outs[2] = {out_p, out_q};
  const Limb* const bases[2] = {base_p, base_q};
  const LimbSpan exps[2] = {exp_p, exp_q};
  WindowedPowMod(kernel, outs, bases, exps, scratch);
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
