// Differential tests for the AVX-512 IFMA exponentiation path
// (bignum/ifma.h, docs/bignum.md "The IFMA kernel"). Every result is
// held to a square-and-multiply ladder built from the CIOS/SOS span API
// (MontMulLimbs / MontSqrLimbs), which shares no code with the radix-2^52
// kernel or the windowed loop; the 8-lane kernel is held to the
// single-set kernel digit for digit, and PowModMb8 to PowModLimbs. On a
// CPU without IFMA the portable kernels are the only path and these
// tests skip.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/ifma.h"
#include "bignum/limbs.h"
#include "bignum/montgomery.h"

namespace p2drm {
namespace bignum {
namespace {

BigInt RandomBits(std::mt19937_64& rng, std::size_t bits) {
  BigInt v(0);
  for (std::size_t i = 0; i < bits; i += 64) {
    v = (v << 64) + BigInt::FromUint64(rng());
  }
  return v.Mod(BigInt(1) << bits);
}

// Odd, exactly \p bits bits.
BigInt RandomModulus(std::mt19937_64& rng, std::size_t bits) {
  const BigInt top = BigInt(1) << (bits - 1);
  return top + (RandomBits(rng, bits - 1) >> 1 << 1) + BigInt(1);
}

// Odd, exactly \p bits bits, top 64-bit limb all ones: 2^bits minus a
// small even number minus 1. N - 1 - small then has an all-ones top limb
// too, the operands whose carries run longest.
BigInt AllOnesTopModulus(std::mt19937_64& rng, std::size_t bits) {
  return (BigInt(1) << bits) - (BigInt::FromUint64(rng() >> 1) << 1) -
         BigInt(1);
}

std::vector<Limb> Pack(const BigInt& v) {
  const std::vector<std::uint32_t>& v32 = v.limbs();
  std::vector<Limb> out(PackedWidth(v32.size()) + 1);
  Pack32To64(out.data(), out.size(), v32.data(), v32.size());
  return out;
}

// base^exp mod N by left-to-right square-and-multiply on the CIOS span
// API. Montgomery form is entered with BigInt MulMod (base * R mod N).
BigInt CiosLadder(const Montgomery& mont, const BigInt& base,
                  const BigInt& exp) {
  const std::size_t w = mont.width();
  const BigInt& n = mont.modulus();
  const BigInt r = (BigInt(1) << (64 * w)).Mod(n);
  Scratch scratch;
  std::vector<Limb> mb(w), acc(w), one(w, 0);
  mont.Load(mb.data(), base.MulMod(r, n));
  mont.Load(acc.data(), r);
  for (std::size_t i = exp.BitLength(); i-- > 0;) {
    mont.MontSqrLimbs(acc.data(), acc.data(), &scratch);
    if (exp.Bit(i)) {
      mont.MontMulLimbs(acc.data(), acc.data(), mb.data(), &scratch);
    }
  }
  one[0] = 1;
  mont.MontMulLimbs(acc.data(), acc.data(), one.data(), &scratch);
  return mont.Unload(acc.data());
}

BigInt ViaPowModLimbs(const Montgomery& mont, const BigInt& base,
                      const BigInt& exp, Scratch* scratch) {
  std::vector<Limb> b(mont.width()), out(mont.width());
  mont.Load(b.data(), base);
  const std::vector<Limb> e = Pack(exp);
  mont.PowModLimbs(out.data(), b.data(), LimbSpan{e.data(), e.size()},
                   scratch);
  return mont.Unload(out.data());
}

struct PairResult {
  BigInt p;
  BigInt q;
};

PairResult ViaCrtPair(const Montgomery& mont_p, const Montgomery& mont_q,
                      const BigInt& base_p, const BigInt& exp_p,
                      const BigInt& base_q, const BigInt& exp_q,
                      Scratch* scratch) {
  std::vector<Limb> bp(mont_p.width()), bq(mont_q.width());
  mont_p.Load(bp.data(), base_p);
  mont_q.Load(bq.data(), base_q);
  const std::vector<Limb> ep = Pack(exp_p);
  const std::vector<Limb> eq = Pack(exp_q);
  std::vector<Limb> op(mont_p.width()), oq(mont_q.width());
  PowModCrtPair(mont_p, mont_q, op.data(), bp.data(),
                LimbSpan{ep.data(), ep.size()}, oq.data(), bq.data(),
                LimbSpan{eq.data(), eq.size()}, scratch);
  return PairResult{mont_p.Unload(op.data()), mont_q.Unload(oq.data())};
}

class IfmaKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!ifma::CpuSupported()) {
      GTEST_SKIP() << "CPU lacks AVX-512 IFMA: PowMod runs only on the "
                      "portable CIOS/SOS kernels here";
    }
  }
};

TEST_P(IfmaKernelTest, PowModMatchesCiosLadder) {
  const std::size_t bits = GetParam();
  std::mt19937_64 rng(bits * 104729u + 3u);
  const BigInt r = BigInt(1) << bits;
  for (const BigInt& n : {RandomModulus(rng, bits),
                          AllOnesTopModulus(rng, bits)}) {
    ASSERT_EQ(n.BitLength(), bits);
    const Montgomery mont(n);
    const std::size_t nd = ifma::DigitsFor(bits);
    const BigInt r64 = (BigInt(1) << (64 * mont.width())).Mod(n);
    const BigInt r52 = (BigInt(1) << (52 * nd)).Mod(n);
    std::vector<BigInt> edges = {BigInt(0), BigInt(1), n - BigInt(1), r64,
                                 r52,
                                 n - BigInt::FromUint64(rng() >> 1) -
                                     BigInt(1)};
    std::vector<BigInt> randoms;
    for (int i = 0; i < 200; ++i) randoms.push_back(RandomBits(rng, bits).Mod(n));

    // Short exponents (the ladder, and the first windowed length) for
    // every base; long ones for the edges and a few random bases.
    const std::vector<BigInt> short_exps = {
        BigInt(0), BigInt(1), BigInt(2), BigInt(65537),
        (BigInt(1) << 64) - BigInt(1), (BigInt(1) << 65) - BigInt(1)};
    const std::vector<BigInt> long_exps = {
        (BigInt(1) << 512) - BigInt(1), (BigInt(1) << 513) - BigInt(1),
        r - BigInt(1), RandomBits(rng, bits - 1) + (BigInt(1) << (bits - 1))};

    Scratch scratch;
    const std::uint64_t ifma_before = KernelStats().powmod_ifma;
    std::uint64_t calls = 0;
    auto check = [&](const BigInt& base, const BigInt& exp) {
      EXPECT_EQ(ViaPowModLimbs(mont, base, exp, &scratch).ToHex(),
                CiosLadder(mont, base, exp).ToHex())
          << bits << "-bit N=" << n.ToHex() << " base=" << base.ToHex()
          << " exp=" << exp.ToHex();
      ++calls;
    };
    for (const BigInt& e : short_exps) {
      for (const BigInt& b : edges) check(b, e);
      for (const BigInt& b : randoms) check(b, e);
    }
    for (const BigInt& e : long_exps) {
      for (const BigInt& b : edges) check(b, e);
      for (int i = 0; i < 4; ++i) check(randoms[i], e);
    }
    EXPECT_EQ(KernelStats().powmod_ifma - ifma_before, calls)
        << "PowModLimbs did not run on the IFMA kernel";
  }
}

TEST_P(IfmaKernelTest, WarmPathAllocatesNothing) {
  const std::size_t bits = GetParam();
  std::mt19937_64 rng(bits + 41u);
  const Montgomery mont(RandomModulus(rng, bits));
  const Montgomery mont_q(RandomModulus(rng, bits));
  const BigInt base = RandomBits(rng, bits).Mod(mont.modulus());
  const BigInt exp = RandomBits(rng, bits);
  Scratch scratch;
  const BigInt first = ViaPowModLimbs(mont, base, exp, &scratch);
  const PairResult first_pair = ViaCrtPair(mont, mont_q, base, exp,
                                           base.Mod(mont_q.modulus()), exp,
                                           &scratch);
  const std::uint64_t warm = KernelStats().scratch_heap_allocs;
  const std::uint64_t arena = scratch.heap_allocations();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ViaPowModLimbs(mont, base, exp, &scratch).ToHex(),
              first.ToHex());
    const PairResult pair = ViaCrtPair(mont, mont_q, base, exp,
                                       base.Mod(mont_q.modulus()), exp,
                                       &scratch);
    EXPECT_EQ(pair.p.ToHex(), first_pair.p.ToHex());
    EXPECT_EQ(pair.q.ToHex(), first_pair.q.ToHex());
  }
  EXPECT_EQ(scratch.heap_allocations(), arena);
  EXPECT_EQ(KernelStats().scratch_heap_allocs, warm)
      << "warm IFMA PowMod allocated scratch on the heap";
}

INSTANTIATE_TEST_SUITE_P(Widths, IfmaKernelTest,
                         ::testing::Values(512u, 1024u, 1039u, 1040u, 1536u,
                                           2048u));

class IfmaCrtPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ifma::CpuSupported()) {
      GTEST_SKIP() << "CPU lacks AVX-512 IFMA: PowModCrtPair is two "
                      "portable PowModLimbs calls here";
    }
  }

  // Runs the pair against two single exponentiations and the CIOS
  // ladder; returns how many pair passes the call added.
  std::uint64_t CheckPair(const BigInt& p, const BigInt& q,
                          const BigInt& exp_p, const BigInt& exp_q,
                          std::mt19937_64& rng) {
    const Montgomery mont_p(p);
    const Montgomery mont_q(q);
    Scratch scratch;
    const std::uint64_t pairs_before = KernelStats().crt_pairs;
    for (int i = 0; i < 8; ++i) {
      const BigInt c = RandomBits(rng, p.BitLength() + q.BitLength());
      const BigInt base_p = i == 0 ? p - BigInt(1) : c.Mod(p);
      const BigInt base_q = i == 0 ? BigInt(0) : c.Mod(q);
      const PairResult got =
          ViaCrtPair(mont_p, mont_q, base_p, exp_p, base_q, exp_q, &scratch);
      EXPECT_EQ(got.p.ToHex(),
                ViaPowModLimbs(mont_p, base_p, exp_p, &scratch).ToHex());
      EXPECT_EQ(got.q.ToHex(),
                ViaPowModLimbs(mont_q, base_q, exp_q, &scratch).ToHex());
      EXPECT_EQ(got.p.ToHex(), CiosLadder(mont_p, base_p, exp_p).ToHex());
      EXPECT_EQ(got.q.ToHex(), CiosLadder(mont_q, base_q, exp_q).ToHex());
    }
    return KernelStats().crt_pairs - pairs_before;
  }
};

TEST_F(IfmaCrtPairTest, UnequalExponentLengthsMatchSingles) {
  std::mt19937_64 rng(1234567u);
  const BigInt p = RandomModulus(rng, 1024);
  const BigInt q = RandomModulus(rng, 1024);
  // dq far shorter than dp: q's exponentiation reads leading zero
  // windows until its own top bit.
  EXPECT_EQ(CheckPair(p, q, RandomBits(rng, 1024), RandomBits(rng, 700), rng),
            8u);
  EXPECT_EQ(CheckPair(p, q, RandomBits(rng, 600), RandomBits(rng, 1023), rng),
            8u);
  // One exponent on the ladder's length, the other windowed; then both
  // short; then one of them zero.
  EXPECT_EQ(CheckPair(p, q, BigInt(65537), RandomBits(rng, 1024), rng), 8u);
  EXPECT_EQ(CheckPair(p, q, BigInt(65537), BigInt(3), rng), 8u);
  EXPECT_EQ(CheckPair(p, q, BigInt(0), RandomBits(rng, 1000), rng), 8u);
}

TEST_F(IfmaCrtPairTest, SameDigitCountDifferentLimbWidthsRunAsPair) {
  std::mt19937_64 rng(7654321u);
  // 1030 bits is 17 limbs, 1000 bits is 16; both are 20 digits.
  ASSERT_EQ(ifma::DigitsFor(1030), ifma::DigitsFor(1000));
  EXPECT_EQ(CheckPair(RandomModulus(rng, 1030), RandomModulus(rng, 1000),
                      RandomBits(rng, 1030), RandomBits(rng, 990), rng),
            8u);
}

TEST_F(IfmaCrtPairTest, DifferentDigitCountsFallBack) {
  std::mt19937_64 rng(31337u);
  // 1024 bits is 20 digits, 1040 bits is 21: no shared loop, so the pair
  // runs as two single exponentiations with the same results.
  ASSERT_NE(ifma::DigitsFor(1024), ifma::DigitsFor(1040));
  EXPECT_EQ(CheckPair(RandomModulus(rng, 1024), RandomModulus(rng, 1040),
                      RandomBits(rng, 1024), RandomBits(rng, 1040), rng),
            0u);
}

// -- the 8-lane kernel ---------------------------------------------------------

// Almost-Montgomery products of 8 operand pairs through the 8-lane
// multiply, and squares through the 8-lane square, against the
// single-set kernel Amm<regs, 1>, lane by lane, in the digit domain.
// Each adds to a * b the unique M < R' with a * b + M * N = 0 mod R', so
// their outputs are the same normalized digits, not just the same
// residues.
class IfmaMb8Test : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!ifma::CpuSupported()) {
      GTEST_SKIP() << "CPU lacks AVX-512 IFMA: no 8-lane kernel here";
    }
  }

  // Digits of \p v (below 2N), StrideFor(nd) of them.
  static std::vector<Limb> Digits(const BigInt& v, std::size_t nd) {
    const std::vector<Limb> packed = Pack(v);
    std::vector<Limb> d(ifma::StrideFor(nd));
    ifma::ToDigits(d.data(), d.size(), packed.data(), packed.size());
    return d;
  }

  // Checks one batch of 8 (a, b) pairs under modulus \p n through the
  // 8-lane multiply and, for the squares a * a, the 8-lane square.
  static void CheckLanes(const BigInt& n, const std::vector<BigInt>& a,
                         const std::vector<BigInt>& b) {
    CheckProducts(n, a, b, /*square=*/false);
    CheckProducts(n, a, a, /*square=*/true);
  }

  static void CheckProducts(const BigInt& n, const std::vector<BigInt>& a,
                            const std::vector<BigInt>& b, bool square) {
    ASSERT_EQ(a.size(), ifma::kLanes);
    ASSERT_EQ(b.size(), ifma::kLanes);
    const std::size_t nd = ifma::DigitsFor(n.BitLength());
    const ifma::AmmFn single = ifma::SelectAmm(nd, 1);
    const ifma::AmmMb8Fn mb8 = ifma::SelectAmmMb8(nd);
    const ifma::AmsMb8Fn sqr8 = ifma::SelectAmsMb8(nd);
    ASSERT_NE(single, nullptr);
    ASSERT_NE(mb8, nullptr) << nd << " digits";
    ASSERT_NE(sqr8, nullptr) << nd << " digits";
    const std::vector<Limb> n52 = Digits(n, nd);
    Limb inv = 1;  // -N^-1 mod 2^52 by Newton iteration
    const Limb n0 = Pack(n)[0];
    for (int i = 0; i < 6; ++i) inv *= 2u - n0 * inv;
    const Limb k0 = (~inv + 1u) & ifma::kDigitMask;

    std::vector<Limb> a_mb(nd * ifma::kLanes), b_mb(nd * ifma::kLanes),
        out_mb(nd * ifma::kLanes);
    std::vector<std::vector<Limb>> want(ifma::kLanes);
    for (std::size_t l = 0; l < ifma::kLanes; ++l) {
      const std::vector<Limb> da = Digits(a[l], nd);
      const std::vector<Limb> db = Digits(b[l], nd);
      for (std::size_t j = 0; j < nd; ++j) {
        a_mb[j * ifma::kLanes + l] = da[j];
        b_mb[j * ifma::kLanes + l] = db[j];
      }
      want[l].resize(da.size());
      const ifma::AmmOperands set{want[l].data(), da.data(), db.data(),
                                  n52.data(), k0};
      single(&set, nd);
    }
    if (square) {
      sqr8(out_mb.data(), a_mb.data(), n52.data(), k0);
    } else {
      mb8(out_mb.data(), a_mb.data(), b_mb.data(), n52.data(), k0);
    }
    for (std::size_t l = 0; l < ifma::kLanes; ++l) {
      for (std::size_t j = 0; j < nd; ++j) {
        ASSERT_EQ(out_mb[j * ifma::kLanes + l], want[l][j])
            << (square ? "square, " : "multiply, ") << nd
            << " digits, N=" << n.ToHex() << ", lane " << l
            << ", digit " << j << ", a=" << a[l].ToHex()
            << ", b=" << b[l].ToHex();
      }
    }
  }
};

TEST_P(IfmaMb8Test, MatchesSingleSetKernel) {
  const std::size_t nd = GetParam();
  std::mt19937_64 rng(nd * 7919u + 11u);
  // The widest and the narrowest modulus with nd digits (at least 2 bits).
  const std::size_t widest = ifma::kDigitBits * nd - 2;
  const std::size_t narrowest = nd == 1 ? 2 : ifma::kDigitBits * (nd - 1) - 1;
  ASSERT_EQ(ifma::DigitsFor(widest), nd);
  ASSERT_EQ(ifma::DigitsFor(narrowest), nd);
  for (const std::size_t bits : {widest, narrowest}) {
    for (const BigInt& n :
         {RandomModulus(rng, bits),
          bits >= 64 ? AllOnesTopModulus(rng, bits) : RandomModulus(rng, bits)}) {
      const BigInt two_n = n + n;
      auto below_2n = [&] {
        return RandomBits(rng, bits + 1).Mod(two_n);
      };
      // Edge operands, all in one batch: 0, 1, N - 1, N, N + 1, 2N - 1,
      // and values in [N, 2N), paired with each other and with random
      // values so every lane holds a different pair.
      const std::vector<BigInt> edges = {
          BigInt(0),        BigInt(1),         n - BigInt(1), n,
          n + BigInt(1),    two_n - BigInt(1), n + RandomBits(rng, bits).Mod(n),
          n - BigInt(1)};
      std::vector<BigInt> rev(edges.rbegin(), edges.rend());
      CheckLanes(n, edges, rev);
      CheckLanes(n, edges, edges);
      std::vector<BigInt> random_b;
      for (std::size_t l = 0; l < ifma::kLanes; ++l) {
        random_b.push_back(below_2n());
      }
      CheckLanes(n, edges, random_b);
      for (int round = 0; round < 50; ++round) {
        std::vector<BigInt> a, b;
        for (std::size_t l = 0; l < ifma::kLanes; ++l) {
          a.push_back(below_2n());
          b.push_back(below_2n());
        }
        CheckLanes(n, a, b);
      }
    }
  }
}

TEST_P(IfmaMb8Test, NoKernelPastTheDigitLimit) {
  EXPECT_EQ(ifma::SelectAmmMb8(ifma::kMb8MaxDigits + GetParam()), nullptr);
  EXPECT_EQ(ifma::SelectAmmMb8(0), nullptr);
  EXPECT_EQ(ifma::SelectAmsMb8(ifma::kMb8MaxDigits + GetParam()), nullptr);
  EXPECT_EQ(ifma::SelectAmsMb8(0), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDigitCount, IfmaMb8Test,
    ::testing::Range<std::size_t>(1, ifma::kMb8MaxDigits + 1));

// PowModMb8 against PowModLimbs lane by lane: shared exponents of every
// loop shape (zero, the binary ladder, 4- and 5-bit windows), partial
// lane counts, and the edge bases 0, 1 and N - 1.
TEST(IfmaMb8PowMod, MatchesPowModLimbsPerLane) {
  if (!ifma::CpuSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA: no 8-lane kernel here";
  }
  std::mt19937_64 rng(424242u);
  for (std::size_t bits : {256u, 512u, 1000u, 1024u, 1038u}) {
    const Montgomery mont(RandomModulus(rng, bits));
    ASSERT_TRUE(mont.HasMb8()) << bits;
    const BigInt& n = mont.modulus();
    const std::size_t w = mont.width();
    Scratch scratch;
    for (const BigInt& exp :
         {BigInt(0), BigInt(1), BigInt(65537), RandomBits(rng, 300),
          RandomBits(rng, bits)}) {
      for (std::size_t lanes : {1u, 3u, 5u, 8u}) {
        std::vector<BigInt> bases = {BigInt(0), BigInt(1), n - BigInt(1)};
        while (bases.size() < lanes) bases.push_back(RandomBits(rng, bits).Mod(n));
        bases.resize(lanes);
        std::vector<Limb> in(lanes * w), out(lanes * w);
        for (std::size_t l = 0; l < lanes; ++l) mont.Load(in.data() + l * w, bases[l]);
        const std::vector<Limb> e = Pack(exp);
        mont.PowModMb8(out.data(), in.data(), lanes,
                       LimbSpan{e.data(), e.size()}, &scratch);
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(mont.Unload(out.data() + l * w).ToHex(),
                    ViaPowModLimbs(mont, bases[l], exp, &scratch).ToHex())
              << bits << "-bit, " << lanes << " lanes, lane " << l
              << ", exp=" << exp.ToHex();
        }
      }
    }
  }
  // A warm 8-lane pass allocates nothing: its 40 KiB table at 1024 bits
  // comes from the same scratch frame every time.
  {
    const Montgomery mont(RandomModulus(rng, 1024));
    const std::size_t w = mont.width();
    std::vector<Limb> in(8 * w), out(8 * w);
    for (std::size_t l = 0; l < 8; ++l) {
      mont.Load(in.data() + l * w, RandomBits(rng, 1024).Mod(mont.modulus()));
    }
    const std::vector<Limb> e = Pack(RandomBits(rng, 1024));
    Scratch scratch;
    mont.PowModMb8(out.data(), in.data(), 8, LimbSpan{e.data(), e.size()},
                   &scratch);
    const std::uint64_t arena = scratch.heap_allocations();
    for (int i = 0; i < 3; ++i) {
      mont.PowModMb8(out.data(), in.data(), 8, LimbSpan{e.data(), e.size()},
                     &scratch);
    }
    EXPECT_EQ(scratch.heap_allocations(), arena)
        << "warm PowModMb8 allocated scratch on the heap";
  }
  // Past the 8-lane kernel's digit limit the context has none.
  EXPECT_FALSE(Montgomery(RandomModulus(rng, 1040)).HasMb8());
}

}  // namespace
}  // namespace bignum
}  // namespace p2drm
