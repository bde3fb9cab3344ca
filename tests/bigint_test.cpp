// Unit and property tests for the BigInt arithmetic substrate.

#include "bignum/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bignum/limbs.h"
#include "bignum/montgomery.h"

namespace p2drm {
namespace bignum {
namespace {

TEST(BigIntBasics, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_EQ(z.ToDec(), "0");
  EXPECT_EQ(z.BitLength(), 0u);
}

TEST(BigIntBasics, Int64Construction) {
  EXPECT_EQ(BigInt(0).ToDec(), "0");
  EXPECT_EQ(BigInt(1).ToDec(), "1");
  EXPECT_EQ(BigInt(-1).ToDec(), "-1");
  EXPECT_EQ(BigInt(123456789).ToDec(), "123456789");
  EXPECT_EQ(BigInt(-9223372036854775807LL).ToDec(), "-9223372036854775807");
  EXPECT_EQ(BigInt::FromUint64(0xffffffffffffffffull).ToHex(),
            "ffffffffffffffff");
}

TEST(BigIntBasics, HexRoundTrip) {
  const char* cases[] = {"0", "1", "ff", "100", "deadbeef",
                         "123456789abcdef0123456789abcdef",
                         "ffffffffffffffffffffffffffffffff"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::FromHex(c).ToHex(), c) << c;
  }
  EXPECT_EQ(BigInt::FromHex("-ff").ToHex(), "-ff");
  EXPECT_EQ(BigInt::FromHex("0xABC").ToHex(), "abc");
}

TEST(BigIntBasics, DecRoundTrip) {
  const char* cases[] = {"0", "7", "4294967296", "18446744073709551616",
                         "340282366920938463463374607431768211455",
                         "99999999999999999999999999999999999999999"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::FromDec(c).ToDec(), c) << c;
  }
  EXPECT_EQ(BigInt::FromDec("-12345678901234567890").ToDec(),
            "-12345678901234567890");
}

TEST(BigIntBasics, FromHexRejectsGarbage) {
  EXPECT_THROW(BigInt::FromHex("xyz"), std::invalid_argument);
  EXPECT_THROW(BigInt::FromDec("12a"), std::invalid_argument);
}

TEST(BigIntBasics, BytesRoundTrip) {
  std::vector<std::uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigInt v = BigInt::FromBytes(bytes);
  EXPECT_EQ(v.ToHex(), "102030405");
  EXPECT_EQ(v.ToBytes(), bytes);
}

TEST(BigIntBasics, BytesLeadingZerosStripped) {
  std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x7f};
  BigInt v = BigInt::FromBytes(bytes);
  EXPECT_EQ(v.ToBytes(), std::vector<std::uint8_t>({0x7f}));
}

TEST(BigIntBasics, ToBytesPadded) {
  BigInt v = BigInt::FromHex("abcd");
  auto padded = v.ToBytesPadded(4);
  EXPECT_EQ(padded, std::vector<std::uint8_t>({0x00, 0x00, 0xab, 0xcd}));
  EXPECT_THROW(v.ToBytesPadded(1), std::length_error);
}

TEST(BigIntBasics, BitLength) {
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(2).BitLength(), 2u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::FromHex("1" + std::string(64, '0')).BitLength(), 257u);
}

TEST(BigIntArith, AdditionSigns) {
  EXPECT_EQ((BigInt(5) + BigInt(7)).ToDec(), "12");
  EXPECT_EQ((BigInt(-5) + BigInt(-7)).ToDec(), "-12");
  EXPECT_EQ((BigInt(5) + BigInt(-7)).ToDec(), "-2");
  EXPECT_EQ((BigInt(-5) + BigInt(7)).ToDec(), "2");
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToDec(), "0");
}

TEST(BigIntArith, SubtractionSigns) {
  EXPECT_EQ((BigInt(5) - BigInt(7)).ToDec(), "-2");
  EXPECT_EQ((BigInt(-5) - BigInt(-7)).ToDec(), "2");
  EXPECT_EQ((BigInt(5) - BigInt(5)).ToDec(), "0");
}

TEST(BigIntArith, CarryPropagation) {
  BigInt a = BigInt::FromHex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).ToHex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + BigInt(1) - BigInt(1)).ToHex(), a.ToHex());
}

TEST(BigIntArith, MultiplySmall) {
  EXPECT_EQ((BigInt(12345) * BigInt(6789)).ToDec(), "83810205");
  EXPECT_EQ((BigInt(-12345) * BigInt(6789)).ToDec(), "-83810205");
  EXPECT_EQ((BigInt(-12345) * BigInt(-6789)).ToDec(), "83810205");
  EXPECT_EQ((BigInt(12345) * BigInt(0)).ToDec(), "0");
}

TEST(BigIntArith, MultiplyLargeKnown) {
  // 2^128 - 1 squared = 2^256 - 2^129 + 1
  BigInt a = BigInt::FromHex("ffffffffffffffffffffffffffffffff");
  BigInt sq = a * a;
  BigInt expected = (BigInt(1) << 256) - (BigInt(1) << 129) + BigInt(1);
  EXPECT_EQ(sq.ToHex(), expected.ToHex());
}

TEST(BigIntArith, DivModSmall) {
  BigInt q, r;
  BigInt::DivMod(BigInt(100), BigInt(7), &q, &r);
  EXPECT_EQ(q.ToDec(), "14");
  EXPECT_EQ(r.ToDec(), "2");
}

TEST(BigIntArith, DivModCSemantics) {
  // Truncated division; remainder carries dividend sign.
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToDec(), "-3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToDec(), "-1");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToDec(), "-3");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToDec(), "1");
}

TEST(BigIntArith, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(0), std::domain_error);
}

TEST(BigIntArith, ModNonNegative) {
  EXPECT_EQ(BigInt(-7).Mod(BigInt(3)).ToDec(), "2");
  EXPECT_EQ(BigInt(7).Mod(BigInt(3)).ToDec(), "1");
  EXPECT_EQ(BigInt(-9).Mod(BigInt(3)).ToDec(), "0");
}

TEST(BigIntArith, KnuthDHardCase) {
  // Forces the qhat correction path: divisor top limb just below 2^32.
  BigInt num = BigInt::FromHex("7fffffff800000010000000000000000");
  BigInt den = BigInt::FromHex("800000008000000200000005");
  BigInt q, r;
  BigInt::DivMod(num, den, &q, &r);
  EXPECT_EQ((q * den + r).ToHex(), num.ToHex());
  EXPECT_LT(r.CompareMagnitude(den), 0);
}

TEST(BigIntArith, Shifts) {
  BigInt v = BigInt::FromHex("123456789abcdef");
  EXPECT_EQ((v << 4).ToHex(), "123456789abcdef0");
  EXPECT_EQ((v >> 4).ToHex(), "123456789abcde");
  EXPECT_EQ((v << 64 >> 64).ToHex(), v.ToHex());
  EXPECT_EQ((v >> 200).ToHex(), "0");
  EXPECT_EQ((BigInt(1) << 100).BitLength(), 101u);
}

TEST(BigIntArith, SqrtExactAndFloor) {
  EXPECT_EQ(BigInt(0).Sqrt().ToDec(), "0");
  EXPECT_EQ(BigInt(1).Sqrt().ToDec(), "1");
  EXPECT_EQ(BigInt(144).Sqrt().ToDec(), "12");
  EXPECT_EQ(BigInt(145).Sqrt().ToDec(), "12");
  BigInt big = BigInt::FromDec("123456789123456789");
  BigInt s = big.Sqrt();
  EXPECT_LE((s * s).Compare(big), 0);
  BigInt s1 = s + BigInt(1);
  EXPECT_GT((s1 * s1).Compare(big), 0);
}

TEST(BigIntModular, PowModKnown) {
  // 3^200 mod 50 = 1 (3^20 ≡ 1 mod 50, 200 = 20*10)
  EXPECT_EQ(BigInt(3).PowMod(BigInt(200), BigInt(50)).ToDec(), "1");
  // Fermat: a^(p-1) ≡ 1 mod p
  BigInt p = BigInt::FromDec("1000000007");
  EXPECT_EQ(BigInt(123456).PowMod(p - BigInt(1), p).ToDec(), "1");
  // mod 1 == 0
  EXPECT_EQ(BigInt(5).PowMod(BigInt(3), BigInt(1)).ToDec(), "0");
  // exponent 0
  EXPECT_EQ(BigInt(5).PowMod(BigInt(0), BigInt(7)).ToDec(), "1");
}

TEST(BigIntModular, PowModEvenModulus) {
  // Even modulus exercises the non-Montgomery path.
  EXPECT_EQ(BigInt(3).PowMod(BigInt(5), BigInt(100)).ToDec(), "43");
  EXPECT_EQ(BigInt(7).PowMod(BigInt(4), BigInt(48)).ToDec(), "1");
}

TEST(BigIntModular, InvModKnown) {
  BigInt inv = BigInt(3).InvMod(BigInt(7));
  EXPECT_EQ(inv.ToDec(), "5");  // 3*5=15≡1 mod 7
  EXPECT_THROW(BigInt(2).InvMod(BigInt(4)), std::domain_error);
}

TEST(BigIntModular, GcdKnown) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(18)).ToDec(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToDec(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(-48), BigInt(18)).ToDec(), "6");
}

TEST(BigIntModular, ExtendedGcdBezout) {
  BigInt x, y;
  BigInt g = BigInt::ExtendedGcd(BigInt(240), BigInt(46), &x, &y);
  EXPECT_EQ(g.ToDec(), "2");
  EXPECT_EQ((BigInt(240) * x + BigInt(46) * y).ToDec(), "2");
}

// ---------------------------------------------------------------------------
// Randomized property tests against 64-bit reference arithmetic.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BigIntPropertyTest, MatchesUint64Arithmetic) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::uint64_t a = rng() >> (rng() % 33);
    std::uint64_t b = rng() >> (rng() % 33);
    BigInt ba = BigInt::FromUint64(a);
    BigInt bb = BigInt::FromUint64(b);
    if (a <= ~b) {  // a + b does not wrap
      EXPECT_EQ((ba + bb).ToHex(), BigInt::FromUint64(a + b).ToHex());
    }
    if (a >= b) {
      EXPECT_EQ((ba - bb).ToHex(), BigInt::FromUint64(a - b).ToHex());
    }
    // 32x32 multiply fits in 64 bits.
    std::uint64_t a32 = a & 0xffffffffu, b32 = b & 0xffffffffu;
    EXPECT_EQ((BigInt::FromUint64(a32) * BigInt::FromUint64(b32)).ToHex(),
              BigInt::FromUint64(a32 * b32).ToHex());
    if (b != 0) {
      EXPECT_EQ((ba / bb).ToHex(), BigInt::FromUint64(a / b).ToHex());
      EXPECT_EQ((ba % bb).ToHex(), BigInt::FromUint64(a % b).ToHex());
    }
  }
}

TEST_P(BigIntPropertyTest, DivModInvariantWideOperands) {
  std::mt19937_64 rng(GetParam() * 7919u + 13u);
  for (int i = 0; i < 100; ++i) {
    // Random widths from 1 to 12 limbs.
    auto random_bigint = [&rng](int limbs) {
      std::vector<std::uint32_t> v(limbs);
      for (auto& l : v) l = static_cast<std::uint32_t>(rng());
      return BigInt::FromLimbs(std::move(v), false);
    };
    BigInt num = random_bigint(1 + static_cast<int>(rng() % 12));
    BigInt den = random_bigint(1 + static_cast<int>(rng() % 8));
    if (den.IsZero()) continue;
    BigInt q, r;
    BigInt::DivMod(num, den, &q, &r);
    EXPECT_EQ((q * den + r).ToHex(), num.ToHex());
    EXPECT_LT(r.CompareMagnitude(den), 0);
  }
}

TEST_P(BigIntPropertyTest, MulCommutativeAssociativeDistributive) {
  std::mt19937_64 rng(GetParam() * 104729u + 7u);
  auto random_bigint = [&rng](int limbs) {
    std::vector<std::uint32_t> v(limbs);
    for (auto& l : v) l = static_cast<std::uint32_t>(rng());
    return BigInt::FromLimbs(std::move(v), rng() % 2 == 0);
  };
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_bigint(1 + static_cast<int>(rng() % 6));
    BigInt b = random_bigint(1 + static_cast<int>(rng() % 6));
    BigInt c = random_bigint(1 + static_cast<int>(rng() % 6));
    EXPECT_EQ((a * b).ToHex(), (b * a).ToHex());
    EXPECT_EQ(((a * b) * c).ToHex(), (a * (b * c)).ToHex());
    EXPECT_EQ((a * (b + c)).ToHex(), (a * b + a * c).ToHex());
  }
}

TEST_P(BigIntPropertyTest, KaratsubaMatchesSchoolbook) {
  // Operands above the Karatsuba threshold (32 limbs) checked against the
  // identity (a*b)/b == a.
  std::mt19937_64 rng(GetParam() * 31337u + 3u);
  auto random_bigint = [&rng](int limbs) {
    std::vector<std::uint32_t> v(limbs);
    for (auto& l : v) l = static_cast<std::uint32_t>(rng());
    if (!v.empty() && v.back() == 0) v.back() = 1;
    return BigInt::FromLimbs(std::move(v), false);
  };
  for (int i = 0; i < 10; ++i) {
    BigInt a = random_bigint(40 + static_cast<int>(rng() % 40));
    BigInt b = random_bigint(40 + static_cast<int>(rng() % 40));
    BigInt prod = a * b;
    EXPECT_EQ((prod / b).ToHex(), a.ToHex());
    EXPECT_EQ((prod % b).ToHex(), "0");
  }
}

TEST_P(BigIntPropertyTest, ShiftMultiplyEquivalence) {
  std::mt19937_64 rng(GetParam() * 65537u + 11u);
  for (int i = 0; i < 50; ++i) {
    std::uint64_t v = rng();
    std::size_t s = rng() % 100;
    BigInt b = BigInt::FromUint64(v);
    EXPECT_EQ((b << s).ToHex(), (b * (BigInt(1) << s)).ToHex());
    EXPECT_EQ((b >> s).ToHex(), (b / (BigInt(1) << s)).ToHex());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// ---------------------------------------------------------------------------
// Montgomery context.
// ---------------------------------------------------------------------------

TEST(Montgomery, RejectsBadModuli) {
  EXPECT_THROW(Montgomery(BigInt(0)), std::domain_error);
  EXPECT_THROW(Montgomery(BigInt(1)), std::domain_error);
  EXPECT_THROW(Montgomery(BigInt(8)), std::domain_error);
  EXPECT_THROW(Montgomery(BigInt(-7)), std::domain_error);
}

TEST(Montgomery, RoundTripForm) {
  BigInt m = BigInt::FromDec("1000000007");
  Montgomery mont(m);
  for (std::int64_t v : {0LL, 1LL, 2LL, 999999999LL, 123456789LL}) {
    BigInt x(v);
    EXPECT_EQ(mont.FromMont(mont.ToMont(x)).ToDec(), x.ToDec());
  }
}

TEST(Montgomery, MulMatchesMulMod) {
  BigInt m = BigInt::FromHex("f000000000000000000000000000000d");  // odd
  Montgomery mont(m);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::FromUint64(rng()).Mod(m);
    BigInt b = BigInt::FromUint64(rng()) * BigInt::FromUint64(rng());
    b = b.Mod(m);
    BigInt expect = a.MulMod(b, m);
    BigInt got = mont.FromMont(
        mont.MulMont(mont.ToMont(a), mont.ToMont(b)));
    EXPECT_EQ(got.ToHex(), expect.ToHex());
  }
}

TEST(Montgomery, PowModMatchesNaive) {
  BigInt m = BigInt::FromDec("999999999989");  // prime, odd
  Montgomery mont(m);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20; ++i) {
    BigInt base = BigInt::FromUint64(rng()).Mod(m);
    std::uint64_t exp = rng() % 1000;
    BigInt naive(1);
    for (std::uint64_t k = 0; k < exp; ++k) naive = naive.MulMod(base, m);
    EXPECT_EQ(mont.PowMod(base, BigInt::FromUint64(exp)).ToHex(),
              naive.ToHex());
  }
}

TEST(Montgomery, LargeModulusFermat) {
  // 2^127 - 1 is a Mersenne prime.
  BigInt p = (BigInt(1) << 127) - BigInt(1);
  Montgomery mont(p);
  BigInt a = BigInt::FromDec("31415926535897932384626433");
  EXPECT_EQ(mont.PowMod(a, p - BigInt(1)).ToDec(), "1");
}

// ---------------------------------------------------------------------------
// Montgomery squaring kernel vs the general multiply. The square must be
// bit-identical to MulMont(a, a) — PowMod's every squaring now runs on
// it — at the three fixed widths and on the generic path (1536 bits is
// 24 limbs, which has no fixed-width kernel).
// ---------------------------------------------------------------------------

BigInt RandomBits(std::mt19937_64& rng, std::size_t bits) {
  BigInt v;
  for (std::size_t i = 0; i < bits; i += 64) {
    v = (v << 64) + BigInt::FromUint64(rng());
  }
  return v >> (v.BitLength() > bits ? v.BitLength() - bits : 0);
}

// Odd modulus of exactly \p bits bits.
BigInt RandomModulus(std::mt19937_64& rng, std::size_t bits) {
  return (RandomBits(rng, bits - 2) << 1) + BigInt(1) +
         (BigInt(1) << (bits - 1));
}

BigInt SqrViaKernel(const Montgomery& mont, const BigInt& a) {
  Scratch scratch;
  std::vector<Limb> pa(mont.width());
  mont.Load(pa.data(), a);
  mont.MontSqrLimbs(pa.data(), pa.data(), &scratch);
  return mont.Unload(pa.data());
}

class MontSqrTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontSqrTest, EqualsMulMontOnRandomAndEdgeValues) {
  const std::size_t bits = GetParam();
  std::mt19937_64 rng(bits * 7919u + 1u);
  // A random full-width modulus, and one whose top limb is all ones
  // (R - small odd). Under the latter, N - 1 - small has an all-ones top
  // limb too: the operands where the square's carries run longest.
  const BigInt r = BigInt(1) << bits;
  const BigInt all_ones_top =
      r - (BigInt::FromUint64(rng() >> 1) << 1) - BigInt(1);
  for (const BigInt& m : {RandomModulus(rng, bits), all_ones_top}) {
    Montgomery mont(m);
    ASSERT_EQ(mont.width() * 64, bits);
    std::vector<BigInt> values = {BigInt(0), BigInt(1), m - BigInt(1),
                                  r.Mod(m)};
    for (int i = 0; i < 20; ++i) {
      values.push_back(m - BigInt::FromUint64(rng() >> 1) - BigInt(1));
    }
    for (int i = 0; i < 200; ++i) {
      values.push_back(RandomBits(rng, bits).Mod(m));
    }
    for (const BigInt& a : values) {
      EXPECT_EQ(SqrViaKernel(mont, a).ToHex(), mont.MulMont(a, a).ToHex())
          << "a=" << a.ToHex();
    }
  }
}

TEST_P(MontSqrTest, TenThousandChainedSquaringsTrackTheMultiply) {
  const std::size_t bits = GetParam();
  std::mt19937_64 rng(bits + 17u);
  Montgomery mont(RandomModulus(rng, bits));
  Scratch scratch;
  const std::size_t w = mont.width();
  std::vector<Limb> via_sqr(w), via_mul(w);
  mont.Load(via_sqr.data(), RandomBits(rng, bits).Mod(mont.modulus()));
  via_mul = via_sqr;
  for (int i = 0; i < 10000; ++i) {
    mont.MontSqrLimbs(via_sqr.data(), via_sqr.data(), &scratch);
    mont.MontMulLimbs(via_mul.data(), via_mul.data(), via_mul.data(),
                      &scratch);
    ASSERT_EQ(via_sqr, via_mul) << "diverged at squaring " << i;
  }
}

TEST_P(MontSqrTest, WarmPowModAllocatesNothing) {
  const std::size_t bits = GetParam();
  std::mt19937_64 rng(bits + 29u);
  Montgomery mont(RandomModulus(rng, bits));
  const BigInt base = RandomBits(rng, bits).Mod(mont.modulus());
  const BigInt exp = RandomBits(rng, bits);
  const BigInt first = mont.PowMod(base, exp);  // warms this thread's arena
  const std::uint64_t warm = KernelStats().scratch_heap_allocs;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(mont.PowMod(base, exp).ToHex(), first.ToHex());
  }
  EXPECT_EQ(KernelStats().scratch_heap_allocs, warm)
      << "warm PowMod allocated scratch on the heap";
}

INSTANTIATE_TEST_SUITE_P(Widths, MontSqrTest,
                         ::testing::Values(512u, 1024u, 1536u, 2048u));

}  // namespace
}  // namespace bignum
}  // namespace p2drm
