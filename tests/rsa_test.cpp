// RSA key generation, FDH signatures and hybrid encryption.

#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <thread>

#include "bignum/ifma.h"
#include "bignum/limbs.h"
#include "crypto/drbg.h"

namespace p2drm {
namespace crypto {
namespace {

using bignum::BigInt;

// Key generation is expensive; share fixtures across tests in this file.
const RsaPrivateKey& TestKey512() {
  static const RsaPrivateKey key = [] {
    HmacDrbg rng("rsa-test-key-512");
    return GenerateRsaKey(512, &rng);
  }();
  return key;
}

const RsaPrivateKey& TestKey1024() {
  static const RsaPrivateKey key = [] {
    HmacDrbg rng("rsa-test-key-1024");
    return GenerateRsaKey(1024, &rng);
  }();
  return key;
}

// Fixed-seed RSA-2048: its 1024-bit CRT halves share a digit count, so
// on an IFMA CPU every private operation takes the PowModCrtPair path.
const RsaPrivateKey& TestKey2048() {
  static const RsaPrivateKey key = [] {
    HmacDrbg rng("rsa-test-key-2048");
    return GenerateRsaKey(2048, &rng);
  }();
  return key;
}

std::vector<std::uint8_t> Msg(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(RsaKeyGen, ParametersConsistent) {
  const RsaPrivateKey& key = TestKey512();
  EXPECT_EQ(key.n.BitLength(), 512u);
  EXPECT_EQ((key.p * key.q).ToHex(), key.n.ToHex());
  BigInt phi = (key.p - BigInt(1)) * (key.q - BigInt(1));
  EXPECT_EQ(key.e.MulMod(key.d, phi).ToDec(), "1");
  EXPECT_EQ(key.dp.ToHex(), (key.d % (key.p - BigInt(1))).ToHex());
  EXPECT_EQ(key.dq.ToHex(), (key.d % (key.q - BigInt(1))).ToHex());
  EXPECT_EQ(key.qinv.MulMod(key.q, key.p).ToDec(), "1");
}

TEST(RsaKeyGen, RejectsBadSizes) {
  HmacDrbg rng("bad");
  EXPECT_THROW(GenerateRsaKey(100, &rng), std::invalid_argument);
  EXPECT_THROW(GenerateRsaKey(513, &rng), std::invalid_argument);
}

TEST(RsaKeyGen, DeterministicForSeed) {
  HmacDrbg r1("det"), r2("det");
  EXPECT_EQ(GenerateRsaKey(512, &r1).n.ToHex(),
            GenerateRsaKey(512, &r2).n.ToHex());
}

TEST(RsaRawOps, PublicPrivateRoundTrip) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("roundtrip");
  for (int i = 0; i < 10; ++i) {
    BigInt m = rng.Below(key.n);
    BigInt c = RsaPublicOp(key.PublicKey(), m);
    EXPECT_EQ(RsaPrivateOp(key, c).ToHex(), m.ToHex());
    // And the other direction (sign then verify op).
    BigInt s = RsaPrivateOp(key, m);
    EXPECT_EQ(RsaPublicOp(key.PublicKey(), s).ToHex(), m.ToHex());
  }
}

TEST(RsaRawOps, RangeChecks) {
  const RsaPrivateKey& key = TestKey512();
  EXPECT_THROW(RsaPublicOp(key.PublicKey(), key.n), std::domain_error);
  EXPECT_THROW(RsaPrivateOp(key, key.n + BigInt(1)), std::domain_error);
}

TEST(RsaSerialization, PublicKeyRoundTrip) {
  RsaPublicKey pub = TestKey512().PublicKey();
  auto bytes = pub.Serialize();
  RsaPublicKey back = RsaPublicKey::Deserialize(bytes);
  EXPECT_TRUE(pub == back);
  EXPECT_EQ(DigestToHex(pub.Fingerprint()), DigestToHex(back.Fingerprint()));
}

TEST(RsaSerialization, DeserializeRejectsTruncated) {
  RsaPublicKey pub = TestKey512().PublicKey();
  auto bytes = pub.Serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(RsaPublicKey::Deserialize(bytes), std::out_of_range);
}

TEST(Mgf1, KnownLengthAndDeterminism) {
  std::vector<std::uint8_t> seed = {1, 2, 3};
  auto a = Mgf1Sha256(seed, 100);
  auto b = Mgf1Sha256(seed, 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  auto c = Mgf1Sha256(seed, 33);
  EXPECT_TRUE(std::equal(c.begin(), c.end(), a.begin()));
}

TEST(Fdh, RepresentativeBelowModulus) {
  RsaPublicKey pub = TestKey512().PublicKey();
  for (int i = 0; i < 20; ++i) {
    BigInt h = FdhHash(Msg("message " + std::to_string(i)), pub);
    EXPECT_LT(h.Compare(pub.n), 0);
    EXPECT_FALSE(h.IsNegative());
  }
}

TEST(FdhSignature, SignVerify) {
  const RsaPrivateKey& key = TestKey512();
  auto msg = Msg("license: content=42 rights=play*3");
  auto sig = RsaSignFdh(key, msg);
  EXPECT_EQ(sig.size(), key.PublicKey().ModulusBytes());
  EXPECT_TRUE(RsaVerifyFdh(key.PublicKey(), msg, sig));
}

TEST(FdhSignature, RejectsTamperedMessage) {
  const RsaPrivateKey& key = TestKey512();
  auto sig = RsaSignFdh(key, Msg("original"));
  EXPECT_FALSE(RsaVerifyFdh(key.PublicKey(), Msg("tampered"), sig));
}

TEST(FdhSignature, RejectsTamperedSignature) {
  const RsaPrivateKey& key = TestKey512();
  auto msg = Msg("original");
  auto sig = RsaSignFdh(key, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(RsaVerifyFdh(key.PublicKey(), msg, sig));
}

TEST(FdhSignature, RejectsWrongKey) {
  const RsaPrivateKey& key = TestKey512();
  const RsaPrivateKey& other = TestKey1024();
  auto msg = Msg("original");
  auto sig = RsaSignFdh(key, msg);
  EXPECT_FALSE(RsaVerifyFdh(other.PublicKey(), msg, sig));
}

TEST(FdhSignature, RejectsBadLength) {
  const RsaPrivateKey& key = TestKey512();
  auto msg = Msg("original");
  auto sig = RsaSignFdh(key, msg);
  sig.pop_back();
  EXPECT_FALSE(RsaVerifyFdh(key.PublicKey(), msg, sig));
}

TEST(FdhSignature, DeterministicSignature) {
  const RsaPrivateKey& key = TestKey512();
  auto msg = Msg("deterministic");
  EXPECT_EQ(RsaSignFdh(key, msg), RsaSignFdh(key, msg));
}

TEST(FdhSignature, ConcurrentSigningMatchesSerial) {
  // Threads share one key (and its CRT Montgomery contexts); each signs
  // its own message stream. The thread-local scratch arenas behind the
  // kernels must keep every result identical to the serial run. The
  // 2048-bit key runs the CRT-pair path on IFMA CPUs.
  for (const RsaPrivateKey* key : {&TestKey1024(), &TestKey2048()}) {
    constexpr int kThreads = 4;
    constexpr int kMsgsPerThread = 8;
    const std::size_t bits = key->n.BitLength();

    std::vector<std::vector<std::vector<std::uint8_t>>> serial(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kMsgsPerThread; ++i) {
        serial[t].push_back(
            RsaSignFdh(*key, Msg("concurrent-" + std::to_string(t) + "-" +
                                 std::to_string(i))));
      }
    }
    EXPECT_TRUE(RsaVerifyFdh(key->PublicKey(), Msg("concurrent-0-0"),
                             serial[0][0]))
        << bits;

    std::vector<std::vector<std::vector<std::uint8_t>>> threaded(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([key, &threaded, t] {
        for (int i = 0; i < kMsgsPerThread; ++i) {
          threaded[t].push_back(
              RsaSignFdh(*key, Msg("concurrent-" + std::to_string(t) + "-" +
                                   std::to_string(i))));
        }
      });
    }
    for (std::thread& w : workers) w.join();

    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(threaded[t], serial[t]) << bits << "-bit, thread " << t;
    }
  }
}

// -- RsaSignFdhMany: the multi-buffer signing path -----------------------------

// RsaSignFdhMany against per-message RsaSignFdh for \p count messages;
// \p repeat_every > 0 makes every repeat_every-th message a copy of the
// first, so one group holds the same message in several lanes.
void ExpectManyMatchesSingles(const RsaPrivateKey& key, std::size_t count,
                              std::size_t repeat_every) {
  const std::size_t bits = key.n.BitLength();
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::size_t i = 0; i < count; ++i) {
    const bool repeat = repeat_every > 0 && i > 0 && i % repeat_every == 0;
    msgs.push_back(repeat ? msgs[0]
                          : Msg("many-" + std::to_string(bits) + "-" +
                                std::to_string(i)));
  }
  const std::vector<std::vector<std::uint8_t>> got =
      RsaSignFdhMany(key, msgs);
  ASSERT_EQ(got.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i], RsaSignFdh(key, msgs[i]))
        << bits << "-bit, " << count << " messages, index " << i;
  }
}

TEST(FdhSignatureMany, MatchesSinglesForEveryCount) {
  for (const RsaPrivateKey* key :
       {&TestKey512(), &TestKey1024(), &TestKey2048()}) {
    for (std::size_t count = 0; count <= 17; ++count) {
      ExpectManyMatchesSingles(*key, count, /*repeat_every=*/0);
    }
  }
}

TEST(FdhSignatureMany, RepeatedMessagesInOneGroup) {
  for (const RsaPrivateKey* key : {&TestKey1024(), &TestKey2048()}) {
    ExpectManyMatchesSingles(*key, 8, /*repeat_every=*/2);
    ExpectManyMatchesSingles(*key, 8, /*repeat_every=*/1);
    ExpectManyMatchesSingles(*key, 13, /*repeat_every=*/3);
  }
}

TEST(FdhSignatureMany, KeyWithoutPrecomputeSignsOneByOne) {
  RsaPrivateKey bare = TestKey1024();
  bare.crt = nullptr;
  const std::uint64_t passes = bignum::KernelStats().powmod_mb8;
  for (std::size_t count : {1u, 5u, 8u, 11u}) {
    ExpectManyMatchesSingles(bare, count, /*repeat_every=*/0);
  }
  EXPECT_EQ(bignum::KernelStats().powmod_mb8, passes)
      << "a key without cached CRT contexts took the 8-lane path";
}

TEST(FdhSignatureMany, FullGroupsRunOnTheEightLaneKernel) {
  if (!bignum::ifma::CpuSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA: every group signs one by one";
  }
  const RsaPrivateKey& key = TestKey2048();
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < 8; ++i) msgs.push_back(Msg("lanes-" + std::to_string(i)));
  const std::uint64_t before = bignum::KernelStats().powmod_mb8;
  RsaSignFdhMany(key, msgs);
  // One pass per CRT half.
  EXPECT_EQ(bignum::KernelStats().powmod_mb8 - before, 2u);
  msgs.resize(kMb8MinLanes - 1);
  RsaSignFdhMany(key, msgs);
  EXPECT_EQ(bignum::KernelStats().powmod_mb8 - before, 2u)
      << "a group below kMb8MinLanes ran on the 8-lane kernel";
}

TEST(FdhSignatureMany, ConcurrentGroupsMatchSerial) {
  // Four threads sign their own 8-message groups with one shared key at
  // once: the shared CRT contexts and per-thread scratch must keep every
  // signature identical to the serial run (run this binary under TSan).
  const RsaPrivateKey& key = TestKey2048();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<std::uint8_t>>> msgs(kThreads);
  std::vector<std::vector<std::vector<std::uint8_t>>> serial(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      msgs[t].push_back(Msg("group-" + std::to_string(t) + "-" +
                            std::to_string(i)));
      serial[t].push_back(RsaSignFdh(key, msgs[t].back()));
    }
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> threaded(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&key, &msgs, &threaded, t] {
      threaded[t] = RsaSignFdhMany(key, msgs[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(threaded[t], serial[t]) << "thread " << t;
  }
}

TEST(HybridEncryption, RoundTrip) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("hybrid");
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    std::vector<std::uint8_t> pt(len, 0x5a);
    HybridCiphertext ct = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(RsaHybridDecrypt(key, ct, &back)) << len;
    EXPECT_EQ(back, pt);
  }
}

TEST(HybridEncryption, TamperedBodyFailsMac) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("hybrid2");
  std::vector<std::uint8_t> pt(100, 0x11);
  HybridCiphertext ct = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  ct.body[50] ^= 1;
  std::vector<std::uint8_t> back;
  EXPECT_FALSE(RsaHybridDecrypt(key, ct, &back));
}

TEST(HybridEncryption, TamperedTagFails) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("hybrid3");
  std::vector<std::uint8_t> pt(100, 0x22);
  HybridCiphertext ct = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  ct.tag[0] ^= 1;
  std::vector<std::uint8_t> back;
  EXPECT_FALSE(RsaHybridDecrypt(key, ct, &back));
}

TEST(HybridEncryption, SerializationRoundTrip) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("hybrid4");
  std::vector<std::uint8_t> pt = Msg("serialize me");
  HybridCiphertext ct = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  auto bytes = ct.Serialize();
  HybridCiphertext back = HybridCiphertext::Deserialize(bytes);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(RsaHybridDecrypt(key, back, &out));
  EXPECT_EQ(out, pt);
}

TEST(HybridEncryption, CiphertextsAreRandomized) {
  const RsaPrivateKey& key = TestKey512();
  HmacDrbg rng("hybrid5");
  std::vector<std::uint8_t> pt = Msg("same plaintext");
  auto c1 = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  auto c2 = RsaHybridEncrypt(key.PublicKey(), pt, &rng);
  EXPECT_NE(c1.encapsulated, c2.encapsulated);
  EXPECT_NE(c1.body, c2.body);
}

// Parameterized sweep: sign/verify must hold across modulus sizes.
class RsaModulusSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaModulusSweep, SignVerifyAcrossSizes) {
  HmacDrbg rng("sweep-" + std::to_string(GetParam()));
  RsaPrivateKey key = GenerateRsaKey(GetParam(), &rng);
  auto msg = Msg("sweep message");
  auto sig = RsaSignFdh(key, msg);
  EXPECT_TRUE(RsaVerifyFdh(key.PublicKey(), msg, sig));
  auto bad = msg;
  bad.push_back('!');
  EXPECT_FALSE(RsaVerifyFdh(key.PublicKey(), bad, sig));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaModulusSweep,
                         ::testing::Values(256, 384, 512, 768));

}  // namespace
}  // namespace crypto
}  // namespace p2drm
