// SHA-256 against FIPS 180-4 / NIST CAVP vectors.

#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/sha256_kernels.h"

namespace p2drm {
namespace crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  Digest256 oneshot = Sha256::Hash(msg);
  // Byte-at-a-time.
  Sha256 h;
  for (char c : msg) h.Update(std::string(1, c));
  EXPECT_EQ(DigestToHex(h.Final()), DigestToHex(oneshot));
  EXPECT_EQ(DigestToHex(oneshot),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, ResetReuses) {
  Sha256 h;
  h.Update(std::string("garbage"));
  (void)h.Final();
  h.Reset();
  h.Update(std::string("abc"));
  EXPECT_EQ(DigestToHex(h.Final()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must not crash and
  // must differ pairwise.
  std::vector<std::string> hashes;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    hashes.push_back(DigestToHex(Sha256::Hash(std::string(len, 'x'))));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]);
    }
  }
}

TEST(Sha256, DigestToBytesMatches) {
  Digest256 d = Sha256::Hash(std::string("abc"));
  auto bytes = DigestToBytes(d);
  ASSERT_EQ(bytes.size(), 32u);
  EXPECT_EQ(bytes[0], 0xba);
  EXPECT_EQ(bytes[31], 0xad);
}

// -- compression kernels -----------------------------------------------------
//
// Sha256 runs one kernel per process, so the tests below drive both
// kernels directly and check them against each other.

constexpr std::uint32_t kIv[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                  0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                  0x1f83d9abu, 0x5be0cd19u};

std::vector<std::uint8_t> RandomBytes(std::mt19937_64* gen, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>((*gen)());
  return out;
}

// Reference digest: the given kernel behind the textbook byte-at-a-time
// buffer and padding (0x80, zeros until 56 mod 64, 64-bit length), so
// every padding edge is reached the slow, obvious way.
Digest256 ReferenceDigest(detail::Sha256CompressFn compress,
                          const std::vector<std::uint8_t>& msg) {
  std::uint32_t state[8];
  std::memcpy(state, kIv, sizeof(state));
  std::uint8_t block[64];
  std::size_t fill = 0;
  auto push = [&](std::uint8_t b) {
    block[fill++] = b;
    if (fill == 64) {
      compress(state, block, 1);
      fill = 0;
    }
  };
  for (std::uint8_t b : msg) push(b);
  push(0x80);
  while (fill != 56) push(0x00);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) push(static_cast<std::uint8_t>(bits >> (8 * i)));
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i * 4 + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

// Every length 0..200, each fed to Sha256 in three pieces split at
// random points, against the reference driven by \p compress.
void ExpectSha256MatchesReference(detail::Sha256CompressFn compress) {
  std::mt19937_64 gen(0x5a256);
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::vector<std::uint8_t> msg = RandomBytes(&gen, len);
    std::size_t a = len == 0 ? 0 : gen() % (len + 1);
    std::size_t b = len == 0 ? 0 : gen() % (len + 1);
    if (a > b) std::swap(a, b);
    Sha256 h;
    h.Update(msg.data(), a);
    h.Update(msg.data() + a, b - a);
    h.Update(msg.data() + b, len - b);
    EXPECT_EQ(DigestToHex(h.Final()),
              DigestToHex(ReferenceDigest(compress, msg)))
        << "length " << len << ", split at " << a << "/" << b;
  }
}

TEST(Sha256Kernels, KernelNameMatchesCpu) {
  EXPECT_STREQ(Sha256KernelName(),
               detail::CpuHasShaNi() ? "sha-ni" : "portable");
}

TEST(Sha256Kernels, PortableReferenceMatchesKnownAnswer) {
  const std::string abc = "abc";
  EXPECT_EQ(DigestToHex(ReferenceDigest(
                detail::Sha256CompressPortable,
                std::vector<std::uint8_t>(abc.begin(), abc.end()))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Kernels, EveryLengthMatchesPortableReference) {
  ExpectSha256MatchesReference(detail::Sha256CompressPortable);
}

TEST(Sha256Kernels, EveryLengthMatchesShaNiReference) {
#if P2DRM_HAVE_SHANI_KERNEL
  if (!detail::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; the SHA-NI kernel "
                    "cannot run here";
  }
  ExpectSha256MatchesReference(detail::Sha256CompressShaNi);
#else
  GTEST_SKIP() << "this build has no SHA-NI kernel (x86-64 GCC/Clang only)";
#endif
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomBlocks) {
#if P2DRM_HAVE_SHANI_KERNEL
  if (!detail::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; the SHA-NI kernel "
                    "cannot run here";
  }
  std::mt19937_64 gen(0x5a257);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nblocks = 1 + gen() % 17;
    const std::vector<std::uint8_t> data = RandomBytes(&gen, nblocks * 64);
    std::uint32_t portable[8];
    for (auto& w : portable) w = static_cast<std::uint32_t>(gen());
    std::uint32_t shani[8];
    std::memcpy(shani, portable, sizeof(shani));
    detail::Sha256CompressPortable(portable, data.data(), nblocks);
    detail::Sha256CompressShaNi(shani, data.data(), nblocks);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(portable[i], shani[i])
          << "trial " << trial << ", " << nblocks << " blocks, word " << i;
    }
  }
#else
  GTEST_SKIP() << "this build has no SHA-NI kernel (x86-64 GCC/Clang only)";
#endif
}

}  // namespace
}  // namespace crypto
}  // namespace p2drm
