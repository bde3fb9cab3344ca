// HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869) test vectors.

#include "crypto/hmac.h"

#include <gtest/gtest.h>

namespace p2drm {
namespace crypto {
namespace {

std::vector<std::uint8_t> FromHex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Hmac, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  std::string msg = "Hi There";
  Digest256 mac = HmacSha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  std::string key_s = "Jefe";
  std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  std::string msg = "what do ya want for nothing?";
  Digest256 mac = HmacSha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  std::vector<std::uint8_t> key(20, 0xaa);
  std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(DigestToHex(HmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  std::vector<std::uint8_t> key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  Digest256 mac = HmacSha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// One HmacSha256Key, built once, MACs two messages: the midstates are
// not consumed by a MAC. RFC 4231 cases 1, 2 and 6 (a key longer than
// the block is hashed first).
TEST(HmacKey, Rfc4231CasesReuseOneKey) {
  struct Case {
    std::vector<std::uint8_t> key;
    std::string msg;
    const char* mac;
  };
  const std::string jefe = "Jefe";
  const std::vector<Case> cases = {
      {std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {std::vector<std::uint8_t>(jefe.begin(), jefe.end()),
       "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  const std::string other = "a second message under the same key";
  for (const Case& c : cases) {
    const HmacSha256Key key(c.key);
    const auto* msg = reinterpret_cast<const std::uint8_t*>(c.msg.data());
    const auto* msg2 = reinterpret_cast<const std::uint8_t*>(other.data());
    EXPECT_EQ(DigestToHex(key.Mac(msg, c.msg.size())), c.mac);
    EXPECT_EQ(DigestToHex(key.Mac(msg2, other.size())),
              DigestToHex(HmacSha256(c.key, msg2, other.size())));
    EXPECT_EQ(DigestToHex(key.Mac(msg, c.msg.size())), c.mac);
    // Streaming the message in two pieces gives the same MAC.
    Sha256 inner = key.Begin();
    inner.Update(msg, 3);
    inner.Update(msg + 3, c.msg.size() - 3);
    EXPECT_EQ(DigestToHex(key.Finish(&inner)), c.mac);
  }
}

TEST(Hkdf, Rfc5869Case1) {
  std::vector<std::uint8_t> ikm(22, 0x0b);
  std::vector<std::uint8_t> salt = FromHex("000102030405060708090a0b0c");
  std::vector<std::uint8_t> info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Digest256 prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(DigestToHex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  std::vector<std::uint8_t> okm = HkdfExpand(prk, info, 42);
  std::vector<std::uint8_t> expected = FromHex(
      "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
      "34007208d5b887185865");
  EXPECT_EQ(okm, expected);
}

TEST(Hkdf, EmptySaltUsesZeros) {
  std::vector<std::uint8_t> ikm(22, 0x0b);
  Digest256 prk = HkdfExtract({}, ikm);
  // RFC 5869 test case 3 PRK.
  EXPECT_EQ(DigestToHex(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  std::vector<std::uint8_t> okm = HkdfExpand(prk, {}, 42);
  std::vector<std::uint8_t> expected = FromHex(
      "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
      "9d201395faa4b61a96c8");
  EXPECT_EQ(okm, expected);
}

TEST(Hkdf, ExpandLengthLimit) {
  Digest256 prk{};
  EXPECT_NO_THROW(HkdfExpand(prk, {}, 255 * 32));
  EXPECT_THROW(HkdfExpand(prk, {}, 255 * 32 + 1), std::length_error);
}

TEST(ConstantTime, EqualsAndDiffers) {
  std::vector<std::uint8_t> a = {1, 2, 3, 4};
  std::vector<std::uint8_t> b = {1, 2, 3, 4};
  std::vector<std::uint8_t> c = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEquals(a.data(), b.data(), 4));
  EXPECT_FALSE(ConstantTimeEquals(a.data(), c.data(), 4));
  EXPECT_TRUE(ConstantTimeEquals(a.data(), c.data(), 3));
  EXPECT_TRUE(ConstantTimeEquals(a.data(), b.data(), 0));
}

}  // namespace
}  // namespace crypto
}  // namespace p2drm
