#include "crypto/hmac.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace p2drm {
namespace crypto {

HmacSha256Key::HmacSha256Key(const std::uint8_t* key, std::size_t len) {
  std::array<std::uint8_t, 64> block{};
  if (len > block.size()) {
    const Digest256 d = Sha256::Hash(key, len);
    std::copy(d.begin(), d.end(), block.begin());
  } else if (len > 0) {
    std::copy(key, key + len, block.begin());
  }
  Sha256 h;
  for (std::uint8_t& b : block) b ^= 0x36;
  h.Update(block.data(), block.size());
  inner_ = h.state_;
  h.Reset();
  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;  // ipad -> opad
  h.Update(block.data(), block.size());
  outer_ = h.state_;
}

Digest256 HmacSha256Key::Mac(const std::uint8_t* msg, std::size_t len) const {
  Sha256 inner = Begin();
  inner.Update(msg, len);
  return Finish(&inner);
}

Digest256 HmacSha256Key::Finish(Sha256* inner) const {
  const Digest256 inner_digest = inner->Final();
  Sha256 outer(outer_, 64);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Final();
}

Digest256 HmacSha256(const std::vector<std::uint8_t>& key,
                     const std::uint8_t* msg, std::size_t len) {
  return HmacSha256Key(key).Mac(msg, len);
}

Digest256 HmacSha256(const std::vector<std::uint8_t>& key,
                     const std::vector<std::uint8_t>& msg) {
  return HmacSha256(key, msg.data(), msg.size());
}

Digest256 HkdfExtract(const std::vector<std::uint8_t>& salt,
                      const std::vector<std::uint8_t>& ikm) {
  // An empty salt stands for 32 zero bytes (RFC 5869 2.2); HMAC pads
  // both to the same zero key block.
  return HmacSha256(salt, ikm);
}

std::vector<std::uint8_t> HkdfExpand(const Digest256& prk,
                                     const std::vector<std::uint8_t>& info,
                                     std::size_t out_len) {
  if (out_len > 255 * 32) {
    throw std::length_error("HkdfExpand: output too long");
  }
  const HmacSha256Key key(prk.data(), prk.size());
  std::vector<std::uint8_t> out(out_len);
  Digest256 t{};
  std::size_t pos = 0;
  for (std::uint8_t counter = 1; pos < out_len; ++counter) {
    // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
    Sha256 inner = key.Begin();
    if (counter > 1) inner.Update(t.data(), t.size());
    inner.Update(info);
    inner.Update(&counter, 1);
    t = key.Finish(&inner);
    const std::size_t take = std::min<std::size_t>(t.size(), out_len - pos);
    std::copy(t.begin(), t.begin() + take, out.begin() + pos);
    pos += take;
  }
  return out;
}

bool ConstantTimeEquals(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t len) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < len; ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace crypto
}  // namespace p2drm
