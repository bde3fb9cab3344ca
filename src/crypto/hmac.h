#ifndef P2DRM_CRYPTO_HMAC_H_
#define P2DRM_CRYPTO_HMAC_H_

/// \file hmac.h
/// \brief HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace p2drm {
namespace crypto {

/// An HMAC-SHA256 key with its pads already absorbed: it keeps the
/// SHA-256 chaining values after the key ^ ipad and key ^ opad blocks, so
/// each MAC costs the message's blocks plus one outer block, not two
/// extra pad blocks. Immutable after construction; 64 bytes to copy.
class HmacSha256Key {
 public:
  HmacSha256Key(const std::uint8_t* key, std::size_t len);
  explicit HmacSha256Key(const std::vector<std::uint8_t>& key)
      : HmacSha256Key(key.data(), key.size()) {}

  /// HMAC-SHA256(key, msg).
  Digest256 Mac(const std::uint8_t* msg, std::size_t len) const;

  /// Streaming form: Begin() returns a hasher that has absorbed the
  /// inner pad; feed it the message in pieces, then Finish(&inner)
  /// returns the MAC.
  Sha256 Begin() const { return Sha256(inner_, 64); }
  Digest256 Finish(Sha256* inner) const;

 private:
  std::array<std::uint32_t, 8> inner_;  // after the key ^ ipad block
  std::array<std::uint32_t, 8> outer_;  // after the key ^ opad block
};

/// Computes HMAC-SHA256(key, message).
Digest256 HmacSha256(const std::vector<std::uint8_t>& key,
                     const std::uint8_t* msg, std::size_t len);

Digest256 HmacSha256(const std::vector<std::uint8_t>& key,
                     const std::vector<std::uint8_t>& msg);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest256 HkdfExtract(const std::vector<std::uint8_t>& salt,
                      const std::vector<std::uint8_t>& ikm);

/// HKDF-Expand: derives \p out_len bytes (<= 255*32) from a PRK and info.
std::vector<std::uint8_t> HkdfExpand(const Digest256& prk,
                                     const std::vector<std::uint8_t>& info,
                                     std::size_t out_len);

/// Constant-time comparison of equal-length byte strings.
bool ConstantTimeEquals(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t len);

}  // namespace crypto
}  // namespace p2drm

#endif  // P2DRM_CRYPTO_HMAC_H_
