#ifndef P2DRM_CRYPTO_SHA256_H_
#define P2DRM_CRYPTO_SHA256_H_

/// \file sha256.h
/// \brief FIPS 180-4 SHA-256, incremental and one-shot.
///
/// Whole 64-byte blocks are compressed straight from the caller's
/// buffer by one kernel chosen per process: the SHA-NI instructions when
/// the CPU has them, a portable loop otherwise (docs/bignum.md,
/// "Hashing"). Both produce the same digests.

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace p2drm {
namespace crypto {

/// 32-byte digest type.
using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() { Reset(); }

  /// Resets to the initial state.
  void Reset();

  /// Absorbs \p len bytes.
  void Update(const std::uint8_t* data, std::size_t len);
  void Update(const std::vector<std::uint8_t>& data) {
    Update(data.data(), data.size());
  }
  void Update(const std::string& data) {
    Update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// Finalizes and returns the digest. The hasher must be Reset() before
  /// reuse.
  Digest256 Final();

  /// One-shot convenience.
  static Digest256 Hash(const std::uint8_t* data, std::size_t len);
  static Digest256 Hash(const std::vector<std::uint8_t>& data) {
    return Hash(data.data(), data.size());
  }
  static Digest256 Hash(const std::string& data) {
    return Hash(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size());
  }

 private:
  friend class HmacSha256Key;

  /// Resumes a hash from the chaining value \p midstate reached after
  /// \p absorbed bytes (a whole number of blocks).
  Sha256(const std::array<std::uint32_t, 8>& midstate, std::uint64_t absorbed)
      : state_(midstate), total_len_(absorbed) {}

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Name of the compression kernel this process runs: "sha-ni" or
/// "portable".
const char* Sha256KernelName();

/// Hex rendering of a digest (lower-case, 64 chars).
std::string DigestToHex(const Digest256& d);

/// Digest as a byte vector.
std::vector<std::uint8_t> DigestToBytes(const Digest256& d);

}  // namespace crypto
}  // namespace p2drm

#endif  // P2DRM_CRYPTO_SHA256_H_
