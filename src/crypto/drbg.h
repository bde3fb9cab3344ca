#ifndef P2DRM_CRYPTO_DRBG_H_
#define P2DRM_CRYPTO_DRBG_H_

/// \file drbg.h
/// \brief Deterministic and system randomness sources.
///
/// HmacDrbg follows NIST SP 800-90A HMAC_DRBG (SHA-256, no reseed
/// counters enforced — this repo uses it for reproducible key generation
/// in tests and benchmarks). SystemRandom wraps std::random_device.

#include <cstdint>
#include <string>
#include <vector>

#include "bignum/random_source.h"
#include "crypto/hmac.h"

namespace p2drm {
namespace crypto {

/// NIST SP 800-90A style HMAC-DRBG over SHA-256.
class HmacDrbg : public bignum::RandomSource {
 public:
  /// Instantiates from arbitrary seed material.
  explicit HmacDrbg(const std::vector<std::uint8_t>& seed);

  /// Convenience: seeds from a string label (tests/benches).
  explicit HmacDrbg(const std::string& seed_label);

  /// Mixes additional entropy into the state.
  void Reseed(const std::vector<std::uint8_t>& material);

  /// Derives an independent child stream bound to \p domain_tag. The
  /// parent advances by exactly one 32-byte generate, so forking is as
  /// deterministic as any other draw: the same seed and the same fork
  /// sequence reproduce the same children, and distinct domain tags (or
  /// distinct parent states) yield unrelated streams. The child shares
  /// no state with the parent afterwards, which is what lets a fork be
  /// handed to another thread while the parent keeps serving its own.
  HmacDrbg Fork(const std::vector<std::uint8_t>& domain_tag);
  HmacDrbg Fork(const std::string& domain_tag);

  void Fill(std::uint8_t* out, std::size_t len) override;

 private:
  void UpdateState(const std::uint8_t* provided, std::size_t len);

  HmacSha256Key key_;  // K, held as its HMAC midstates
  Digest256 v_;        // V
};

/// Forks any RandomSource: draws 32 bytes from \p parent and binds them
/// to \p domain_tag as the seed of a fresh HmacDrbg. For an HmacDrbg
/// parent this is exactly HmacDrbg::Fork; for SystemRandom it yields a
/// fast deterministic child keyed by real entropy. The parent is
/// advanced by one 32-byte read and must not be touched concurrently;
/// the returned child is independent and safe to move to another thread.
HmacDrbg ForkRandom(bignum::RandomSource* parent,
                    const std::vector<std::uint8_t>& domain_tag);

/// Randomness from std::random_device. Suitable for examples; tests and
/// benchmarks should prefer HmacDrbg for reproducibility.
class SystemRandom : public bignum::RandomSource {
 public:
  void Fill(std::uint8_t* out, std::size_t len) override;
};

}  // namespace crypto
}  // namespace p2drm

#endif  // P2DRM_CRYPTO_DRBG_H_
