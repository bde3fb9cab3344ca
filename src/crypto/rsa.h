#ifndef P2DRM_CRYPTO_RSA_H_
#define P2DRM_CRYPTO_RSA_H_

/// \file rsa.h
/// \brief RSA key generation, full-domain-hash signatures, and KEM-style
/// hybrid encryption — the public-key substrate of the P2DRM protocols.
///
/// Signatures are RSA-FDH: the message is expanded with MGF1-SHA256 to the
/// modulus width (top byte zeroed so the representative is < n) and signed
/// with the private exponent via CRT. This choice matters for the paper:
/// FDH composes directly with Chaum blinding (blind_rsa.h), which is what
/// makes pseudonym certificates and e-cash unlinkable.

#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "bignum/random_source.h"
#include "crypto/sha256.h"

namespace p2drm {
namespace crypto {

/// RSA public key (n, e).
struct RsaPublicKey {
  bignum::BigInt n;
  bignum::BigInt e;

  /// Width of the modulus in bytes (ceil(bits/8)).
  std::size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  /// Canonical serialization: len(n) ‖ n ‖ len(e) ‖ e (32-bit BE lengths).
  std::vector<std::uint8_t> Serialize() const;
  static RsaPublicKey Deserialize(const std::vector<std::uint8_t>& bytes);

  /// SHA-256 of the canonical serialization; used as key identifier.
  Digest256 Fingerprint() const;

  bool operator==(const RsaPublicKey& o) const { return n == o.n && e == o.e; }
};

/// Precomputed Montgomery contexts for CRT signing. Immutable once
/// built, so any number of threads may sign with the same key
/// concurrently (bignum::Montgomery is stateless after construction).
/// RsaPrivateOp hands both to bignum::PowModCrtPair: on a CPU with
/// AVX-512 IFMA, and when p and q have the same 52-bit digit count (as
/// every key GenerateRsaKey makes does), the two half-size
/// exponentiations run interleaved in one loop.
struct RsaCrtContext {
  RsaCrtContext(const bignum::BigInt& p, const bignum::BigInt& q)
      : mont_p(p), mont_q(q) {}

  bignum::Montgomery mont_p;
  bignum::Montgomery mont_q;
};

/// RSA private key with CRT parameters.
struct RsaPrivateKey {
  bignum::BigInt n;
  bignum::BigInt e;
  bignum::BigInt d;
  bignum::BigInt p;
  bignum::BigInt q;
  bignum::BigInt dp;    // d mod (p-1)
  bignum::BigInt dq;    // d mod (q-1)
  bignum::BigInt qinv;  // q^-1 mod p
  /// Cached signing contexts, shared by copies of the key. Populated by
  /// GenerateRsaKey; keys assembled by hand can call Precompute() (or
  /// not — RsaPrivateOp falls back to per-call contexts).
  std::shared_ptr<const RsaCrtContext> crt;

  RsaPublicKey PublicKey() const { return RsaPublicKey{n, e}; }

  /// Builds the cached Montgomery p/q contexts. Call once after the CRT
  /// fields are final; do NOT call while other threads may be signing.
  void Precompute() { crt = std::make_shared<RsaCrtContext>(p, q); }
};

/// Generates an RSA key pair with public exponent 65537.
/// \param modulus_bits total modulus size (e.g. 1024, 2048)
/// \param rng randomness for prime generation
RsaPrivateKey GenerateRsaKey(std::size_t modulus_bits,
                             bignum::RandomSource* rng);

/// Raw public operation m^e mod n. Requires 0 <= m < n.
bignum::BigInt RsaPublicOp(const RsaPublicKey& pub, const bignum::BigInt& m);

/// Raw private operation c^d mod n via CRT. Requires 0 <= c < n.
/// With the key's cached RsaCrtContext both halves run as one
/// bignum::PowModCrtPair (see RsaCrtContext); this is the path of every
/// signature, blind signature, hybrid decryption and escrow opening.
/// The result is the same integer on every kernel.
bignum::BigInt RsaPrivateOp(const RsaPrivateKey& priv,
                            const bignum::BigInt& c);

/// Full-domain hash of \p msg onto [0, n): MGF1-SHA256 expanded to the
/// modulus width with the top byte cleared.
bignum::BigInt FdhHash(const std::vector<std::uint8_t>& msg,
                       const RsaPublicKey& pub);

/// RSA-FDH signature over \p msg. Returns the signature as modulus-width
/// big-endian bytes.
std::vector<std::uint8_t> RsaSignFdh(const RsaPrivateKey& priv,
                                     const std::vector<std::uint8_t>& msg);

/// Fewest messages of a group that RsaSignFdhMany signs on the 8-lane
/// kernel. An 8-lane pass costs the same for 1 to 8 lanes; on RSA-2048
/// (4-vCPU Xeon VM with IFMA) one pass measured 3.98 single signatures,
/// so a group of 4 or fewer signs one message at a time (docs/bignum.md,
/// "Multi-buffer signing").
constexpr std::size_t kMb8MinLanes = 5;

/// RSA-FDH signatures over every message of \p msgs, index-aligned:
/// byte for byte what RsaSignFdh returns for each. Groups of up to 8
/// messages run their p-halves in one 8-lane exponentiation and their
/// q-halves in another (bignum::Montgomery::PowModMb8), then recombine
/// each signature by CRT as RsaPrivateOp does. Groups smaller than
/// kMb8MinLanes, keys without a cached RsaCrtContext, and CPUs or
/// moduli without the 8-lane kernel sign message by message. Thread-safe
/// like RsaSignFdh.
std::vector<std::vector<std::uint8_t>> RsaSignFdhMany(
    const RsaPrivateKey& priv,
    const std::vector<std::vector<std::uint8_t>>& msgs);

/// Verifies an RSA-FDH signature.
bool RsaVerifyFdh(const RsaPublicKey& pub, const std::vector<std::uint8_t>& msg,
                  const std::vector<std::uint8_t>& sig);

/// Hybrid ciphertext: RSA-KEM encapsulated secret + ChaCha20 body + HMAC tag.
struct HybridCiphertext {
  std::vector<std::uint8_t> encapsulated;  // modulus-width RSA block
  std::vector<std::uint8_t> body;          // ChaCha20-encrypted payload
  std::array<std::uint8_t, 32> tag;        // HMAC-SHA256 over body

  std::vector<std::uint8_t> Serialize() const;
  static HybridCiphertext Deserialize(const std::vector<std::uint8_t>& bytes);
};

/// Encrypts \p plaintext to \p pub: picks random x < n, encapsulates x^e,
/// derives (enc_key, mac_key, nonce) with HKDF, encrypts with ChaCha20 and
/// authenticates with HMAC (encrypt-then-MAC).
HybridCiphertext RsaHybridEncrypt(const RsaPublicKey& pub,
                                  const std::vector<std::uint8_t>& plaintext,
                                  bignum::RandomSource* rng);

/// Decrypts a hybrid ciphertext. Returns false on MAC failure.
bool RsaHybridDecrypt(const RsaPrivateKey& priv, const HybridCiphertext& ct,
                      std::vector<std::uint8_t>* plaintext);

/// MGF1-SHA256 mask generation (exposed for tests).
std::vector<std::uint8_t> Mgf1Sha256(const std::vector<std::uint8_t>& seed,
                                     std::size_t out_len);

}  // namespace crypto
}  // namespace p2drm

#endif  // P2DRM_CRYPTO_RSA_H_
