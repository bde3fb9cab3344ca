#ifndef P2DRM_SERVER_BATCH_VERIFIER_H_
#define P2DRM_SERVER_BATCH_VERIFIER_H_

/// \file batch_verifier.h
/// \brief Amortized server-side crypto for batched redemptions.
///
/// A naive batch of k redemptions costs 2k full RSA-FDH verifications
/// (license signature + pseudonym certificate per item), each looking
/// its Montgomery context up in a small per-thread cache
/// (Montgomery::CachedFor). This verifier removes the work that is
/// repeated and checks each signature that remains exactly once:
///
///  * Montgomery context reuse — one context per modulus, owned by the
///    verifier for its lifetime and shared across items and batches.
///  * Same-key license groups — all licenses in a batch are signed by the
///    provider's own key, so the group shares one cached context and
///    each well-formed signature costs one s^e mod n (16 squarings and
///    1 multiply at e = 65537, on the IFMA kernel where the CPU has it,
///    docs/bignum.md). A batch screen with random small exponents
///    (Bellare–Garay–Rabin) cannot beat that at e = 65537: with 32-bit
///    exponents it needs about 2·32 + 32·k + 17 multiplies for k
///    signatures against 17·k.
///  * Pseudonym-certificate memoization — certificates are immutable, so
///    each distinct certificate is verified once (keyed by digest) and
///    repeats within and across batches are cache hits.
///  * Shared CRL probe pass — one pass answers every item's (bloom-
///    fronted) revocation probe, consulting the list once per distinct
///    key.
///
/// Thread-safety: the context cache and certificate cache are mutex
/// guarded, so cached single verifications (VerifyFdh) may run from shard
/// workers concurrently; the batch entry points are meant for the
/// provider's dispatch thread.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "bignum/montgomery.h"
#include "bignum/random_source.h"
#include "core/certificates.h"
#include "crypto/rsa.h"
#include "rel/ids.h"
#include "store/revocation_list.h"

namespace p2drm {
namespace server {

/// Amortization counters. `full_verifies` is the number of full-width
/// RSA verification exponentiations actually performed — the quantity
/// the RT-2 cost table and the server-scaling bench compare against
/// `items`. The same-key group counters keep their names (the wall-clock
/// ledger reads them) from when a group was checked by one screen.
struct BatchVerifierStats {
  std::uint64_t items = 0;            ///< signature checks requested
  std::uint64_t full_verifies = 0;    ///< one per exponentiation
  std::uint64_t screened_groups = 0;  ///< same-key groups checked
  std::uint64_t screen_failures = 0;  ///< groups with a rejected candidate
  std::uint64_t cert_cache_hits = 0;  ///< pseudonym certs answered from cache
  std::uint64_t crl_probe_hits = 0;   ///< CRL probes answered within the pass

  BatchVerifierStats operator-(const BatchVerifierStats& o) const {
    return BatchVerifierStats{items - o.items,
                              full_verifies - o.full_verifies,
                              screened_groups - o.screened_groups,
                              screen_failures - o.screen_failures,
                              cert_cache_hits - o.cert_cache_hits,
                              crl_probe_hits - o.crl_probe_hits};
  }
};

/// Batch-amortized RSA-FDH verification with cached Montgomery contexts.
class BatchVerifier {
 public:
  /// Certificate-verdict cache bound; the cache resets when full so
  /// fabricated certificates cannot grow server memory without limit.
  static constexpr std::size_t kCertCacheMaxEntries = 4096;

  BatchVerifier() = default;
  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  /// The cached Montgomery context for \p pub's modulus (created on
  /// first use). The reference stays valid for the verifier's lifetime.
  const bignum::Montgomery& ContextFor(const crypto::RsaPublicKey& pub);

  /// Single RSA-FDH verification using the cached context. Counts one
  /// full verification.
  bool VerifyFdh(const crypto::RsaPublicKey& pub,
                 const std::vector<std::uint8_t>& msg,
                 const std::vector<std::uint8_t>& sig);

  /// Verifies k (message, signature) pairs under ONE public key on its
  /// cached context. \p msgs and \p sigs are aligned; the result is
  /// per-item validity. A candidate is a signature of the modulus width
  /// with s < n; each costs one full verification, and the rest are
  /// rejected without one. A group with at least one candidate counts one
  /// `screened_groups`, and one `screen_failures` if any candidate is
  /// rejected. With two or more candidates, \p rng gives one 4-byte Fill
  /// per candidate whose bytes are unused: the draw the group screen made
  /// for its exponents, kept so that a provider's DRBG stream, its later
  /// license ids and its issued bytes do not depend on how licenses are
  /// verified. \p rng must not be null.
  std::vector<bool> VerifySameKeyBatch(
      const crypto::RsaPublicKey& pub,
      const std::vector<std::vector<std::uint8_t>>& msgs,
      const std::vector<std::vector<std::uint8_t>>& sigs,
      bignum::RandomSource* rng);

  /// Pseudonym-certificate verification memoized by (CA key, certificate
  /// digest). The CA key's fingerprint is hashed once and reused while
  /// calls keep presenting an equal key (a provider's CA key never
  /// changes), so a memo hit costs one key compare and the certificate
  /// digest.
  bool VerifyPseudonymCert(const crypto::RsaPublicKey& ca_key,
                           const core::PseudonymCertificate& cert);

  /// One shared revocation pass: probes the (bloom-fronted) CRL once per
  /// distinct key and answers repeats from the pass cache. Result is
  /// aligned with \p keys.
  std::vector<bool> CrlProbePass(const store::RevocationList& crl,
                                 const std::vector<rel::KeyFingerprint>& keys);

  BatchVerifierStats stats() const {
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
  }

 private:
  const bignum::Montgomery& ContextForLocked(const crypto::RsaPublicKey& pub);
  bool VerifyFdhWith(const bignum::Montgomery& mont,
                     const crypto::RsaPublicKey& pub,
                     const std::vector<std::uint8_t>& msg,
                     const std::vector<std::uint8_t>& sig);

  mutable std::mutex m_;
  BatchVerifierStats stats_;
  // Montgomery contexts keyed by modulus bytes.
  std::map<std::vector<std::uint8_t>, std::unique_ptr<bignum::Montgomery>>
      contexts_;
  // Pseudonym-cert verdicts keyed by (ca-key fingerprint, cert digest).
  std::map<std::pair<rel::KeyFingerprint, rel::KeyFingerprint>, bool>
      cert_cache_;
  // The last CA key seen and its fingerprint.
  crypto::RsaPublicKey ca_key_;
  rel::KeyFingerprint ca_fingerprint_{};
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_BATCH_VERIFIER_H_
