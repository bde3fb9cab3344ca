#ifndef P2DRM_SERVER_BATCH_VERIFIER_H_
#define P2DRM_SERVER_BATCH_VERIFIER_H_

/// \file batch_verifier.h
/// \brief Amortized server-side crypto for batched redemptions.
///
/// A naive batch of k redemptions costs 2k full RSA-FDH verifications
/// (license signature + pseudonym certificate per item) plus 2k
/// Montgomery context setups, because crypto::RsaVerifyFdh rebuilds the
/// context on every call. This verifier amortizes all three server-side
/// costs:
///
///  * Montgomery context reuse — one context per modulus, cached for the
///    verifier's lifetime and shared across items and batches.
///  * Grouped same-key verification — all licenses in a batch are signed
///    by the provider's own key, so the whole group is checked with ONE
///    full-width verification: the Bellare–Garay–Rabin small-exponents
///    screen, Π s_i^{r_i} raised to e against Π H(m_i)^{r_i}, with the
///    two products computed by Straus interleaving so the squarings are
///    shared across the batch. A failed screen falls back to per-item
///    verification to identify the bad items, so acceptance is always
///    sound per item; fresh random 32-bit exponents bound the screen's
///    cheat probability by 2^-32 per batch. What the screen buys is the
///    count — one full verification per group instead of one per item,
///    which bench_server_scaling Part B gates — not time: at e = 65537
///    its products (boxed MulMont) cost more than per-item verifies on
///    the cached context. 32 signatures, 2048-bit, 4-vCPU Xeon VM: the
///    screen takes 2.9–3.2 ms and 32 per-item verifies 2.6–2.9 ms on the
///    portable kernels; where PowMod runs on the IFMA kernel
///    (docs/bignum.md) the screen takes 3.0–3.1 ms and 32 per-item
///    verifies 0.42–0.45 ms.
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
/// RSA verification operations actually performed — the quantity the
/// RT-2 cost table and the server-scaling bench compare against `items`.
struct BatchVerifierStats {
  std::uint64_t items = 0;            ///< signature checks requested
  std::uint64_t full_verifies = 0;    ///< full RSA verifications performed
  std::uint64_t screened_groups = 0;  ///< same-key groups screened in one op
  std::uint64_t screen_failures = 0;  ///< screens that fell back to per-item
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

  /// Verifies k (message, signature) pairs under ONE public key with the
  /// small-exponents screen (one full verification for the whole group
  /// when all signatures are genuine). \p msgs and \p sigs are aligned;
  /// the result is per-item validity. \p rng supplies the screen's
  /// random exponents and must not be null.
  std::vector<bool> VerifySameKeyBatch(
      const crypto::RsaPublicKey& pub,
      const std::vector<std::vector<std::uint8_t>>& msgs,
      const std::vector<std::vector<std::uint8_t>>& sigs,
      bignum::RandomSource* rng);

  /// Pseudonym-certificate verification memoized by certificate digest.
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
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_BATCH_VERIFIER_H_
