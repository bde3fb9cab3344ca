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
/// Threading contract:
///  * The context cache and certificate cache are mutex guarded, so
///    cached single verifications (VerifyFdh) may run from any thread
///    concurrently. The batch entry points are called from the
///    provider's dispatch thread.
///  * The batch entry points (VerifySameKeyBatch, VerifyFdhMany) fan
///    their exponentiations out over a SignerPool: contiguous groups of
///    VerifyGroupSize items, run by the pool's workers and the calling
///    thread, which joins. Everything else stays on the caller, before
///    the fan-out or after the join: each item's Montgomery context is
///    resolved under the lock first, the DRBG draw happens first and in
///    order, and stats are added once after the join. A job reads only
///    its items' inputs and contexts and writes only its items' bytes of
///    a per-item byte array (not a std::vector<bool>, whose bits share
///    words), so it touches no verifier state and needs no lock. Verify
///    jobs accrue nothing onto the pool's SignerContext clocks: those
///    stay the issue stage's clocks.
///  * The certificate memo and the CRL pass are serial on the caller.

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
#include "server/signer_pool.h"
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

/// Smallest group of RSA-FDH verifications the batch entry points hand
/// one signer. A verification at e = 65537 costs 10-14 µs at 2048 bits
/// (docs/bignum.md), and a parked worker starts its group about 40 µs
/// after the wake, so smaller groups lose to running inline. Measured on
/// a 4-vCPU AVX-512 IFMA Xeon, 3 parked workers, p50 of 300 interleaved
/// calls: 4 checks took 50 µs inline and 105 µs as four groups of one;
/// 16 took 180 µs inline and 109 µs as four groups of 4; 6 took 71 µs
/// inline and 83 µs as two groups. Up to this many checks run as one
/// group on the caller and wake nobody (docs/server.md).
constexpr std::size_t kMinVerifyGroup = 4;

/// Verifications per group for \p n checks on \p signers signers (pool
/// workers plus the joining caller): ceil(n / signers), but at least
/// kMinVerifyGroup. 32 checks on 4 signers make four groups of 8; 3
/// checks make one group, run on the caller.
std::size_t VerifyGroupSize(std::size_t n, std::size_t signers);

/// One RSA-FDH check of a mixed-key list: \p sig over \p msg under
/// \p pub. The pointers are borrowed for the duration of the call.
struct FdhCheck {
  const crypto::RsaPublicKey* pub = nullptr;
  const std::vector<std::uint8_t>* msg = nullptr;
  const std::vector<std::uint8_t>* sig = nullptr;
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
  /// cached context, fanned out over \p pool (see the threading
  /// contract). \p msgs and \p sigs are aligned; the result is per-item
  /// validity (1 valid, 0 not). A candidate is a signature of the modulus width
  /// with s < n; each costs one full verification, and the rest are
  /// rejected without one. A group with at least one candidate counts one
  /// `screened_groups`, and one `screen_failures` if any candidate is
  /// rejected. With two or more candidates, \p rng gives one 4-byte Fill
  /// per candidate whose bytes are unused: the draw the group screen made
  /// for its exponents, kept so that a provider's DRBG stream, its later
  /// license ids and its issued bytes do not depend on how licenses are
  /// verified. The draw happens on the caller, before the fan-out.
  /// \p rng must not be null.
  std::vector<std::uint8_t> VerifySameKeyBatch(
      const crypto::RsaPublicKey& pub,
      const std::vector<std::vector<std::uint8_t>>& msgs,
      const std::vector<std::vector<std::uint8_t>>& sigs,
      bignum::RandomSource* rng, SignerPool& pool);

  /// Verifies a mixed-key list of RSA-FDH checks (the exchange
  /// possession proofs), fanned out over \p pool. Each check counts one
  /// item and one full verification, as a VerifyFdh call would; the
  /// result is per-check validity (1 valid, 0 not), aligned with
  /// \p checks.
  std::vector<std::uint8_t> VerifyFdhMany(const std::vector<FdhCheck>& checks,
                                          SignerPool& pool);

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

  mutable std::mutex m_;
  BatchVerifierStats stats_;
  // Montgomery contexts keyed by modulus.
  std::map<bignum::BigInt, std::unique_ptr<bignum::Montgomery>> contexts_;
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
