#include "server/batch_verifier.h"

#include <utility>

#include "crypto/sha256.h"

namespace p2drm {
namespace server {

using bignum::BigInt;
using bignum::Montgomery;

const Montgomery& BatchVerifier::ContextForLocked(
    const crypto::RsaPublicKey& pub) {
  std::vector<std::uint8_t> key = pub.n.ToBytes();
  auto it = contexts_.find(key);
  if (it == contexts_.end()) {
    it = contexts_
             .emplace(std::move(key), std::make_unique<Montgomery>(pub.n))
             .first;
  }
  return *it->second;
}

const Montgomery& BatchVerifier::ContextFor(const crypto::RsaPublicKey& pub) {
  std::lock_guard<std::mutex> lock(m_);
  return ContextForLocked(pub);
}

bool BatchVerifier::VerifyFdhWith(const Montgomery& mont,
                                  const crypto::RsaPublicKey& pub,
                                  const std::vector<std::uint8_t>& msg,
                                  const std::vector<std::uint8_t>& sig) {
  if (sig.size() != pub.ModulusBytes()) return false;
  BigInt s = BigInt::FromBytes(sig);
  if (s.Compare(pub.n) >= 0) return false;
  return mont.PowMod(s, pub.e) == crypto::FdhHash(msg, pub);
}

bool BatchVerifier::VerifyFdh(const crypto::RsaPublicKey& pub,
                              const std::vector<std::uint8_t>& msg,
                              const std::vector<std::uint8_t>& sig) {
  const Montgomery& mont = ContextFor(pub);
  bool ok = VerifyFdhWith(mont, pub, msg, sig);
  std::lock_guard<std::mutex> lock(m_);
  stats_.items += 1;
  stats_.full_verifies += 1;
  return ok;
}

std::vector<bool> BatchVerifier::VerifySameKeyBatch(
    const crypto::RsaPublicKey& pub,
    const std::vector<std::vector<std::uint8_t>>& msgs,
    const std::vector<std::vector<std::uint8_t>>& sigs,
    bignum::RandomSource* rng) {
  const std::size_t n = msgs.size();
  std::vector<bool> valid(n, false);
  {
    std::lock_guard<std::mutex> lock(m_);
    stats_.items += n;
  }
  if (n == 0 || sigs.size() != n) return valid;

  // Structural pre-screen (no exponentiation): only signatures of the
  // modulus width with s < n are candidates.
  std::size_t candidates = 0;
  for (const auto& sig : sigs) {
    if (sig.size() == pub.ModulusBytes() &&
        BigInt::FromBytes(sig).Compare(pub.n) < 0) {
      ++candidates;
    }
  }
  if (candidates == 0) return valid;

  // Unused draw that keeps the provider's DRBG stream (see the header).
  // One 4-byte Fill per candidate, not one 4k-byte Fill: HmacDrbg
  // updates its state after every call.
  if (candidates >= 2) {
    for (std::size_t k = 0; k < candidates; ++k) {
      std::uint8_t buf[4];
      rng->Fill(buf, sizeof(buf));
    }
  }

  const Montgomery& mont = ContextFor(pub);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    valid[i] = VerifyFdhWith(mont, pub, msgs[i], sigs[i]);
    if (valid[i]) ++accepted;
  }
  std::lock_guard<std::mutex> lock(m_);
  stats_.full_verifies += candidates;
  stats_.screened_groups += 1;
  if (accepted < candidates) stats_.screen_failures += 1;
  return valid;
}

bool BatchVerifier::VerifyPseudonymCert(
    const crypto::RsaPublicKey& ca_key,
    const core::PseudonymCertificate& cert) {
  const rel::KeyFingerprint cert_digest =
      crypto::Sha256::Hash(cert.Serialize());
  std::pair<rel::KeyFingerprint, rel::KeyFingerprint> key;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (!(ca_key == ca_key_)) {
      ca_key_ = ca_key;
      ca_fingerprint_ = ca_key.Fingerprint();
    }
    key = {ca_fingerprint_, cert_digest};
    auto it = cert_cache_.find(key);
    if (it != cert_cache_.end()) {
      stats_.cert_cache_hits += 1;
      return it->second;
    }
  }
  const Montgomery& mont = ContextFor(ca_key);
  bool ok = VerifyFdhWith(mont, ca_key, cert.CanonicalBytes(),
                          cert.ca_signature);
  std::lock_guard<std::mutex> lock(m_);
  stats_.items += 1;
  stats_.full_verifies += 1;
  // The cache is pure memoization, so bounding it by epoch reset is
  // always sound. Without a bound, a client pairing one genuine license
  // with endlessly fabricated certificates could grow server memory
  // forever (rejections are cached too).
  if (cert_cache_.size() >= kCertCacheMaxEntries) cert_cache_.clear();
  cert_cache_.emplace(std::move(key), ok);
  return ok;
}

std::vector<bool> BatchVerifier::CrlProbePass(
    const store::RevocationList& crl,
    const std::vector<rel::KeyFingerprint>& keys) {
  std::vector<bool> revoked(keys.size(), false);
  std::map<rel::KeyFingerprint, bool> pass_cache;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = pass_cache.find(keys[i]);
    if (it != pass_cache.end()) {
      revoked[i] = it->second;
      ++hits;
      continue;
    }
    bool r = crl.IsRevoked(keys[i]);
    pass_cache.emplace(keys[i], r);
    revoked[i] = r;
  }
  std::lock_guard<std::mutex> lock(m_);
  stats_.crl_probe_hits += hits;
  return revoked;
}

}  // namespace server
}  // namespace p2drm
