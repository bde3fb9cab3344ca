#include "server/batch_verifier.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace p2drm {
namespace server {

using bignum::BigInt;
using bignum::Montgomery;

namespace {

/// One RSA-FDH check on a resolved context. Reads only its arguments, so
/// it may run on any pool thread.
bool CheckFdh(const Montgomery& mont, const crypto::RsaPublicKey& pub,
              const std::vector<std::uint8_t>& msg,
              const std::vector<std::uint8_t>& sig) {
  if (sig.size() != pub.ModulusBytes()) return false;
  BigInt s = BigInt::FromBytes(sig);
  if (s.Compare(pub.n) >= 0) return false;
  return mont.PowMod(s, pub.e) == crypto::FdhHash(msg, pub);
}

/// Runs check(i) for i in [0, n) on \p pool in contiguous groups of
/// VerifyGroupSize items and returns the per-item verdicts. Each group
/// writes only its own bytes of the result.
template <typename Check>
std::vector<std::uint8_t> FanOut(SignerPool& pool, std::size_t n,
                                 const Check& check) {
  std::vector<std::uint8_t> ok(n, 0);
  if (n == 0) return ok;
  const std::size_t group = VerifyGroupSize(n, pool.worker_count() + 1);
  pool.Run((n + group - 1) / group, [&](SignerContext&, std::size_t g) {
    const std::size_t end = std::min(n, (g + 1) * group);
    for (std::size_t i = g * group; i < end; ++i) ok[i] = check(i) ? 1 : 0;
  });
  return ok;
}

}  // namespace

std::size_t VerifyGroupSize(std::size_t n, std::size_t signers) {
  signers = std::max<std::size_t>(signers, 1);
  return std::max((n + signers - 1) / signers, kMinVerifyGroup);
}

const Montgomery& BatchVerifier::ContextForLocked(
    const crypto::RsaPublicKey& pub) {
  auto it = contexts_.find(pub.n);
  if (it == contexts_.end()) {
    it = contexts_.emplace(pub.n, std::make_unique<Montgomery>(pub.n)).first;
  }
  return *it->second;
}

const Montgomery& BatchVerifier::ContextFor(const crypto::RsaPublicKey& pub) {
  std::lock_guard<std::mutex> lock(m_);
  return ContextForLocked(pub);
}

bool BatchVerifier::VerifyFdh(const crypto::RsaPublicKey& pub,
                              const std::vector<std::uint8_t>& msg,
                              const std::vector<std::uint8_t>& sig) {
  const Montgomery& mont = ContextFor(pub);
  bool ok = CheckFdh(mont, pub, msg, sig);
  std::lock_guard<std::mutex> lock(m_);
  stats_.items += 1;
  stats_.full_verifies += 1;
  return ok;
}

std::vector<std::uint8_t> BatchVerifier::VerifySameKeyBatch(
    const crypto::RsaPublicKey& pub,
    const std::vector<std::vector<std::uint8_t>>& msgs,
    const std::vector<std::vector<std::uint8_t>>& sigs,
    bignum::RandomSource* rng, SignerPool& pool) {
  const std::size_t n = msgs.size();
  {
    std::lock_guard<std::mutex> lock(m_);
    stats_.items += n;
  }
  if (n == 0 || sigs.size() != n) return std::vector<std::uint8_t>(n, 0);

  // Structural pre-screen (no exponentiation): only signatures of the
  // modulus width with s < n are candidates.
  std::size_t candidates = 0;
  for (const auto& sig : sigs) {
    if (sig.size() == pub.ModulusBytes() &&
        BigInt::FromBytes(sig).Compare(pub.n) < 0) {
      ++candidates;
    }
  }
  if (candidates == 0) return std::vector<std::uint8_t>(n, 0);

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
  std::vector<std::uint8_t> valid = FanOut(pool, n, [&](std::size_t i) {
    return CheckFdh(mont, pub, msgs[i], sigs[i]);
  });
  std::size_t accepted = 0;
  for (std::uint8_t v : valid) accepted += v;
  std::lock_guard<std::mutex> lock(m_);
  stats_.full_verifies += candidates;
  stats_.screened_groups += 1;
  if (accepted < candidates) stats_.screen_failures += 1;
  return valid;
}

std::vector<std::uint8_t> BatchVerifier::VerifyFdhMany(
    const std::vector<FdhCheck>& checks, SignerPool& pool) {
  const std::size_t n = checks.size();
  // Every context is resolved here, under one lock, so the jobs below
  // never touch the cache; a run of checks under one key resolves once.
  std::vector<const Montgomery*> monts(n);
  {
    std::lock_guard<std::mutex> lock(m_);
    for (std::size_t i = 0; i < n; ++i) {
      monts[i] = i > 0 && checks[i].pub->n == checks[i - 1].pub->n
                     ? monts[i - 1]
                     : &ContextForLocked(*checks[i].pub);
    }
  }
  std::vector<std::uint8_t> valid = FanOut(pool, n, [&](std::size_t i) {
    return CheckFdh(*monts[i], *checks[i].pub, *checks[i].msg,
                    *checks[i].sig);
  });
  std::lock_guard<std::mutex> lock(m_);
  stats_.items += n;
  stats_.full_verifies += n;
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
  bool ok = CheckFdh(mont, ca_key, cert.CanonicalBytes(), cert.ca_signature);
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
