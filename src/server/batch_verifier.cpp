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

  const Montgomery& mont = ContextFor(pub);

  // Structural pre-screen (cheap, no exponentiation): wrong-width or
  // out-of-range signatures are invalid without touching the math.
  std::vector<std::size_t> cand;
  std::vector<BigInt> s_mont;   // signatures, Montgomery form
  std::vector<BigInt> h_mont;   // FDH images, Montgomery form
  cand.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sigs[i].size() != pub.ModulusBytes()) continue;
    BigInt s = BigInt::FromBytes(sigs[i]);
    if (s.Compare(pub.n) >= 0) continue;
    cand.push_back(i);
    s_mont.push_back(mont.ToMont(s));
    h_mont.push_back(mont.ToMont(crypto::FdhHash(msgs[i], pub)));
  }
  if (cand.empty()) return valid;

  if (cand.size() == 1) {
    bool ok = mont.PowMod(mont.FromMont(s_mont[0]), pub.e) ==
              mont.FromMont(h_mont[0]);
    valid[cand[0]] = ok;
    std::lock_guard<std::mutex> lock(m_);
    stats_.full_verifies += 1;
    return valid;
  }

  // Small-exponents screen: accept the whole group iff
  //   (Π s_i^{r_i})^e ≡ Π H(m_i)^{r_i}   (mod n)
  // for fresh secret 32-bit exponents r_i. A cheating set of signatures
  // passes with probability <= 2^-32 (Bellare–Garay–Rabin). Both
  // products are computed by Straus interleaving: 32 shared squarings
  // for the whole group plus one multiply per set exponent bit. The
  // group then costs one full verification instead of one per item (the
  // count bench_server_scaling Part B gates); in time the products cost
  // more than k per-item verifies at e = 65537 (see batch_verifier.h).
  std::vector<std::uint32_t> r(cand.size());
  for (auto& ri : r) {
    std::uint8_t buf[4];
    rng->Fill(buf, sizeof(buf));
    ri = (static_cast<std::uint32_t>(buf[0]) << 24) |
         (static_cast<std::uint32_t>(buf[1]) << 16) |
         (static_cast<std::uint32_t>(buf[2]) << 8) |
         static_cast<std::uint32_t>(buf[3]);
    if (ri == 0) ri = 1;  // a zero exponent would drop the item entirely
  }

  BigInt acc_s = mont.ToMont(BigInt(1));
  BigInt acc_h = mont.ToMont(BigInt(1));
  for (int bit = 31; bit >= 0; --bit) {
    acc_s = mont.MulMont(acc_s, acc_s);
    acc_h = mont.MulMont(acc_h, acc_h);
    for (std::size_t j = 0; j < cand.size(); ++j) {
      if ((r[j] >> bit) & 1u) {
        acc_s = mont.MulMont(acc_s, s_mont[j]);
        acc_h = mont.MulMont(acc_h, h_mont[j]);
      }
    }
  }
  bool screen_ok = mont.PowMod(mont.FromMont(acc_s), pub.e) ==
                   mont.FromMont(acc_h);
  {
    std::lock_guard<std::mutex> lock(m_);
    stats_.screened_groups += 1;
    stats_.full_verifies += 1;
  }
  if (screen_ok) {
    for (std::size_t i : cand) valid[i] = true;
    return valid;
  }

  // Screen failed: at least one signature is bad. Fall back to per-item
  // verification so the good items still go through and the bad ones are
  // identified — soundness never depends on the screen accepting.
  std::uint64_t fallback_verifies = 0;
  for (std::size_t j = 0; j < cand.size(); ++j) {
    valid[cand[j]] = mont.PowMod(mont.FromMont(s_mont[j]), pub.e) ==
                     mont.FromMont(h_mont[j]);
    ++fallback_verifies;
  }
  std::lock_guard<std::mutex> lock(m_);
  stats_.screen_failures += 1;
  stats_.full_verifies += fallback_verifies;
  return valid;
}

bool BatchVerifier::VerifyPseudonymCert(
    const crypto::RsaPublicKey& ca_key,
    const core::PseudonymCertificate& cert) {
  std::pair<rel::KeyFingerprint, rel::KeyFingerprint> key{
      ca_key.Fingerprint(), crypto::Sha256::Hash(cert.Serialize())};
  {
    std::lock_guard<std::mutex> lock(m_);
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
