#include "crypto/drbg.h"

#include <algorithm>
#include <random>

namespace p2drm {
namespace crypto {

HmacDrbg::HmacDrbg(const std::vector<std::uint8_t>& seed)
    : key_(Digest256{}.data(), Digest256{}.size()) {  // K = 0x00...00
  v_.fill(0x01);                                      // V = 0x01...01
  UpdateState(seed.data(), seed.size());
}

HmacDrbg::HmacDrbg(const std::string& seed_label)
    : HmacDrbg(std::vector<std::uint8_t>(seed_label.begin(),
                                         seed_label.end())) {}

void HmacDrbg::UpdateState(const std::uint8_t* provided, std::size_t len) {
  // Round r (0, then 1 only when provided is non-empty):
  //   K = HMAC(K, V || r || provided); V = HMAC(K, V)
  for (std::uint8_t round = 0; round < 2; ++round) {
    Sha256 inner = key_.Begin();
    inner.Update(v_.data(), v_.size());
    inner.Update(&round, 1);
    inner.Update(provided, len);
    const Digest256 k = key_.Finish(&inner);
    key_ = HmacSha256Key(k.data(), k.size());
    v_ = key_.Mac(v_.data(), v_.size());
    if (len == 0) return;
  }
}

void HmacDrbg::Reseed(const std::vector<std::uint8_t>& material) {
  UpdateState(material.data(), material.size());
}

HmacDrbg HmacDrbg::Fork(const std::vector<std::uint8_t>& domain_tag) {
  return ForkRandom(this, domain_tag);
}

HmacDrbg HmacDrbg::Fork(const std::string& domain_tag) {
  return ForkRandom(this,
                    std::vector<std::uint8_t>(domain_tag.begin(),
                                              domain_tag.end()));
}

HmacDrbg ForkRandom(bignum::RandomSource* parent,
                    const std::vector<std::uint8_t>& domain_tag) {
  // Child seed = 32 parent bytes ‖ domain tag. The fixed-width entropy
  // prefix keeps (entropy, tag) pairs unambiguous, and HMAC-DRBG
  // instantiation mixes both through HMAC, so children with distinct
  // tags are computationally independent even under one parent state.
  std::vector<std::uint8_t> seed(32 + domain_tag.size());
  parent->Fill(seed.data(), 32);
  std::copy(domain_tag.begin(), domain_tag.end(), seed.begin() + 32);
  return HmacDrbg(seed);
}

void HmacDrbg::Fill(std::uint8_t* out, std::size_t len) {
  std::size_t produced = 0;
  while (produced < len) {
    v_ = key_.Mac(v_.data(), v_.size());
    const std::size_t take = std::min<std::size_t>(v_.size(), len - produced);
    std::copy(v_.begin(), v_.begin() + take, out + produced);
    produced += take;
  }
  UpdateState(nullptr, 0);
}

void SystemRandom::Fill(std::uint8_t* out, std::size_t len) {
  static thread_local std::random_device rd;
  std::size_t i = 0;
  while (i < len) {
    unsigned int v = rd();
    for (std::size_t b = 0; b < sizeof(v) && i < len; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

}  // namespace crypto
}  // namespace p2drm
