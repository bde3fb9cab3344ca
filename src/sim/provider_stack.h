#ifndef P2DRM_SIM_PROVIDER_STACK_H_
#define P2DRM_SIM_PROVIDER_STACK_H_

/// \file provider_stack.h
/// \brief One deterministic full provider stack — CA, TTP, bank, content
/// provider, smartcard — for tests and benches that drive the issuance
/// pipeline end to end.
///
/// Everything is seeded from one named HmacDrbg, so two stacks built
/// from the same seed and driven through the same call sequence hold
/// bit-identical keys, coins and licenses. That is the property the
/// pipeline's serial-vs-parallel comparisons (tests/pipeline_test.cpp)
/// and the scaling bench's per-shard-count runs rely on. Setup failures
/// throw std::runtime_error: a gtest binary reports that as a test
/// failure, a bench dies loudly.

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/certification_authority.h"
#include "core/content_provider.h"
#include "core/smartcard.h"
#include "core/ttp.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"

namespace p2drm {
namespace sim {

struct ProviderStack {
  static constexpr const char* kAccount = "pat";

  ProviderStack(const std::string& seed, std::size_t redeem_shards,
                std::size_t key_bits = 512, std::size_t queue_capacity = 4096,
                std::size_t signer_pool_size = 0)
      : rng(seed),
        ca(key_bits, &rng),
        ttp(key_bits, &rng),
        bank(key_bits, &rng),
        cp(Config(redeem_shards, key_bits, queue_capacity, signer_pool_size),
           &rng, &clock, &bank, ca.PublicKey()),
        card("Pat", key_bits, &rng) {
    card.StoreIdentityCertificate(ca.Enrol("Pat", card.MasterKey()));
    bank.OpenAccount(kAccount, 1u << 20);
    content = cp.Publish("Album", std::vector<std::uint8_t>(64, 0x5a), 30,
                         rel::Rights::FullRetail());
  }

  static core::ContentProviderConfig Config(
      std::size_t redeem_shards, std::size_t key_bits,
      std::size_t queue_capacity = 4096, std::size_t signer_pool_size = 0) {
    core::ContentProviderConfig c;
    c.signing_key_bits = key_bits;
    c.redeem_shards = redeem_shards;
    c.redeem_queue_capacity = queue_capacity;
    c.signer_pool_size = signer_pool_size;
    return c;
  }

  /// Buys one key-bound license for \p p (status-checked).
  rel::License NewBoundLicense(core::Pseudonym* p) {
    auto bought = cp.Purchase(p->cert, content, Pay(30));
    if (bought.status != core::Status::kOk) {
      throw std::runtime_error("ProviderStack: purchase failed");
    }
    return bought.license;
  }

  /// Possession proof for exchanging \p license (signed by \p p's key).
  std::vector<std::uint8_t> PossessionSig(core::Pseudonym* p,
                                          const rel::License& license) {
    return card.SignWithPseudonym(
        p->cert.KeyId(),
        core::ContentProvider::TransferChallengeBytes(license.id));
  }

  core::Pseudonym* NewPseudonym() {
    core::PseudonymRequest req =
        card.BeginPseudonym(ca.PublicKey(), ttp.EscrowKey());
    bignum::BigInt sig =
        ca.SignPseudonymBlinded(card.CardId(), req.blinding.blinded);
    core::Pseudonym* p =
        card.FinishPseudonym(std::move(req), sig, ca.PublicKey());
    if (p == nullptr) {
      throw std::runtime_error("ProviderStack: pseudonym setup failed");
    }
    return p;
  }

  /// Withdraws and unblinds coins summing to \p amount.
  std::vector<core::Coin> Pay(std::uint64_t amount) {
    std::vector<core::Coin> coins;
    for (auto d : core::PlanCoins(amount)) {
      core::Coin coin;
      rng.Fill(coin.serial.data(), coin.serial.size());
      coin.denomination = d;
      const auto& key = bank.DenominationKey(d);
      auto ctx = crypto::BlindMessage(key, coin.CanonicalBytes(), &rng);
      bignum::BigInt blind_sig;
      if (bank.Withdraw(kAccount, d, ctx.blinded, &blind_sig) !=
          core::Status::kOk) {
        throw std::runtime_error("ProviderStack: withdraw failed");
      }
      coin.signature = crypto::Unblind(key, ctx, blind_sig);
      coins.push_back(coin);
    }
    return coins;
  }

  /// Buys and exchanges one license, returning the anonymous bearer.
  rel::License NewBearer(core::Pseudonym* p) {
    auto bought = cp.Purchase(p->cert, content, Pay(30));
    if (bought.status != core::Status::kOk) {
      throw std::runtime_error("ProviderStack: purchase failed");
    }
    auto sig = card.SignWithPseudonym(
        p->cert.KeyId(),
        core::ContentProvider::TransferChallengeBytes(bought.license.id));
    auto exch = cp.ExchangeForAnonymous(bought.license, sig);
    if (exch.status != core::Status::kOk) {
      throw std::runtime_error("ProviderStack: exchange failed");
    }
    return exch.anonymous_license;
  }

  crypto::HmacDrbg rng;
  core::SimClock clock;
  core::CertificationAuthority ca;
  core::TrustedThirdParty ttp;
  core::PaymentProvider bank;
  core::ContentProvider cp;
  core::SmartCard card;
  rel::ContentId content = 0;
};

}  // namespace sim
}  // namespace p2drm

#endif  // P2DRM_SIM_PROVIDER_STACK_H_
