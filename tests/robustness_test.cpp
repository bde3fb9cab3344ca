// Robustness: hostile bytes must never crash a parser — every decoder
// either round-trips valid input or throws a typed error. The content
// provider's endpoints face the open network in this design, so decoder
// discipline is a security property, not a nicety.

#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/certificates.h"
#include "core/delegation.h"
#include "core/payment.h"
#include "core/protocol.h"
#include "core/receipts.h"
#include "core/system.h"
#include "core/ttp.h"
#include "crypto/drbg.h"
#include "net/rpc.h"
#include "rel/license.h"

namespace p2drm {
namespace {

using crypto::HmacDrbg;

/// Feeds len-bounded random buffers to a parser and requires it to either
/// succeed or throw something derived from std::exception — never crash,
/// never hang, never UB (the CI asan-ubsan and tsan jobs run this file
/// under sanitizers).
template <typename Fn>
void Hammer(const std::string& seed, Fn parse, int rounds = 300) {
  HmacDrbg rng("robustness-" + seed);
  for (int i = 0; i < rounds; ++i) {
    std::size_t len = static_cast<std::size_t>(rng.NextUint64(512));
    std::vector<std::uint8_t> buf = rng.Bytes(len);
    try {
      parse(buf);
    } catch (const std::exception&) {
      // Typed failure is the expected outcome for garbage.
    }
  }
}

TEST(Robustness, LicenseDeserializeNeverCrashes) {
  Hammer("license", [](const std::vector<std::uint8_t>& b) {
    (void)rel::License::Deserialize(b);
  });
}

TEST(Robustness, CertificatesNeverCrash) {
  Hammer("identity", [](const std::vector<std::uint8_t>& b) {
    (void)core::IdentityCertificate::Deserialize(b);
  });
  Hammer("pseudonym", [](const std::vector<std::uint8_t>& b) {
    (void)core::PseudonymCertificate::Deserialize(b);
  });
  Hammer("device", [](const std::vector<std::uint8_t>& b) {
    (void)core::DeviceCertificate::Deserialize(b);
  });
}

TEST(Robustness, CoinAndTranscriptNeverCrash) {
  Hammer("coin", [](const std::vector<std::uint8_t>& b) {
    (void)core::Coin::Deserialize(b);
  });
  Hammer("transcript", [](const std::vector<std::uint8_t>& b) {
    (void)core::RedemptionTranscript::Deserialize(b);
  });
  Hammer("evidence", [](const std::vector<std::uint8_t>& b) {
    (void)core::FraudEvidence::Deserialize(b);
  });
}

TEST(Robustness, DelegationAndReceiptsNeverCrash) {
  Hammer("delegation", [](const std::vector<std::uint8_t>& b) {
    (void)core::DelegationLicense::Deserialize(b);
  });
  Hammer("order", [](const std::vector<std::uint8_t>& b) {
    (void)core::PurchaseOrder::Deserialize(b);
  });
  Hammer("receipt", [](const std::vector<std::uint8_t>& b) {
    (void)core::PurchaseReceipt::Deserialize(b);
  });
}

TEST(Robustness, HybridCiphertextNeverCrashes) {
  Hammer("hybrid", [](const std::vector<std::uint8_t>& b) {
    (void)crypto::HybridCiphertext::Deserialize(b);
  });
}

TEST(Robustness, EndpointsSurviveGarbageRequests) {
  // The real attack surface: random bytes straight into every endpoint.
  // Since the RPC redesign the server never throws — every garbage buffer
  // must come back as a well-formed response envelope with an error
  // status.
  HmacDrbg rng("endpoint-garbage");
  core::SystemConfig cfg;
  cfg.ca_key_bits = 512;
  cfg.ttp_key_bits = 512;
  cfg.bank_key_bits = 512;
  cfg.cp.signing_key_bits = 512;
  core::P2drmSystem system(cfg, &rng);
  system.cp().Publish("X", {1, 2, 3}, 1, rel::Rights::FullRetail());

  const char* endpoints[] = {
      core::P2drmSystem::kCaEndpoint, core::P2drmSystem::kBankEndpoint,
      core::P2drmSystem::kCpEndpoint, core::P2drmSystem::kTtpEndpoint};
  int rejected = 0;
  int total = 0;
  for (int i = 0; i < 400; ++i) {
    std::size_t len = static_cast<std::size_t>(rng.NextUint64(256));
    std::vector<std::uint8_t> buf = rng.Bytes(len);
    for (const char* ep : endpoints) {
      ++total;
      std::vector<std::uint8_t> raw;
      ASSERT_TRUE(system.transport().TryCall("fuzzer", ep, buf, &raw));
      net::ResponseEnvelope resp;
      ASSERT_NO_THROW(resp = net::ResponseEnvelope::Decode(raw));
      if (resp.status != core::Status::kOk) ++rejected;
    }
  }
  // Every random buffer must be rejected with a typed status (a random
  // buffer essentially never forms a valid versioned envelope whose
  // payload also decodes as a real request).
  EXPECT_EQ(rejected, total);

  // The system still works afterwards.
  core::AgentConfig acfg;
  acfg.pseudonym_bits = 512;
  core::UserAgent alice("alice", acfg, &system, &rng);
  EXPECT_EQ(alice.BuyContent(1, nullptr), core::Status::kOk);
}

TEST(Robustness, TruncationSweepOnValidLicense) {
  // Every strict prefix of a valid encoding must throw, not mis-parse.
  HmacDrbg rng("truncate");
  rel::License lic;
  rng.Fill(lic.id.bytes.data(), lic.id.bytes.size());
  lic.content_id = 7;
  lic.rights = rel::Rights::FullRetail();
  lic.wrapped_content_key = rng.Bytes(64);
  lic.issuer_signature = rng.Bytes(64);
  auto bytes = lic.Serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW((void)rel::License::Deserialize(prefix), net::CodecError)
        << "prefix length " << cut;
  }
  // The full encoding parses.
  EXPECT_NO_THROW((void)rel::License::Deserialize(bytes));
}

TEST(Robustness, BitFlipSweepOnValidLicenseSignature) {
  // Any single-bit flip anywhere in the serialized license must be caught
  // by signature verification (or fail to parse).
  HmacDrbg rng("bitflip");
  crypto::RsaPrivateKey key = crypto::GenerateRsaKey(512, &rng);
  rel::License lic;
  rng.Fill(lic.id.bytes.data(), lic.id.bytes.size());
  lic.content_id = 9;
  lic.rights = rel::Rights::MeteredPlay(3);
  lic.wrapped_content_key = rng.Bytes(32);
  lic.issuer_signature = crypto::RsaSignFdh(key, lic.CanonicalBytes());
  auto bytes = lic.Serialize();

  for (std::size_t byte = 0; byte < bytes.size(); byte += 7) {
    auto mutated = bytes;
    mutated[byte] ^= 0x04;
    try {
      rel::License parsed = rel::License::Deserialize(mutated);
      EXPECT_FALSE(crypto::RsaVerifyFdh(key.PublicKey(),
                                        parsed.CanonicalBytes(),
                                        parsed.issuer_signature))
          << "flip at byte " << byte << " survived verification";
    } catch (const std::exception&) {
      // Parse rejection is equally acceptable.
    }
  }
}

}  // namespace
}  // namespace p2drm
