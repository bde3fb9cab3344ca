// Byte-identity pin for everything the provider signs. The digests
// below were computed before the issue stage's caller-joins-the-pool
// scheduling and the dedicated Montgomery squaring kernel landed; both
// are exact (which thread signs an item, and how a square is computed,
// must not move a single issued byte), and any later refactor of the
// issue path must keep them too. A digest change here means issued
// licenses or signatures changed under a fixed seed — never update it
// to make a refactor pass.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/content_provider.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace {

TEST(IssuedBytesPin, RsaFdhSignaturesFromAFixedSeedKey) {
  // 2048-bit CRT signing runs its 1024-bit halves on the fixed width-16
  // kernels: every window squaring of both exponents hits the new code.
  crypto::HmacDrbg rng("issued-bytes-pin/rsa-2048");
  const crypto::RsaPrivateKey key = crypto::GenerateRsaKey(2048, &rng);
  crypto::Sha256 h;
  for (int i = 0; i < 32; ++i) {
    const std::string msg = "issued-bytes-pin/message/" + std::to_string(i);
    const std::vector<std::uint8_t> sig =
        crypto::RsaSignFdh(key, std::vector<std::uint8_t>(msg.begin(),
                                                          msg.end()));
    ASSERT_TRUE(crypto::RsaVerifyFdh(
        key.PublicKey(), std::vector<std::uint8_t>(msg.begin(), msg.end()),
        sig));
    h.Update(sig);
  }
  EXPECT_EQ(crypto::DigestToHex(h.Final()),
            "53f5e34d96787b976fa59f1ed0dc36f037d6ed28972a3f98cfb1477655e89217");
}

TEST(IssuedBytesPin, RedeemBatchThroughAThreeWorkerSignerPool) {
  // 1024-bit stack keys, so license and transcript signing run 512-bit
  // CRT halves on the fixed width-8 kernels; the batch is dealt to the
  // pool through SignerPool::Run, where the calling thread signs
  // alongside the three workers.
  sim::ProviderStack stack("issued-bytes-pin/redeem", /*redeem_shards=*/2,
                           /*key_bits=*/1024, /*queue_capacity=*/4096,
                           /*signer_pool_size=*/3);
  ASSERT_NE(stack.cp.Pool(), nullptr);
  core::Pseudonym* giver = stack.NewPseudonym();
  core::Pseudonym* taker = stack.NewPseudonym();
  std::vector<core::ContentProvider::RedeemItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back({stack.NewBearer(giver), taker->cert});
  }

  const auto out = stack.cp.RedeemAnonymousBatch(items);
  ASSERT_EQ(out.size(), items.size());
  crypto::Sha256 h;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].status, core::Status::kOk) << "item " << i;
    h.Update(out[i].license.Serialize());
    const auto transcript =
        stack.cp.TranscriptFor(items[i].anonymous_license.id);
    ASSERT_TRUE(transcript.has_value()) << "item " << i;
    h.Update(transcript->Serialize());
  }
  EXPECT_EQ(crypto::DigestToHex(h.Final()),
            "be2865e228de2ed5814d0e8c7a9f0f63432d30ca580fbefb9b691e4cd58b28a4");
}

TEST(IssuedBytesPin, DoubleRedemptionEvidence) {
  // The fraud evidence a TTP receives, byte for byte: ids double-redeemed
  // across batches, one id double-redeemed inside the batch that first
  // redeems it, a third redemption of an id whose first record is already
  // evidence, and two doubles of one id in the same later batch. Same
  // 1024-bit stack keys and three-worker pool as above.
  sim::ProviderStack stack("issued-bytes-pin/evidence", /*redeem_shards=*/2,
                           /*key_bits=*/1024, /*queue_capacity=*/4096,
                           /*signer_pool_size=*/3);
  ASSERT_NE(stack.cp.Pool(), nullptr);
  core::Pseudonym* giver = stack.NewPseudonym();
  core::Pseudonym* first_taker = stack.NewPseudonym();
  core::Pseudonym* cheater = stack.NewPseudonym();
  core::Pseudonym* third = stack.NewPseudonym();
  std::vector<rel::License> bearers;
  for (int i = 0; i < 5; ++i) bearers.push_back(stack.NewBearer(giver));

  using Items = std::vector<core::ContentProvider::RedeemItem>;
  const Items batch1 = {{bearers[0], first_taker->cert},
                        {bearers[1], first_taker->cert},
                        {bearers[2], first_taker->cert}};
  const Items batch2 = {{bearers[0], cheater->cert},
                        {bearers[3], first_taker->cert},
                        {bearers[1], cheater->cert},
                        {bearers[3], cheater->cert},
                        {bearers[4], first_taker->cert}};
  const Items batch3 = {{bearers[0], third->cert},
                        {bearers[4], cheater->cert},
                        {bearers[2], cheater->cert},
                        {bearers[2], third->cert}};
  const std::vector<std::vector<core::Status>> want = {
      {core::Status::kOk, core::Status::kOk, core::Status::kOk},
      {core::Status::kAlreadySpent, core::Status::kOk,
       core::Status::kAlreadySpent, core::Status::kAlreadySpent,
       core::Status::kOk},
      {core::Status::kAlreadySpent, core::Status::kAlreadySpent,
       core::Status::kAlreadySpent, core::Status::kAlreadySpent}};

  const std::vector<const Items*> batches = {&batch1, &batch2, &batch3};
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (b > 0) stack.clock.Advance(60);
    const auto out = stack.cp.RedeemAnonymousBatch(*batches[b]);
    ASSERT_EQ(out.size(), want[b].size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].status, want[b][i]) << "batch " << b << " item " << i;
    }
  }

  const std::vector<core::FraudEvidence> evidence =
      stack.cp.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 7u);
  crypto::Sha256 h;
  for (const core::FraudEvidence& e : evidence) h.Update(e.Serialize());
  EXPECT_EQ(crypto::DigestToHex(h.Final()),
            "13ecdc61a761c90b7b0dc97c1e2e72568136a6245758e405d7fee64a35113658");
}

}  // namespace
}  // namespace p2drm
