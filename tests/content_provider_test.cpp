// Content provider: purchase, anonymous exchange/redeem, fraud, journal.

#include "core/content_provider.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core/certification_authority.h"
#include "core/metrics.h"
#include "core/smartcard.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "server/server_runtime.h"
#include "sim/provider_stack.h"
#include "store/append_log.h"

namespace p2drm {
namespace core {
namespace {

class ContentProviderTest : public ::testing::Test {
 protected:
  ContentProviderTest()
      : rng_("cp-test"),
        ca_(512, &rng_),
        ttp_(512, &rng_),
        bank_(512, &rng_),
        cp_(Config(), &rng_, &clock_, &bank_, ca_.PublicKey()),
        card_("Carol", 512, &rng_) {
    card_.StoreIdentityCertificate(ca_.Enrol("Carol", card_.MasterKey()));
    bank_.OpenAccount("carol", 1000);
    content_ = cp_.Publish("Album", std::vector<std::uint8_t>(100, 0x5a), 30,
                           rel::Rights::FullRetail());
  }

  static ContentProviderConfig Config() {
    ContentProviderConfig c;
    c.signing_key_bits = 512;
    return c;
  }

  Pseudonym* NewPseudonym() { return NewPseudonym(&card_); }

  Pseudonym* NewPseudonym(SmartCard* card) {
    PseudonymRequest req =
        card->BeginPseudonym(ca_.PublicKey(), ttp_.EscrowKey());
    bignum::BigInt sig =
        ca_.SignPseudonymBlinded(card->CardId(), req.blinding.blinded);
    return card->FinishPseudonym(std::move(req), sig, ca_.PublicKey());
  }

  Coin WithdrawCoin(std::uint32_t denom) {
    Coin coin;
    rng_.Fill(coin.serial.data(), coin.serial.size());
    coin.denomination = denom;
    const auto& key = bank_.DenominationKey(denom);
    auto ctx = crypto::BlindMessage(key, coin.CanonicalBytes(), &rng_);
    bignum::BigInt blind_sig;
    EXPECT_EQ(bank_.Withdraw("carol", denom, ctx.blinded, &blind_sig),
              Status::kOk);
    coin.signature = crypto::Unblind(key, ctx, blind_sig);
    return coin;
  }

  std::vector<Coin> Pay(std::uint64_t amount) {
    std::vector<Coin> coins;
    for (auto d : PlanCoins(amount)) coins.push_back(WithdrawCoin(d));
    return coins;
  }

  crypto::HmacDrbg rng_;
  SimClock clock_;
  CertificationAuthority ca_;
  TrustedThirdParty ttp_;
  PaymentProvider bank_;
  ContentProvider cp_;
  SmartCard card_;
  rel::ContentId content_ = 0;
};

TEST_F(ContentProviderTest, CatalogAndContent) {
  auto offers = cp_.Catalog();
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].title, "Album");
  EXPECT_EQ(offers[0].price, 30u);
  EXPECT_TRUE(cp_.FindOffer(content_).has_value());
  EXPECT_FALSE(cp_.FindOffer(999).has_value());
  const auto& enc = cp_.GetContent(content_);
  EXPECT_EQ(enc.ciphertext.size(), 100u);
  // Published content is actually encrypted.
  EXPECT_NE(enc.ciphertext, std::vector<std::uint8_t>(100, 0x5a));
  EXPECT_THROW(cp_.GetContent(999), std::out_of_range);
}

TEST_F(ContentProviderTest, SuccessfulAnonymousPurchase) {
  Pseudonym* p = NewPseudonym();
  auto result = cp_.Purchase(p->cert, content_, Pay(30));
  ASSERT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.license.kind, rel::LicenseKind::kUserBound);
  EXPECT_EQ(result.license.content_id, content_);
  EXPECT_EQ(result.license.bound_key, p->cert.KeyId());
  EXPECT_FALSE(result.license.wrapped_content_key.empty());
  EXPECT_TRUE(crypto::RsaVerifyFdh(cp_.PublicKey(),
                                   result.license.CanonicalBytes(),
                                   result.license.issuer_signature));
  EXPECT_EQ(cp_.LicensesIssued(), 1u);
  EXPECT_EQ(bank_.Balance("carol"), 970u);
}

TEST_F(ContentProviderTest, PurchaseRejectsWrongPrice) {
  Pseudonym* p = NewPseudonym();
  EXPECT_EQ(cp_.Purchase(p->cert, content_, Pay(20)).status,
            Status::kWrongPrice);
  EXPECT_EQ(cp_.Purchase(p->cert, content_, Pay(40)).status,
            Status::kWrongPrice);
}

TEST_F(ContentProviderTest, PurchaseRejectsBadCertificate) {
  Pseudonym* p = NewPseudonym();
  PseudonymCertificate forged = p->cert;
  forged.escrow.push_back(0);  // breaks the CA signature
  EXPECT_EQ(cp_.Purchase(forged, content_, Pay(30)).status,
            Status::kBadCertificate);
}

TEST_F(ContentProviderTest, PurchaseRejectsUnknownContent) {
  Pseudonym* p = NewPseudonym();
  EXPECT_EQ(cp_.Purchase(p->cert, 999, Pay(30)).status,
            Status::kUnknownContent);
}

TEST_F(ContentProviderTest, PurchaseRejectsDoubleSpentCoin) {
  Pseudonym* p = NewPseudonym();
  auto coins = Pay(30);
  ASSERT_EQ(cp_.Purchase(p->cert, content_, coins).status, Status::kOk);
  // Replaying the same coins fails at the bank.
  EXPECT_EQ(cp_.Purchase(p->cert, content_, coins).status,
            Status::kDoubleSpend);
}

TEST_F(ContentProviderTest, PurchaseRejectsRevokedPseudonym) {
  Pseudonym* p = NewPseudonym();
  cp_.Revoke(p->cert.KeyId());
  EXPECT_EQ(cp_.Purchase(p->cert, content_, Pay(30)).status,
            Status::kRevoked);
}

TEST_F(ContentProviderTest, ExchangeProducesAnonymousLicense) {
  Pseudonym* p = NewPseudonym();
  auto bought = cp_.Purchase(p->cert, content_, Pay(30));
  ASSERT_EQ(bought.status, Status::kOk);

  auto sig = card_.SignWithPseudonym(
      p->cert.KeyId(),
      ContentProvider::TransferChallengeBytes(bought.license.id));
  auto exch = cp_.ExchangeForAnonymous(bought.license, sig);
  ASSERT_EQ(exch.status, Status::kOk);
  EXPECT_EQ(exch.anonymous_license.kind, rel::LicenseKind::kAnonymous);
  EXPECT_EQ(exch.anonymous_license.content_id, content_);
  EXPECT_TRUE(exch.anonymous_license.wrapped_content_key.empty());
  EXPECT_NE(exch.anonymous_license.id, bought.license.id);
  // Old license id is now spent: exchanging again fails.
  EXPECT_EQ(cp_.ExchangeForAnonymous(bought.license, sig).status,
            Status::kAlreadySpent);
}

TEST_F(ContentProviderTest, ExchangeRejectsWrongPossession) {
  Pseudonym* p = NewPseudonym();
  Pseudonym* other = NewPseudonym();
  auto bought = cp_.Purchase(p->cert, content_, Pay(30));
  ASSERT_EQ(bought.status, Status::kOk);
  // Buy with `other` too, so its key is registered with the CP.
  ASSERT_EQ(cp_.Purchase(other->cert, content_, Pay(30)).status, Status::kOk);

  // Signature by the wrong pseudonym is rejected.
  auto bad_sig = card_.SignWithPseudonym(
      other->cert.KeyId(),
      ContentProvider::TransferChallengeBytes(bought.license.id));
  EXPECT_EQ(cp_.ExchangeForAnonymous(bought.license, bad_sig).status,
            Status::kBadSignature);
}

TEST_F(ContentProviderTest, ExchangeRejectsNonTransferableRights) {
  rel::ContentId rental = cp_.Publish(
      "Rental", std::vector<std::uint8_t>(10, 1), 5, rel::Rights::Rental(99));
  Pseudonym* p = NewPseudonym();
  auto bought = cp_.Purchase(p->cert, rental, Pay(5));
  ASSERT_EQ(bought.status, Status::kOk);
  auto sig = card_.SignWithPseudonym(
      p->cert.KeyId(),
      ContentProvider::TransferChallengeBytes(bought.license.id));
  EXPECT_EQ(cp_.ExchangeForAnonymous(bought.license, sig).status,
            Status::kNotTransferable);
}

TEST_F(ContentProviderTest, ExchangeRejectsForgedLicense) {
  Pseudonym* p = NewPseudonym();
  auto bought = cp_.Purchase(p->cert, content_, Pay(30));
  ASSERT_EQ(bought.status, Status::kOk);
  rel::License forged = bought.license;
  forged.rights.play_count = 1;  // tamper
  auto sig = card_.SignWithPseudonym(
      p->cert.KeyId(), ContentProvider::TransferChallengeBytes(forged.id));
  EXPECT_EQ(cp_.ExchangeForAnonymous(forged, sig).status,
            Status::kBadSignature);
}

TEST_F(ContentProviderTest, RedeemBindsToTakerAndSpendsOnce) {
  Pseudonym* giver = NewPseudonym();
  auto bought = cp_.Purchase(giver->cert, content_, Pay(30));
  ASSERT_EQ(bought.status, Status::kOk);
  auto sig = card_.SignWithPseudonym(
      giver->cert.KeyId(),
      ContentProvider::TransferChallengeBytes(bought.license.id));
  auto exch = cp_.ExchangeForAnonymous(bought.license, sig);
  ASSERT_EQ(exch.status, Status::kOk);

  Pseudonym* taker = NewPseudonym();
  auto redeemed = cp_.RedeemAnonymous(exch.anonymous_license, taker->cert);
  ASSERT_EQ(redeemed.status, Status::kOk);
  EXPECT_EQ(redeemed.license.kind, rel::LicenseKind::kUserBound);
  EXPECT_EQ(redeemed.license.bound_key, taker->cert.KeyId());
  EXPECT_FALSE(redeemed.license.wrapped_content_key.empty());

  // Second redemption: detected, fraud evidence produced.
  Pseudonym* cheater = NewPseudonym();
  auto again = cp_.RedeemAnonymous(exch.anonymous_license, cheater->cert);
  EXPECT_EQ(again.status, Status::kAlreadySpent);
  EXPECT_EQ(cp_.DoubleRedemptionAttempts(), 1u);
  auto evidence = cp_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].first.license_id, exch.anonymous_license.id);
  // Queue drained.
  EXPECT_TRUE(cp_.TakeFraudEvidence().empty());
}

TEST_F(ContentProviderTest, RedeemRejectsNonAnonymousLicense) {
  Pseudonym* p = NewPseudonym();
  auto bought = cp_.Purchase(p->cert, content_, Pay(30));
  ASSERT_EQ(bought.status, Status::kOk);
  EXPECT_EQ(cp_.RedeemAnonymous(bought.license, p->cert).status,
            Status::kBadRequest);
}

TEST_F(ContentProviderTest, FraudEvidenceConvincesTtp) {
  Pseudonym* giver = NewPseudonym();
  auto bought = cp_.Purchase(giver->cert, content_, Pay(30));
  auto sig = card_.SignWithPseudonym(
      giver->cert.KeyId(),
      ContentProvider::TransferChallengeBytes(bought.license.id));
  auto exch = cp_.ExchangeForAnonymous(bought.license, sig);
  ASSERT_EQ(exch.status, Status::kOk);

  Pseudonym* taker = NewPseudonym();
  clock_.Advance(10);
  ASSERT_EQ(cp_.RedeemAnonymous(exch.anonymous_license, taker->cert).status,
            Status::kOk);
  clock_.Advance(10);
  Pseudonym* cheat = NewPseudonym();
  ASSERT_EQ(cp_.RedeemAnonymous(exch.anonymous_license, cheat->cert).status,
            Status::kAlreadySpent);

  auto evidence = cp_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  auto opened = ttp_.OpenEscrow(evidence[0], cp_.PublicKey());
  ASSERT_TRUE(opened.opened) << opened.reason;
  EXPECT_EQ(opened.card_id, card_.CardId());
}

TEST_F(ContentProviderTest, SpentJournalSurvivesRestart) {
  std::string journal = testing::TempDir() + "cp_journal_test.log";
  // The journal lives in shard segments (<journal>.shard<k>). A segment
  // left behind by an earlier run would already hold this fixed-seed id,
  // so every segment goes, and so does a file at the bare path.
  auto cleanup = [&journal] {
    std::remove(journal.c_str());
    for (std::size_t k = 0; k < 8; ++k) {
      std::remove(server::ServerRuntime::SegmentPath(journal, k).c_str());
    }
  };
  cleanup();

  rel::LicenseId spent_id;
  {
    ContentProviderConfig cfg = Config();
    cfg.spent_journal_path = journal;
    ContentProvider cp(cfg, &rng_, &clock_, &bank_, ca_.PublicKey());
    rel::ContentId cid = cp.Publish("X", std::vector<std::uint8_t>(4, 1), 5,
                                    rel::Rights::FullRetail());
    Pseudonym* p = NewPseudonym();
    auto bought = cp.Purchase(p->cert, cid, Pay(5));
    ASSERT_EQ(bought.status, Status::kOk);
    auto sig = card_.SignWithPseudonym(
        p->cert.KeyId(),
        ContentProvider::TransferChallengeBytes(bought.license.id));
    ASSERT_EQ(cp.ExchangeForAnonymous(bought.license, sig).status,
              Status::kOk);
    spent_id = bought.license.id;
    EXPECT_EQ(cp.SpentSetSize(), 1u);
  }
  {
    // "Restart": a fresh provider instance rebuilds the spent set.
    ContentProviderConfig cfg = Config();
    cfg.spent_journal_path = journal;
    ContentProvider cp(cfg, &rng_, &clock_, &bank_, ca_.PublicKey());
    EXPECT_EQ(cp.SpentSetSize(), 1u);
  }
  cleanup();

  // A file at the path itself is where providers without a shard runtime
  // kept their journal. Only shard segments are replayed, so construction
  // refuses it instead of forgetting its spends.
  {
    store::AppendLog unsharded(journal);
    unsharded.Append(std::vector<std::uint8_t>(spent_id.bytes.begin(),
                                               spent_id.bytes.end()));
  }
  {
    ContentProviderConfig cfg = Config();
    cfg.spent_journal_path = journal;
    EXPECT_THROW(
        ContentProvider(cfg, &rng_, &clock_, &bank_, ca_.PublicKey()),
        std::runtime_error);
  }
  cleanup();
}

TEST_F(ContentProviderTest, DistinctPseudonymCounting) {
  Pseudonym* p1 = NewPseudonym();
  Pseudonym* p2 = NewPseudonym();
  cp_.Purchase(p1->cert, content_, Pay(30));
  cp_.Purchase(p2->cert, content_, Pay(30));
  cp_.Purchase(p1->cert, content_, Pay(30));
  EXPECT_EQ(cp_.DistinctPseudonymsSeen(), 2u);
}

// A redemption transcript is signed only when it becomes fraud evidence.
// The provider here has two redeem shards and a three-worker signer pool,
// so the issue stage reads the transcript map from signer threads (run
// this binary under TSan). Signatures are counted process-wide through
// AggregateOps(), so each delta covers the pool workers too.
class LazyTranscriptTest : public ContentProviderTest {
 protected:
  LazyTranscriptTest()
      : pooled_(PooledConfig(), &rng_, &clock_, &bank_, ca_.PublicKey()),
        cheat_card_("Mallory", 512, &rng_) {
    cheat_card_.StoreIdentityCertificate(
        ca_.Enrol("Mallory", cheat_card_.MasterKey()));
    pooled_content_ = pooled_.Publish(
        "Single", std::vector<std::uint8_t>(16, 0x3c), 30,
        rel::Rights::FullRetail());
    giver_ = NewPseudonym();
    taker_ = NewPseudonym();
  }

  static ContentProviderConfig PooledConfig() {
    ContentProviderConfig c = Config();
    c.redeem_shards = 2;
    c.signer_pool_size = 3;
    return c;
  }

  rel::License NewBearer() {
    auto bought = pooled_.Purchase(giver_->cert, pooled_content_, Pay(30));
    EXPECT_EQ(bought.status, Status::kOk);
    auto sig = card_.SignWithPseudonym(
        giver_->cert.KeyId(),
        ContentProvider::TransferChallengeBytes(bought.license.id));
    auto exch = pooled_.ExchangeForAnonymous(bought.license, sig);
    EXPECT_EQ(exch.status, Status::kOk);
    return exch.anonymous_license;
  }

  /// Runs \p items as one batch; returns the signatures it made.
  std::uint64_t SignsOf(const std::vector<ContentProvider::RedeemItem>& items,
                        std::vector<ContentProvider::PurchaseResult>* out) {
    const std::uint64_t before = AggregateOps().sign;
    *out = pooled_.RedeemAnonymousBatch(items);
    return AggregateOps().sign - before;
  }

  bool Signed(const RedemptionTranscript& t) const {
    return crypto::RsaVerifyFdh(pooled_.PublicKey(), t.CanonicalBytes(),
                                t.cp_signature);
  }

  /// Both transcripts verify and the TTP opens the cheater's escrow.
  void ExpectEvidenceNamesCheater(const FraudEvidence& e,
                                  const rel::LicenseId& id) {
    EXPECT_EQ(e.first.license_id, id);
    EXPECT_EQ(e.second.license_id, id);
    EXPECT_TRUE(Signed(e.first));
    EXPECT_TRUE(Signed(e.second));
    auto opened = ttp_.OpenEscrow(e, pooled_.PublicKey());
    ASSERT_TRUE(opened.opened) << opened.reason;
    EXPECT_EQ(opened.card_id, cheat_card_.CardId());
    EXPECT_NE(opened.card_id, card_.CardId());
  }

  ContentProvider pooled_;
  SmartCard cheat_card_;
  rel::ContentId pooled_content_ = 0;
  Pseudonym* giver_ = nullptr;
  Pseudonym* taker_ = nullptr;
};

TEST_F(LazyTranscriptTest, FreshRedeemBatchSignsOncePerItem) {
  std::vector<ContentProvider::RedeemItem> items;
  for (int i = 0; i < 6; ++i) items.push_back({NewBearer(), taker_->cert});

  std::vector<ContentProvider::PurchaseResult> out;
  EXPECT_EQ(SignsOf(items, &out), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].status, Status::kOk) << "item " << i;
    auto t = pooled_.TranscriptFor(items[i].anonymous_license.id);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(Signed(*t)) << "item " << i;
  }
  EXPECT_TRUE(pooled_.TakeFraudEvidence().empty());

  // The single-item path is a batch of one: one signature.
  const rel::License single = NewBearer();
  const std::uint64_t before = AggregateOps().sign;
  ASSERT_EQ(pooled_.RedeemAnonymous(single, taker_->cert).status, Status::kOk);
  EXPECT_EQ(AggregateOps().sign - before, 1u);
}

TEST_F(LazyTranscriptTest, FirstDoubleSignsTwiceAndLaterDoublesOnce) {
  const rel::License bearer = NewBearer();
  std::vector<ContentProvider::PurchaseResult> out;
  ASSERT_EQ(SignsOf({{bearer, taker_->cert}}, &out), 1u);
  ASSERT_EQ(out[0].status, Status::kOk);

  clock_.Advance(10);
  Pseudonym* cheat = NewPseudonym(&cheat_card_);
  EXPECT_EQ(SignsOf({{bearer, cheat->cert}}, &out), 2u);
  ASSERT_EQ(out[0].status, Status::kAlreadySpent);
  auto evidence = pooled_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  ExpectEvidenceNamesCheater(evidence[0], bearer.id);

  // The first record stays signed: a third redemption signs only its own
  // transcript, and the first half of its evidence is the same record.
  clock_.Advance(10);
  Pseudonym* again = NewPseudonym(&cheat_card_);
  EXPECT_EQ(SignsOf({{bearer, again->cert}}, &out), 1u);
  ASSERT_EQ(out[0].status, Status::kAlreadySpent);
  auto later = pooled_.TakeFraudEvidence();
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].first.Serialize(), evidence[0].first.Serialize());
  ExpectEvidenceNamesCheater(later[0], bearer.id);
  EXPECT_EQ(pooled_.DoubleRedemptionAttempts(), 2u);
}

TEST_F(LazyTranscriptTest, TwoDoublesInOneBatchSignTheFirstRecordOnce) {
  const rel::License bearer = NewBearer();
  std::vector<ContentProvider::PurchaseResult> out;
  ASSERT_EQ(SignsOf({{bearer, taker_->cert}}, &out), 1u);
  ASSERT_EQ(out[0].status, Status::kOk);

  // Both doubles sign their own transcripts; the stored first record is
  // still unsigned, and only the first double signs it: 3 signatures,
  // not 4. The second double takes the signed copy at commit.
  clock_.Advance(10);
  Pseudonym* cheat = NewPseudonym(&cheat_card_);
  Pseudonym* cheat2 = NewPseudonym(&cheat_card_);
  EXPECT_EQ(SignsOf({{bearer, cheat->cert}, {bearer, cheat2->cert}}, &out),
            3u);
  ASSERT_EQ(out[0].status, Status::kAlreadySpent);
  ASSERT_EQ(out[1].status, Status::kAlreadySpent);
  auto evidence = pooled_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 2u);
  ExpectEvidenceNamesCheater(evidence[0], bearer.id);
  ExpectEvidenceNamesCheater(evidence[1], bearer.id);
  EXPECT_EQ(evidence[0].first.Serialize(), evidence[1].first.Serialize());
  EXPECT_NE(evidence[0].second.Serialize(), evidence[1].second.Serialize());
  auto first = pooled_.TranscriptFor(bearer.id);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->Serialize(), evidence[0].first.Serialize());
  EXPECT_EQ(pooled_.DoubleRedemptionAttempts(), 2u);
}

TEST_F(LazyTranscriptTest, DoubleInsideTheFirstRedemptionsBatch) {
  const rel::License bearer = NewBearer();
  const rel::License other = NewBearer();
  Pseudonym* cheat = NewPseudonym(&cheat_card_);
  std::vector<ContentProvider::PurchaseResult> out;
  // Two fresh licenses, the double's own transcript, and the first
  // record, which the commit tail signs on the dispatch thread.
  EXPECT_EQ(SignsOf({{bearer, taker_->cert},
                     {other, taker_->cert},
                     {bearer, cheat->cert}},
                    &out),
            4u);
  EXPECT_EQ(out[0].status, Status::kOk);
  EXPECT_EQ(out[1].status, Status::kOk);
  EXPECT_EQ(out[2].status, Status::kAlreadySpent);
  auto evidence = pooled_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  ExpectEvidenceNamesCheater(evidence[0], bearer.id);
  auto first = pooled_.TranscriptFor(bearer.id);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->Serialize(), evidence[0].first.Serialize());
}


// -- verify fan-out equivalence ----------------------------------------------
//
// The verify stage fans its RSA checks out over the signer pool. These
// cases drive the same hostile exchange and redeem batches through
// providers with 0, 1 and 3 pool workers, built from one seed so their
// keys and licenses are bit-identical, and require the same per-item
// statuses, the same verifier-stat deltas and the same verify-op counts
// from each, at batch sizes that make one group, a few groups and groups
// of unequal length. The full-verify count is also pinned exactly: a
// possession proof (or a certificate) checked for an item that an
// earlier check had already rejected shows up as an extra verify.

constexpr std::size_t kFanOutPools[] = {0, 1, 3};
constexpr std::size_t kFanOutSizes[] = {1, 3, 8, 32, 33};

/// One provider stack per pool size, all from the same seed.
struct FanOutStacks {
  explicit FanOutStacks(const std::string& seed) {
    for (std::size_t workers : kFanOutPools) {
      stacks.push_back(std::make_unique<sim::ProviderStack>(
          seed, /*redeem_shards=*/2, 512, 4096, workers));
    }
  }
  std::vector<std::unique_ptr<sim::ProviderStack>> stacks;
};

/// A batch's verify-stage footprint on one provider.
struct VerifyDelta {
  server::BatchVerifierStats stats;
  std::uint64_t verify_ops = 0;
};

template <typename Run>
VerifyDelta MeasureVerify(sim::ProviderStack& st, const Run& run) {
  const server::BatchVerifierStats before = st.cp.BatchVerifyStats();
  const std::uint64_t ops_before = GlobalOps().verify.load();
  run();
  return {st.cp.BatchVerifyStats() - before,
          GlobalOps().verify.load() - ops_before};
}

void ExpectSameDelta(const VerifyDelta& a, const VerifyDelta& b) {
  EXPECT_EQ(a.stats.items, b.stats.items);
  EXPECT_EQ(a.stats.full_verifies, b.stats.full_verifies);
  EXPECT_EQ(a.stats.screened_groups, b.stats.screened_groups);
  EXPECT_EQ(a.stats.screen_failures, b.stats.screen_failures);
  EXPECT_EQ(a.stats.cert_cache_hits, b.stats.cert_cache_hits);
  EXPECT_EQ(a.stats.crl_probe_hits, b.stats.crl_probe_hits);
  EXPECT_EQ(a.verify_ops, b.verify_ops);
}

/// The issuer signature of \p lic, made invalid without an exponentiation:
/// one byte short of the modulus width, or exactly n (s >= n).
void ShortenSignature(rel::License* lic) { lic->issuer_signature.pop_back(); }
void SignatureAtModulus(const ContentProvider& cp, rel::License* lic) {
  lic->issuer_signature = cp.PublicKey().n.ToBytes();
}

TEST(VerifyFanOut, ExchangeBatchesMatchAcrossPoolSizes) {
  FanOutStacks fx("verify-fanout-exchange");
  // A twin of the stacks' seed signs with the same provider key but
  // binds its licenses to a pseudonym of a card with its own DRBG, which
  // none of the stacks ever saw.
  sim::ProviderStack twin("verify-fanout-exchange", 0);
  ASSERT_EQ(twin.cp.PublicKey(), fx.stacks[0]->cp.PublicKey());
  crypto::HmacDrbg stranger_rng("verify-fanout-stranger");
  SmartCard stranger_card("Stranger", 512, &stranger_rng);
  stranger_card.StoreIdentityCertificate(
      twin.ca.Enrol("Stranger", stranger_card.MasterKey()));
  PseudonymRequest req =
      stranger_card.BeginPseudonym(twin.ca.PublicKey(), twin.ttp.EscrowKey());
  bignum::BigInt blind_sig =
      twin.ca.SignPseudonymBlinded(stranger_card.CardId(), req.blinding.blinded);
  Pseudonym* stranger = stranger_card.FinishPseudonym(std::move(req), blind_sig,
                                                      twin.ca.PublicKey());
  ASSERT_NE(stranger, nullptr);

  std::vector<Pseudonym*> giver;
  for (auto& st : fx.stacks) giver.push_back(st->NewPseudonym());

  for (std::size_t n : kFanOutSizes) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    // Item i's kind is i % 8; every stack builds the same items.
    std::vector<std::vector<ContentProvider::ExchangeItem>> batch(
        fx.stacks.size());
    std::size_t candidates = 0;  // license signatures that need a PowMod
    std::size_t proofs = 0;      // possession proofs past every other check
    std::vector<Status> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t kind = i % 8;
      rel::License unknown;
      std::vector<std::uint8_t> unknown_proof;
      if (kind == 5) {
        unknown = twin.NewBoundLicense(stranger);
        unknown_proof = stranger_card.SignWithPseudonym(
            stranger->cert.KeyId(),
            ContentProvider::TransferChallengeBytes(unknown.id));
      }
      for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
        sim::ProviderStack& st = *fx.stacks[s];
        ContentProvider::ExchangeItem item;
        if (kind == 4) {  // bound to a key revoked after purchase
          Pseudonym* p = st.NewPseudonym();
          item.license = st.NewBoundLicense(p);
          item.possession_sig = st.PossessionSig(p, item.license);
          st.cp.Revoke(p->cert.KeyId());
        } else if (kind == 5) {  // bound to a key this provider never saw
          item.license = unknown;
          item.possession_sig = unknown_proof;
        } else if (kind == 7) {  // an anonymous license: not exchangeable
          item.license = st.NewBearer(giver[s]);
          item.possession_sig = st.PossessionSig(giver[s], item.license);
        } else {
          item.license = st.NewBoundLicense(giver[s]);
          item.possession_sig = st.PossessionSig(giver[s], item.license);
        }
        if (kind == 1) ShortenSignature(&item.license);
        if (kind == 2) SignatureAtModulus(st.cp, &item.license);
        if (kind == 3) item.license.content_id += 1;  // forged body
        if (kind == 6) item.possession_sig[7] ^= 0x01;  // bad proof
        batch[s].push_back(std::move(item));
      }
      const Status kExpected[] = {
          Status::kOk,         Status::kBadSignature, Status::kBadSignature,
          Status::kBadSignature, Status::kRevoked,    Status::kBadRequest,
          Status::kBadSignature, Status::kBadRequest};
      expected[i] = kExpected[kind];
      if (kind != 1 && kind != 2) ++candidates;
      if (kind == 0 || kind == 6) ++proofs;
    }

    std::vector<VerifyDelta> delta;
    std::vector<std::vector<ContentProvider::ExchangeResult>> out(
        fx.stacks.size());
    for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
      delta.push_back(MeasureVerify(*fx.stacks[s], [&] {
        out[s] = fx.stacks[s]->cp.ExchangeBatch(batch[s]);
      }));
    }
    for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
      SCOPED_TRACE("pool of " + std::to_string(kFanOutPools[s]));
      ASSERT_EQ(out[s].size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[s][i].status, expected[i]) << "item " << i;
        EXPECT_EQ(out[s][i].anonymous_license.Serialize(),
                  out[0][i].anonymous_license.Serialize())
            << "item " << i;
      }
      ExpectSameDelta(delta[s], delta[0]);
      EXPECT_EQ(delta[s].stats.items, n + proofs);
      EXPECT_EQ(delta[s].stats.full_verifies, candidates + proofs);
      EXPECT_EQ(delta[s].verify_ops, candidates + proofs);
    }
  }
}

TEST(VerifyFanOut, RedeemBatchesMatchAcrossPoolSizes) {
  FanOutStacks fx("verify-fanout-redeem");
  std::vector<Pseudonym*> giver;
  for (auto& st : fx.stacks) giver.push_back(st->NewPseudonym());

  for (std::size_t n : kFanOutSizes) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    // Fresh takers per batch, so each certificate's first check in this
    // batch is a full verify and the count below is exact. Items that
    // fail before the certificate check carry a certificate of their
    // own, which must never be verified.
    std::vector<Pseudonym*> taker, revoked, unchecked;
    for (auto& st : fx.stacks) {
      taker.push_back(st->NewPseudonym());
      revoked.push_back(st->NewPseudonym());
      unchecked.push_back(st->NewPseudonym());
      st->cp.Revoke(revoked.back()->cert.KeyId());
    }
    std::vector<std::vector<ContentProvider::RedeemItem>> batch(
        fx.stacks.size());
    std::size_t candidates = 0;
    std::size_t cert_checks = 0;  // items that reach the certificate check
    bool good_cert = false, bad_cert = false, revoked_cert = false;
    std::vector<Status> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t kind = i % 8;
      for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
        sim::ProviderStack& st = *fx.stacks[s];
        ContentProvider::RedeemItem item;
        item.anonymous_license = kind == 6 ? st.NewBoundLicense(giver[s])
                                           : st.NewBearer(giver[s]);
        const bool fails_first = kind == 1 || kind == 2 || kind == 3 ||
                                 kind == 6;
        item.taker = kind == 5       ? revoked[s]->cert
                     : fails_first ? unchecked[s]->cert
                                   : taker[s]->cert;
        if (kind == 1) ShortenSignature(&item.anonymous_license);
        if (kind == 2) SignatureAtModulus(st.cp, &item.anonymous_license);
        if (kind == 3) item.anonymous_license.content_id += 1;
        if (kind == 4) item.taker.escrow.push_back(0x7f);  // forged cert
        batch[s].push_back(std::move(item));
      }
      const Status kExpected[] = {
          Status::kOk,          Status::kBadSignature,
          Status::kBadSignature, Status::kBadSignature,
          Status::kBadCertificate, Status::kRevoked,
          Status::kBadRequest,  Status::kOk};
      expected[i] = kExpected[kind];
      if (kind != 1 && kind != 2) ++candidates;
      if (kind == 0 || kind == 4 || kind == 5 || kind == 7) ++cert_checks;
      good_cert |= kind == 0 || kind == 7;
      bad_cert |= kind == 4;
      revoked_cert |= kind == 5;
    }
    const std::size_t certs = good_cert + bad_cert + revoked_cert;

    std::vector<VerifyDelta> delta;
    std::vector<std::vector<ContentProvider::PurchaseResult>> out(
        fx.stacks.size());
    for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
      delta.push_back(MeasureVerify(*fx.stacks[s], [&] {
        out[s] = fx.stacks[s]->cp.RedeemAnonymousBatch(batch[s]);
      }));
    }
    for (std::size_t s = 0; s < fx.stacks.size(); ++s) {
      SCOPED_TRACE("pool of " + std::to_string(kFanOutPools[s]));
      ASSERT_EQ(out[s].size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[s][i].status, expected[i]) << "item " << i;
        EXPECT_EQ(out[s][i].license.Serialize(), out[0][i].license.Serialize())
            << "item " << i;
      }
      ExpectSameDelta(delta[s], delta[0]);
      EXPECT_EQ(delta[s].stats.full_verifies, candidates + certs);
      EXPECT_EQ(delta[s].stats.cert_cache_hits, cert_checks - certs);
      EXPECT_EQ(delta[s].verify_ops, candidates + certs);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace p2drm
