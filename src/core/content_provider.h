#ifndef P2DRM_CORE_CONTENT_PROVIDER_H_
#define P2DRM_CORE_CONTENT_PROVIDER_H_

/// \file content_provider.h
/// \brief The content provider (CP): catalog, license issuance, anonymous
/// license exchange, and fraud handling.
///
/// Privacy posture: on the P2DRM paths the CP sees pseudonym certificates
/// and bearer coins only. Its persistent state — the spent-license set and
/// the redemption journal — contains no user identities. The identified
/// knowledge it *could* accumulate is exactly what the baseline
/// implementation (baseline/identified_drm.h) records, and the RF-4 bench
/// compares the two.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bignum/random_source.h"
#include "core/certificates.h"
#include "core/clock.h"
#include "core/errors.h"
#include "core/payment.h"
#include "core/ttp.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "rel/license.h"
#include "server/batch_pipeline.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"
#include "server/signer_pool.h"
#include "store/revocation_list.h"

namespace p2drm {
namespace core {

/// Content as distributed: ChaCha20-encrypted body plus its nonce.
/// Freely copyable — useless without a license.
struct EncryptedContent {
  rel::ContentId content_id = 0;
  std::array<std::uint8_t, 12> nonce{};
  std::vector<std::uint8_t> ciphertext;
};

/// A catalog entry as advertised to buyers.
struct Offer {
  rel::ContentId content_id = 0;
  std::string title;
  std::uint64_t price = 0;
  rel::Rights rights;
};

/// Content provider configuration.
struct ContentProviderConfig {
  std::size_t signing_key_bits = 1024;
  store::CrlStrategy crl_strategy = store::CrlStrategy::kBloomFronted;
  std::size_t expected_crl_entries = 1024;
  /// When non-empty, the shard-segment prefix of the spent-license
  /// journal: shard k journals its fresh spends to `<path>.shard<k>`, and
  /// construction rebuilds the spent set from every segment. A file at
  /// the path itself (a pre-sharding journal) makes construction throw
  /// std::runtime_error rather than forget its spends.
  std::string spent_journal_path;
  /// Number of redemption shards: the server::ServerRuntime's shard
  /// workers own the spent-set partitions and journal segments. 0 runs
  /// as 1 shard.
  std::size_t redeem_shards = 0;
  /// Per-shard bounded-queue capacity (items). Batch redemptions that
  /// would overflow a shard queue are shed with Status::kOverloaded.
  std::size_t redeem_queue_capacity = 4096;
  /// Workers of the dedicated work-stealing signer pool
  /// (server::SignerPool), sized independently of redeem_shards. Every
  /// batch's issue stage and its verify stage's RSA checks run on these
  /// workers plus the dispatch thread, which joins. 0 is a pool of zero
  /// workers: the dispatch thread does all of it.
  std::size_t signer_pool_size = 0;
  /// The provider's fixed policy, not a setting: every batch call runs
  /// its batch to completion before it returns, so one batch is in
  /// flight at a time.
  static constexpr std::size_t max_batches_in_flight = 1;
};

/// The content provider actor.
class ContentProvider {
 public:
  /// \param bank where coins are deposited (merchant account "cp")
  /// \param ca_key trusted CA verification key
  ContentProvider(const ContentProviderConfig& config,
                  bignum::RandomSource* rng, const Clock* clock,
                  PaymentProvider* bank, crypto::RsaPublicKey ca_key);
  ~ContentProvider();

  /// License/transcript verification key.
  const crypto::RsaPublicKey& PublicKey() const { return public_key_; }

  // -- catalog ------------------------------------------------------------

  /// Encrypts and publishes \p plaintext; returns its content id.
  rel::ContentId Publish(const std::string& title,
                         const std::vector<std::uint8_t>& plaintext,
                         std::uint64_t price, const rel::Rights& rights);

  std::vector<Offer> Catalog() const;
  std::optional<Offer> FindOffer(rel::ContentId id) const;

  /// The encrypted content blob (available to anyone; superdistribution).
  const EncryptedContent& GetContent(rel::ContentId id) const;

  // -- purchase (P2DRM path) -----------------------------------------------

  struct PurchaseResult {
    Status status = Status::kBadRequest;
    rel::License license;  ///< valid when status == kOk
  };

  /// Anonymous purchase: verifies the pseudonym certificate, checks the
  /// CRL, deposits the coins, and issues a license bound to the pseudonym
  /// key with the content key wrapped to it.
  PurchaseResult Purchase(const PseudonymCertificate& buyer,
                          rel::ContentId content_id,
                          const std::vector<Coin>& payment);

  /// One decoded batched-purchase item.
  struct PurchaseItem {
    PseudonymCertificate buyer;
    rel::ContentId content_id = 0;
    std::vector<Coin> payment;
  };

  /// Purchases a whole batch through the shared server::BatchPipeline:
  /// verify (memoized pseudonym-cert checks + one shared CRL pass),
  /// mutate (ONE PaymentProvider::DepositBatch call covering every
  /// item's coins, so double-spend checks shard at the bank), issue
  /// (license signing and content-key wrapping on the signer pool). Per-item statuses are
  /// index-aligned and match Purchase() item for item, except that
  /// repeated certificates inside or across batches cost one
  /// verification instead of one each, and a failing coin no longer stops
  /// the rest of its item's coins from being deposited (bearer-instrument
  /// rules make both reading equally unrecoverable for the buyer; the
  /// statuses agree).
  std::vector<PurchaseResult> PurchaseBatch(
      const std::vector<PurchaseItem>& items);

  // -- private transfer ----------------------------------------------------

  struct ExchangeResult {
    Status status = Status::kBadRequest;
    rel::License anonymous_license;  ///< valid when status == kOk
  };

  /// Giver side of a transfer: swaps a transferable key-bound license for
  /// an anonymous bearer license. \p possession_sig is the pseudonym-key
  /// signature over TransferChallengeBytes(license.id). Semantically a
  /// batch of one: the spend routes through the id's home shard and the
  /// bearer is signed from the same id-tagged RNG fork ExchangeBatch
  /// draws, so single and batched exchanges are deterministic across
  /// shard counts and signer pool sizes.
  ExchangeResult ExchangeForAnonymous(
      const rel::License& license,
      const std::vector<std::uint8_t>& possession_sig);

  /// One decoded batched-exchange item.
  struct ExchangeItem {
    rel::License license;
    std::vector<std::uint8_t> possession_sig;
  };

  /// Exchanges a whole batch through the shared server::BatchPipeline:
  /// verify (every license signature checked once on the provider key's
  /// cached context, cached-context possession checks, one shared CRL pass
  /// over the bound keys), mutate (old-license retirement on each id's
  /// home shard — the backpressure point), issue (bearer-license
  /// signing on the signer pool, one id-tagged RNG fork per item
  /// drawn dispatch-side in index order). Per-item results are
  /// index-aligned and match ExchangeForAnonymous item for item, plus
  /// kOverloaded for items shed by a full shard queue (no trace; the
  /// held license is untouched and the client may retry).
  std::vector<ExchangeResult> ExchangeBatch(
      const std::vector<ExchangeItem>& items);

  /// Taker side: redeems an anonymous license for a key-bound one. Exactly
  /// one redemption per license id; the second attempt yields
  /// kAlreadySpent *and* a fraud-evidence record.
  PurchaseResult RedeemAnonymous(const rel::License& anonymous_license,
                                 const PseudonymCertificate& taker);

  /// The challenge a giver's card must sign to prove key possession.
  static std::vector<std::uint8_t> TransferChallengeBytes(
      const rel::LicenseId& id);

  // -- batched redemption (server fast path) --------------------------------

  /// One decoded batch item: an anonymous license plus the taker's
  /// pseudonym certificate.
  struct RedeemItem {
    rel::License anonymous_license;
    PseudonymCertificate taker;
  };

  /// Redeems a whole batch with amortized server-side crypto: every
  /// license signature is checked once on the provider key's cached
  /// context, each distinct pseudonym certificate is verified once, one
  /// shared pass answers the CRL probes, and the spent-set updates run on
  /// each id's home shard. Per-item results are index-aligned and match
  /// RedeemAnonymous item for item, with one addition: an item shed by a
  /// full shard queue returns Status::kOverloaded and leaves no trace in
  /// the spent set.
  std::vector<PurchaseResult> RedeemAnonymousBatch(
      const std::vector<RedeemItem>& items);

  /// The dedicated signer pool (signer_pool_size workers; never null).
  const server::SignerPool* Pool() const { return signer_pool_.get(); }
  server::SignerPool* Pool() { return signer_pool_.get(); }

  /// Amortization counters for the batch path (RT-2 accounting).
  server::BatchVerifierStats BatchVerifyStats() const {
    return verifier_.stats();
  }

  /// Stage breakdown (microseconds) of the most recent
  /// RedeemAnonymousBatch / PurchaseBatch / ExchangeBatch call; the
  /// definitions are server::BatchPipelineTimings'. `issue_us` runs from
  /// the fork draw to the end of the batch's last signature — with a
  /// signer pool it shrinks toward the slowest signer's share, while the
  /// signing work itself accrues on the pool's worker and joiner sim
  /// clocks (SignerPool::WorkerSimClockUs, JoinerSimClockUs).
  struct PipelineTimings {
    double verify_us = 0;  ///< batch-verify stage (signatures, certs, CRL)
    double spend_us = 0;   ///< shard-serialized state stage (spend set / bank)
    double issue_us = 0;   ///< signing stage (fresh licenses; both evidence
                           ///< transcripts for a double redemption)
    double makespan_us = 0;  ///< end-to-end span (excludes the commit tail)
    std::size_t items = 0;
  };
  PipelineTimings LastBatchTimings() const { return last_timings_; }

  /// Injects the clock behind LastBatchTimings and the signer pool's
  /// sim-clock accrual (null = steady_clock). A deterministic source
  /// pins stage timings in tests; a virtual-time harness can express
  /// service cost in the same timebase as wire latency. With pool
  /// workers the source is called from the signer threads during the
  /// issue stage, so it must be thread-safe.
  void set_time_source(server::TimeSourceUs now_us) {
    time_source_ = std::move(now_us);
  }

  /// Wires tracing + metrics into every batch pipeline this provider
  /// runs, into the shard runtime's queue accounting and into the signer
  /// pool, when one exists. \p prefix namespaces the registry metric
  /// names — e.g. "signers4." in a bench that runs one provider per
  /// signer pool size.
  /// Call before traffic starts; idempotent (re-registration by name
  /// reuses the existing ids). Null sink members switch that endpoint
  /// off.
  void set_observability(const obs::Sink& sink, const std::string& prefix = "");

  /// First-seen redemption transcript for \p id (the fraud-evidence
  /// basis), if that id has been freshly redeemed. The provider keeps the
  /// record unsigned until it becomes evidence; the copy returned here is
  /// always signed, with the bytes eager signing would have produced
  /// (RSA-FDH signing is deterministic).
  std::optional<RedemptionTranscript> TranscriptFor(
      const rel::LicenseId& id) const;

  /// The shard runtime that owns the spent set; never null. The non-const
  /// overload exists for harnesses (tests, benches) that park or probe
  /// the workers directly.
  const server::ServerRuntime* Runtime() const { return runtime_.get(); }
  server::ServerRuntime* Runtime() { return runtime_.get(); }

  // -- revocation & fraud ---------------------------------------------------

  const store::RevocationList& Crl() const { return crl_; }

  /// Revokes a pseudonym key (or device id) directly.
  void Revoke(const rel::KeyFingerprint& key_id);

  /// Fraud evidence accumulated from double-redemption attempts, ready to
  /// hand to the TTP. Calling this drains the queue.
  std::vector<FraudEvidence> TakeFraudEvidence();

  // -- introspection --------------------------------------------------------

  std::size_t SpentSetSize() const { return runtime_->SpentSize(); }
  std::uint64_t LicensesIssued() const { return licenses_issued_; }
  std::uint64_t DoubleRedemptionAttempts() const {
    return double_redemptions_;
  }
  /// Number of distinct pseudonyms seen across all operations — the upper
  /// bound on what a curious CP can profile (RF-4).
  std::size_t DistinctPseudonymsSeen() const { return pseudonyms_seen_.size(); }

 private:
  /// What the pure signing stage of a redemption produces. The transcript
  /// is always built (it is the fraud-evidence basis for double
  /// redemptions) but signed only for a double; the license only when the
  /// spend was fresh.
  struct IssuedRedemption {
    Status status = Status::kBadRequest;
    rel::License license;  ///< valid when status == kOk
    RedemptionTranscript transcript;  ///< signed when kAlreadySpent
    /// Double redemption chosen to sign the first record, which was in
    /// the map unsigned at draw time: a signed copy of it, for
    /// CommitRedemption to store.
    std::optional<RedemptionTranscript> signed_first;
  };

  /// The provider-key messages of one issue group, signed in one
  /// crypto::RsaSignFdhMany call (defined in content_provider.cpp).
  class SigningGroup;

  /// Pure part of license issuance, without the signature: fresh id and
  /// content-key wrapping, drawing randomness only from \p rng. Const and
  /// thread-safe against concurrent callers (reads catalog_/clock_,
  /// which never change during a batch); the issue stage signs the body
  /// (SigningGroup) and RecordIssued runs on the dispatch thread.
  rel::License LicenseBody(rel::LicenseKind kind, rel::ContentId content_id,
                           const rel::Rights& rights,
                           const crypto::RsaPublicKey* bound_key,
                           bignum::RandomSource* rng) const;
  /// Signs one license body: the single-item paths, a group of one.
  void SignLicenseAlone(rel::License* lic) const;
  /// State-mutating part of issuance: issued-key map + counters.
  void RecordIssued(const rel::License& license,
                    const crypto::RsaPublicKey* bound_key);
  /// Dispatch-thread convenience: LicenseBody(rng_), its signature and
  /// RecordIssued.
  rel::License IssueLicense(rel::LicenseKind kind, rel::ContentId content_id,
                            const rel::Rights& rights,
                            const crypto::RsaPublicKey* bound_key);
  /// Builds an unsigned transcript, reading the clock once.
  RedemptionTranscript MakeTranscript(const rel::LicenseId& id,
                                      const PseudonymCertificate& cert) const;
  /// Signs \p t if it carries no signature yet. Const and thread-safe.
  void SignTranscript(RedemptionTranscript* t) const;
  bool MarkSpent(const rel::LicenseId& id);
  /// Per-item RNG fork for the redemption issue stage, domain-tagged by
  /// the redeemed id. Forked on the dispatch thread in item-index order,
  /// so a fixed seed yields bit-identical issuance whether the signing
  /// then runs inline or on the signer pool.
  crypto::HmacDrbg RedeemIssueRng(const rel::LicenseId& redeemed_id);
  /// Per-item RNG fork for the purchase issue stage, domain-tagged by a
  /// monotonic issuance nonce assigned in item-index order.
  crypto::HmacDrbg PurchaseIssueRng();
  /// Per-item RNG fork for the exchange issue stage, domain-tagged by
  /// the retired license id (same rule as RedeemIssueRng).
  crypto::HmacDrbg ExchangeIssueRng(const rel::LicenseId& retired_id);
  /// Shared mutate stage of the redeem and exchange pipelines: marks
  /// \p eligible items' license ids spent on their home shards
  /// (SpendBatch, shedding), in index order per shard.
  std::vector<Status> SpendEligible(
      const std::vector<std::size_t>& eligible,
      const std::function<const rel::LicenseId&(std::size_t)>& id_of);
  /// Pure issue stage of one redemption: builds \p out and adds the
  /// messages it needs signed to \p sigs, which the caller signs for
  /// the whole group. Fresh (\p spend_status kOk): the license only; the
  /// transcript stays unsigned. Double (kAlreadySpent): its own
  /// transcript, plus a copy of the stored first record when
  /// \p sign_first (the record is unsigned and no earlier double of the
  /// batch signs it). Const and thread-safe (runs on signer threads, and
  /// only reads redemption_transcripts_, which commits write after the
  /// issue stage has joined); all randomness comes from \p rng.
  void BuildRedemption(const RedeemItem& item, Status spend_status,
                       bignum::RandomSource* rng, bool sign_first,
                       IssuedRedemption* out, SigningGroup* sigs) const;
  /// True when \p id's stored first redemption record is still unsigned.
  bool FirstRecordUnsigned(const rel::LicenseId& id) const;
  /// State-mutating stage of one redemption: transcript map, fraud
  /// evidence, pseudonym bookkeeping, issued-key map. Dispatch thread
  /// only, in item-index order. A double stores the signed first record
  /// back in the map, signing it here when its first redemption came
  /// earlier in the same batch, and queues the evidence.
  PurchaseResult CommitRedemption(const RedeemItem& item,
                                  IssuedRedemption issued);

  ContentProviderConfig config_;
  bignum::RandomSource* rng_;
  const Clock* clock_;
  PaymentProvider* bank_;
  crypto::RsaPublicKey ca_key_;
  crypto::RsaPrivateKey key_;
  crypto::RsaPublicKey public_key_;

  struct CatalogEntry {
    Offer offer;
    std::array<std::uint8_t, 32> content_key;
    EncryptedContent encrypted;
  };
  std::map<rel::ContentId, CatalogEntry> catalog_;
  rel::ContentId next_content_id_ = 1;

  std::unique_ptr<server::ServerRuntime> runtime_;  ///< spent set + journal
  std::unique_ptr<server::SignerPool> signer_pool_;  ///< verify + issue pool
  std::unique_ptr<server::BatchPipeline> pipeline_;  ///< every batch call
  server::BatchVerifier verifier_;
  store::RevocationList crl_;
  // First-seen transcript per redeemed license id (fraud evidence basis),
  // unsigned until a double redemption of that id signs it.
  std::map<rel::LicenseId, RedemptionTranscript> redemption_transcripts_;
  std::vector<FraudEvidence> fraud_queue_;
  std::set<rel::KeyFingerprint> pseudonyms_seen_;
  // Pseudonym keys licenses were bound to, by fingerprint. Needed to verify
  // transfer possession proofs (the license itself carries only the
  // fingerprint).
  std::map<rel::KeyFingerprint, crypto::RsaPublicKey> issued_keys_;

  std::uint64_t licenses_issued_ = 0;
  std::uint64_t double_redemptions_ = 0;
  std::uint64_t purchase_issue_nonce_ = 0;  ///< purchase fork domain tags
  PipelineTimings last_timings_;
  server::TimeSourceUs time_source_;  ///< null = steady_clock
  // Per-flow pipeline observability (null endpoints = off).
  server::PipelineObs obs_redeem_;
  server::PipelineObs obs_purchase_;
  server::PipelineObs obs_exchange_;
};

}  // namespace core
}  // namespace p2drm

#endif  // P2DRM_CORE_CONTENT_PROVIDER_H_
