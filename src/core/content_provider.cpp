#include "core/content_provider.h"

#include <chrono>
#include <numeric>
#include <stdexcept>

#include "core/metrics.h"
#include "crypto/chacha20.h"
#include "net/codec.h"

namespace p2drm {
namespace core {

namespace {

/// Merchant account name at the bank.
constexpr const char* kMerchantAccount = "cp";

/// Issue-stage RNG fork domain bytes (distinct per pipeline).
constexpr std::uint8_t kRedeemIssueDomain = 0x52;    // 'R'
constexpr std::uint8_t kPurchaseIssueDomain = 0x50;  // 'P'
constexpr std::uint8_t kExchangeIssueDomain = 0x58;  // 'X'

ContentProvider::PipelineTimings ToPipelineTimings(
    const server::BatchPipelineTimings& t) {
  ContentProvider::PipelineTimings out;
  out.verify_us = t.verify_us;
  out.spend_us = t.mutate_us;
  out.issue_us = t.issue_us;
  out.makespan_us = t.makespan_us;
  out.items = t.items;
  return out;
}

}  // namespace

/// The provider-key messages of one issue group and where each signature
/// goes. Sign makes them all in one crypto::RsaSignFdhMany call (a group
/// of crypto::kMb8MinLanes or more runs on the 8-lane kernel) and counts
/// one sign op per signature.
class ContentProvider::SigningGroup {
 public:
  void Add(std::vector<std::uint8_t> msg, std::vector<std::uint8_t>* sig) {
    msgs_.push_back(std::move(msg));
    sigs_.push_back(sig);
  }

  void Sign(const crypto::RsaPrivateKey& key) {
    if (msgs_.empty()) return;
    GlobalOps().sign += msgs_.size();
    std::vector<std::vector<std::uint8_t>> made =
        crypto::RsaSignFdhMany(key, msgs_);
    for (std::size_t j = 0; j < made.size(); ++j) {
      *sigs_[j] = std::move(made[j]);
    }
  }

 private:
  std::vector<std::vector<std::uint8_t>> msgs_;
  std::vector<std::vector<std::uint8_t>*> sigs_;
};

ContentProvider::ContentProvider(const ContentProviderConfig& config,
                                 bignum::RandomSource* rng, const Clock* clock,
                                 PaymentProvider* bank,
                                 crypto::RsaPublicKey ca_key)
    : config_(config),
      rng_(rng),
      clock_(clock),
      bank_(bank),
      ca_key_(std::move(ca_key)),
      key_(crypto::GenerateRsaKey(config.signing_key_bits, rng)),
      public_key_(key_.PublicKey()),
      crl_(config.crl_strategy, config.expected_crl_entries) {
  GlobalOps().keygen += 1;
  if (bank_ != nullptr) bank_->OpenAccount(kMerchantAccount, 0);
  // The runtime owns the spent-set partitions and the per-shard journal
  // segments. redeem_shards == 0 runs as one shard.
  server::ServerRuntimeConfig rt;
  rt.shard_count = config_.redeem_shards;
  rt.queue_capacity = config_.redeem_queue_capacity;
  rt.journal_path_prefix = config_.spent_journal_path;
  runtime_ = std::make_unique<server::ServerRuntime>(rt);
  signer_pool_ = std::make_unique<server::SignerPool>(config_.signer_pool_size);
  // The time lambda resolves time_source_ at call time so
  // set_time_source keeps working after construction.
  server::BatchPipeline::Config pipeline;
  pipeline.pool = signer_pool_.get();
  pipeline.now_us = [this] {
    return time_source_ != nullptr ? time_source_() : server::SteadyNowUs();
  };
  pipeline_ = std::make_unique<server::BatchPipeline>(std::move(pipeline));
}

ContentProvider::~ContentProvider() = default;

rel::ContentId ContentProvider::Publish(
    const std::string& title, const std::vector<std::uint8_t>& plaintext,
    std::uint64_t price, const rel::Rights& rights) {
  CatalogEntry entry;
  entry.offer.content_id = next_content_id_++;
  entry.offer.title = title;
  entry.offer.price = price;
  entry.offer.rights = rights;

  rng_->Fill(entry.content_key.data(), entry.content_key.size());
  entry.encrypted.content_id = entry.offer.content_id;
  rng_->Fill(entry.encrypted.nonce.data(), entry.encrypted.nonce.size());
  crypto::ChaCha20 cipher(entry.content_key, entry.encrypted.nonce);
  entry.encrypted.ciphertext = cipher.Crypt(plaintext);

  rel::ContentId id = entry.offer.content_id;
  catalog_.emplace(id, std::move(entry));
  return id;
}

std::vector<Offer> ContentProvider::Catalog() const {
  std::vector<Offer> offers;
  offers.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_) {
    (void)id;
    offers.push_back(entry.offer);
  }
  return offers;
}

std::optional<Offer> ContentProvider::FindOffer(rel::ContentId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) return std::nullopt;
  return it->second.offer;
}

const EncryptedContent& ContentProvider::GetContent(rel::ContentId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) {
    throw std::out_of_range("ContentProvider: unknown content id");
  }
  return it->second.encrypted;
}

rel::License ContentProvider::LicenseBody(
    rel::LicenseKind kind, rel::ContentId content_id,
    const rel::Rights& rights, const crypto::RsaPublicKey* bound_key,
    bignum::RandomSource* rng) const {
  auto it = catalog_.find(content_id);
  if (it == catalog_.end()) {
    throw std::out_of_range("ContentProvider: unknown content id");
  }
  rel::License lic;
  rng->Fill(lic.id.bytes.data(), lic.id.bytes.size());
  lic.kind = kind;
  lic.content_id = content_id;
  lic.rights = rights;
  lic.issued_at_s = clock_->NowEpochSeconds();
  if (kind == rel::LicenseKind::kUserBound) {
    lic.bound_key = bound_key->Fingerprint();
    std::vector<std::uint8_t> ck(it->second.content_key.begin(),
                                 it->second.content_key.end());
    GlobalOps().hybrid_enc += 1;
    lic.wrapped_content_key =
        crypto::RsaHybridEncrypt(*bound_key, ck, rng).Serialize();
  }
  return lic;
}

void ContentProvider::SignLicenseAlone(rel::License* lic) const {
  SigningGroup sigs;
  sigs.Add(lic->CanonicalBytes(), &lic->issuer_signature);
  sigs.Sign(key_);
}

void ContentProvider::RecordIssued(const rel::License& license,
                                   const crypto::RsaPublicKey* bound_key) {
  if (license.kind == rel::LicenseKind::kUserBound) {
    issued_keys_.emplace(license.bound_key, *bound_key);
  }
  ++licenses_issued_;
}

rel::License ContentProvider::IssueLicense(
    rel::LicenseKind kind, rel::ContentId content_id,
    const rel::Rights& rights, const crypto::RsaPublicKey* bound_key) {
  rel::License lic = LicenseBody(kind, content_id, rights, bound_key, rng_);
  SignLicenseAlone(&lic);
  RecordIssued(lic, bound_key);
  return lic;
}

crypto::HmacDrbg ContentProvider::RedeemIssueRng(
    const rel::LicenseId& redeemed_id) {
  std::vector<std::uint8_t> tag;
  tag.reserve(1 + redeemed_id.bytes.size());
  tag.push_back(kRedeemIssueDomain);
  tag.insert(tag.end(), redeemed_id.bytes.begin(), redeemed_id.bytes.end());
  return crypto::ForkRandom(rng_, tag);
}

crypto::HmacDrbg ContentProvider::PurchaseIssueRng() {
  std::uint64_t nonce = purchase_issue_nonce_++;
  std::vector<std::uint8_t> tag(9);
  tag[0] = kPurchaseIssueDomain;
  for (int i = 0; i < 8; ++i) {
    tag[1 + i] = static_cast<std::uint8_t>(nonce >> (8 * (7 - i)));
  }
  return crypto::ForkRandom(rng_, tag);
}

crypto::HmacDrbg ContentProvider::ExchangeIssueRng(
    const rel::LicenseId& retired_id) {
  std::vector<std::uint8_t> tag;
  tag.reserve(1 + retired_id.bytes.size());
  tag.push_back(kExchangeIssueDomain);
  tag.insert(tag.end(), retired_id.bytes.begin(), retired_id.bytes.end());
  return crypto::ForkRandom(rng_, tag);
}

std::vector<Status> ContentProvider::SpendEligible(
    const std::vector<std::size_t>& eligible,
    const std::function<const rel::LicenseId&(std::size_t)>& id_of) {
  // Shard-serialized: duplicates inside one batch resolve on their home
  // shard in index order, first occurrence wins; a full shard queue sheds
  // its slice with kOverloaded before any state change.
  std::vector<rel::LicenseId> ids;
  ids.reserve(eligible.size());
  for (std::size_t i : eligible) ids.push_back(id_of(i));
  std::vector<Status> spend;
  runtime_->SpendBatch(ids, &spend, /*shed_on_full=*/true);
  return spend;
}

ContentProvider::PurchaseResult ContentProvider::Purchase(
    const PseudonymCertificate& buyer, rel::ContentId content_id,
    const std::vector<Coin>& payment) {
  PurchaseResult result;

  GlobalOps().verify += 1;
  if (!VerifyPseudonymCert(ca_key_, buyer)) {
    result.status = Status::kBadCertificate;
    return result;
  }
  if (crl_.IsRevoked(buyer.KeyId())) {
    result.status = Status::kRevoked;
    return result;
  }
  auto offer = FindOffer(content_id);
  if (!offer.has_value()) {
    result.status = Status::kUnknownContent;
    return result;
  }
  std::uint64_t paid = std::accumulate(
      payment.begin(), payment.end(), std::uint64_t{0},
      [](std::uint64_t acc, const Coin& c) { return acc + c.denomination; });
  if (paid != offer->price) {
    result.status = Status::kWrongPrice;
    return result;
  }
  // Deposit the coins. A failure mid-way rejects the purchase; already-
  // deposited coins stay deposited (the buyer attempted fraud or sent a
  // bad coin — the paper's bearer-instrument semantics).
  for (const Coin& coin : payment) {
    Status s = bank_->Deposit(coin, kMerchantAccount);
    if (s != Status::kOk) {
      result.status = s;
      return result;
    }
  }

  pseudonyms_seen_.insert(buyer.KeyId());
  result.license = IssueLicense(rel::LicenseKind::kUserBound, content_id,
                                offer->rights, &buyer.pseudonym_key);
  result.status = Status::kOk;
  return result;
}

std::vector<ContentProvider::PurchaseResult> ContentProvider::PurchaseBatch(
    const std::vector<PurchaseItem>& items) {
  if (items.empty()) return {};
  std::vector<PurchaseResult> out(items.size());
  std::vector<rel::Rights> rights_by_item(items.size());
  std::vector<crypto::HmacDrbg> forks;
  std::vector<rel::License> issued;

  server::BatchPipeline::Plan plan;
  plan.item_count = items.size();

  // Verify: each distinct pseudonym certificate costs one full
  // verification (memoized within and across batches), then one shared
  // CRL probe pass covers every surviving item.
  plan.verify = [&] {
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!verifier_.VerifyPseudonymCert(ca_key_, items[i].buyer)) {
        out[i].status = Status::kBadCertificate;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(items[i].buyer.KeyId());
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);
    std::vector<std::size_t> eligible;
    eligible.reserve(crl_items.size());
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      if (revoked[j]) {
        out[crl_items[j]].status = Status::kRevoked;
      } else {
        eligible.push_back(crl_items[j]);
      }
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: catalog/price validation, then ONE batched deposit covering
  // every surviving item's coins — double-spend checks shard at the
  // bank instead of serializing per coin. Blocking (never shed): a
  // purchase item must not come back kOverloaded with some of its coins
  // already deposited. Per-item status is the first failing coin's, as
  // in Purchase(); already-deposited coins stay deposited
  // (bearer-instrument rules).
  plan.mutate = [&](const std::vector<std::size_t>& eligible) {
    std::vector<Status> status(eligible.size(), Status::kOk);
    std::vector<PaymentProvider::DepositItem> coins;
    std::vector<std::size_t> coin_owner;  // coin -> index into eligible
    for (std::size_t j = 0; j < eligible.size(); ++j) {
      std::size_t i = eligible[j];
      auto offer = FindOffer(items[i].content_id);
      if (!offer.has_value()) {
        status[j] = Status::kUnknownContent;
        continue;
      }
      std::uint64_t paid = std::accumulate(
          items[i].payment.begin(), items[i].payment.end(), std::uint64_t{0},
          [](std::uint64_t acc, const Coin& c) {
            return acc + c.denomination;
          });
      if (paid != offer->price) {
        status[j] = Status::kWrongPrice;
        continue;
      }
      rights_by_item[i] = offer->rights;
      for (const Coin& coin : items[i].payment) {
        coins.push_back(PaymentProvider::DepositItem{coin, kMerchantAccount});
        coin_owner.push_back(j);
      }
    }
    if (!coins.empty()) {
      std::vector<Status> coin_st =
          bank_->DepositBatch(coins, /*shed_on_full=*/false);
      for (std::size_t c = 0; c < coins.size(); ++c) {
        if (coin_st[c] != Status::kOk &&
            status[coin_owner[c]] == Status::kOk) {
          status[coin_owner[c]] = coin_st[c];
        }
      }
    }
    return status;
  };

  // Issue: license bodies and content-key wrapping, one nonce-tagged RNG
  // fork per item drawn in index order on the dispatch thread, then one
  // signing call per group, on the signer pool (inline without one).
  plan.begin_issue = [&](std::size_t n) {
    forks.reserve(n);
    issued.resize(n);
  };
  plan.draw_fork = [&](std::size_t, std::size_t) {
    forks.push_back(PurchaseIssueRng());
  };
  plan.issue = [&](const server::IssueRange& range) {
    SigningGroup sigs;
    for (std::size_t k = range.begin; k < range.end; ++k) {
      const std::size_t i = range.item(k);
      issued[k] = LicenseBody(rel::LicenseKind::kUserBound,
                              items[i].content_id, rights_by_item[i],
                              &items[i].buyer.pseudonym_key, &forks[k]);
      sigs.Add(issued[k].CanonicalBytes(), &issued[k].issuer_signature);
    }
    sigs.Sign(key_);
  };

  // Commit — issued-key map, pseudonym bookkeeping and counters, on the
  // dispatch thread in index order.
  plan.commit = [&](std::size_t k, std::size_t i, Status) {
    pseudonyms_seen_.insert(items[i].buyer.KeyId());
    RecordIssued(issued[k], &items[i].buyer.pseudonym_key);
    out[i].license = std::move(issued[k]);
    out[i].status = Status::kOk;
  };
  plan.reject = [&](std::size_t i, Status s) { out[i].status = s; };

  last_timings_ = ToPipelineTimings(pipeline_->Run(plan, &obs_purchase_));
  return out;
}

void ContentProvider::set_observability(const obs::Sink& sink,
                                        const std::string& prefix) {
  auto wire = [&](server::PipelineObs* p, const char* flow,
                  const char* span_verify, const char* span_mutate,
                  const char* span_issue) {
    p->tracer = sink.tracer;
    p->registry = sink.registry;
    p->span_verify = span_verify;
    p->span_mutate = span_mutate;
    p->span_issue = span_issue;
    if (sink.registry != nullptr) {
      const std::string base = prefix + "pipeline." + flow + ".";
      p->hist_verify_us = sink.registry->Histogram(base + "verify_us");
      p->hist_mutate_us = sink.registry->Histogram(base + "mutate_us");
      p->hist_issue_us = sink.registry->Histogram(base + "issue_us");
      p->ctr_items = sink.registry->Counter(base + "items");
      p->ctr_shed = sink.registry->Counter(base + "shed");
    }
  };
  wire(&obs_redeem_, "redeem", "redeem.verify", "redeem.spend",
       "redeem.issue");
  wire(&obs_purchase_, "purchase", "purchase.verify", "purchase.mutate",
       "purchase.issue");
  wire(&obs_exchange_, "exchange", "exchange.verify", "exchange.spend",
       "exchange.issue");
  runtime_->set_observability(sink.registry, prefix + "runtime.");
  signer_pool_->set_observability(sink.registry, prefix + "signer_pool.");
}

std::vector<std::uint8_t> ContentProvider::TransferChallengeBytes(
    const rel::LicenseId& id) {
  net::ByteWriter w;
  w.U8(0x31);  // domain tag: transfer possession proof
  w.Fixed(id.bytes);
  return w.Take();
}

bool ContentProvider::MarkSpent(const rel::LicenseId& id) {
  // Serialize on the id's home shard, exactly like the batch path, so
  // single-item and batched redemptions can never double-spend one id.
  return runtime_->SpendOne(id) == Status::kOk;
}

ContentProvider::ExchangeResult ContentProvider::ExchangeForAnonymous(
    const rel::License& license,
    const std::vector<std::uint8_t>& possession_sig) {
  ExchangeResult result;

  // The license must be ours, key-bound, and transferable.
  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(public_key_, license.CanonicalBytes(),
                            license.issuer_signature)) {
    result.status = Status::kBadSignature;
    return result;
  }
  if (license.kind != rel::LicenseKind::kUserBound) {
    result.status = Status::kBadRequest;
    return result;
  }
  if (!license.rights.allow_transfer) {
    result.status = Status::kNotTransferable;
    return result;
  }
  if (crl_.IsRevoked(license.bound_key)) {
    result.status = Status::kRevoked;
    return result;
  }

  // Possession proof: the giver's card signs the transfer challenge with
  // the pseudonym key the license is bound to. The CP learns only that the
  // caller holds that key, not who they are. The verification key is the
  // one the license was issued against, remembered by fingerprint.
  auto key_it = issued_keys_.find(license.bound_key);
  if (key_it == issued_keys_.end()) {
    result.status = Status::kBadRequest;
    return result;
  }
  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(key_it->second,
                            TransferChallengeBytes(license.id),
                            possession_sig)) {
    result.status = Status::kBadSignature;
    return result;
  }

  // Retire the old license; a spent id can never be exchanged again.
  if (!MarkSpent(license.id)) {
    result.status = Status::kAlreadySpent;
    return result;
  }

  // Batch of one: the bearer is signed from the same id-tagged fork
  // ExchangeBatch draws, so a fixed seed issues identical bytes at any
  // shard count.
  crypto::HmacDrbg issue_rng = ExchangeIssueRng(license.id);
  result.anonymous_license =
      LicenseBody(rel::LicenseKind::kAnonymous, license.content_id,
                  license.rights, nullptr, &issue_rng);
  SignLicenseAlone(&result.anonymous_license);
  RecordIssued(result.anonymous_license, nullptr);
  result.status = Status::kOk;
  return result;
}

std::vector<ContentProvider::ExchangeResult> ContentProvider::ExchangeBatch(
    const std::vector<ExchangeItem>& items) {
  if (items.empty()) return {};
  std::vector<ExchangeResult> out(items.size());
  std::vector<crypto::HmacDrbg> forks;
  std::vector<rel::License> bearer;

  server::BatchPipeline::Plan plan;
  plan.item_count = items.size();

  // Verify: every issuer signature (all licenses are ours) is checked
  // once on our key's cached context, one shared pass answers the CRL
  // probes on the bound keys, and the per-item possession proofs reuse
  // the verifier's cached Montgomery contexts. Checks run in the exact
  // order ExchangeForAnonymous applies them, so per-item statuses match.
  // The RSA checks fan out over the signer pool in two rounds: license
  // signatures, then possession proofs for the survivors only.
  plan.verify = [&] {
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    msgs.reserve(items.size());
    sigs.reserve(items.size());
    for (const ExchangeItem& item : items) {
      msgs.push_back(item.license.CanonicalBytes());
      sigs.push_back(item.license.issuer_signature);
    }
    std::vector<std::uint8_t> sig_ok =
        verifier_.VerifySameKeyBatch(public_key_, msgs, sigs, rng_,
                                     *signer_pool_);

    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const rel::License& lic = items[i].license;
      if (!sig_ok[i]) {
        out[i].status = Status::kBadSignature;
      } else if (lic.kind != rel::LicenseKind::kUserBound) {
        out[i].status = Status::kBadRequest;
      } else if (!lic.rights.allow_transfer) {
        out[i].status = Status::kNotTransferable;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(lic.bound_key);
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);

    // Possession proofs only for the items every earlier check admitted,
    // in one fan-out; the statuses are then applied in item order.
    std::vector<std::size_t> proof_items;
    std::vector<std::vector<std::uint8_t>> challenges;
    std::vector<server::FdhCheck> proofs;
    challenges.reserve(crl_items.size());  // proofs point into it
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      std::size_t i = crl_items[j];
      if (revoked[j]) {
        out[i].status = Status::kRevoked;
        continue;
      }
      auto key_it = issued_keys_.find(items[i].license.bound_key);
      if (key_it == issued_keys_.end()) {
        out[i].status = Status::kBadRequest;
        continue;
      }
      challenges.push_back(TransferChallengeBytes(items[i].license.id));
      proof_items.push_back(i);
      proofs.push_back({&key_it->second, &challenges.back(),
                        &items[i].possession_sig});
    }
    std::vector<std::uint8_t> proof_ok =
        verifier_.VerifyFdhMany(proofs, *signer_pool_);

    std::vector<std::size_t> eligible;
    eligible.reserve(proof_items.size());
    for (std::size_t j = 0; j < proof_items.size(); ++j) {
      if (proof_ok[j]) {
        eligible.push_back(proof_items[j]);
      } else {
        out[proof_items[j]].status = Status::kBadSignature;
      }
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: retire the old licenses on their home shards. Shed items
  // keep their bearer-exchangeable license untouched.
  plan.mutate = [&](const std::vector<std::size_t>& eligible) {
    return SpendEligible(eligible,
                         [&](std::size_t i) -> const rel::LicenseId& {
                           return items[i].license.id;
                         });
  };

  // Issue: bearer-license bodies, one id-tagged fork per item drawn
  // dispatch-side in index order, then one signing call per group, on the
  // signer pool (inline without one).
  plan.begin_issue = [&](std::size_t n) {
    forks.reserve(n);
    bearer.resize(n);
  };
  plan.draw_fork = [&](std::size_t, std::size_t i) {
    forks.push_back(ExchangeIssueRng(items[i].license.id));
  };
  plan.issue = [&](const server::IssueRange& range) {
    SigningGroup sigs;
    for (std::size_t k = range.begin; k < range.end; ++k) {
      const rel::License& lic = items[range.item(k)].license;
      bearer[k] = LicenseBody(rel::LicenseKind::kAnonymous, lic.content_id,
                              lic.rights, nullptr, &forks[k]);
      sigs.Add(bearer[k].CanonicalBytes(), &bearer[k].issuer_signature);
    }
    sigs.Sign(key_);
  };
  plan.commit = [&](std::size_t k, std::size_t i, Status) {
    RecordIssued(bearer[k], nullptr);
    out[i].anonymous_license = std::move(bearer[k]);
    out[i].status = Status::kOk;
  };
  plan.reject = [&](std::size_t i, Status s) { out[i].status = s; };

  last_timings_ = ToPipelineTimings(pipeline_->Run(plan, &obs_exchange_));
  return out;
}

RedemptionTranscript ContentProvider::MakeTranscript(
    const rel::LicenseId& id, const PseudonymCertificate& cert) const {
  RedemptionTranscript t;
  t.license_id = id;
  t.pseudonym_cert = cert.Serialize();
  t.timestamp_s = clock_->NowEpochSeconds();
  return t;
}

void ContentProvider::SignTranscript(RedemptionTranscript* t) const {
  if (!t->cp_signature.empty()) return;
  GlobalOps().sign += 1;
  t->cp_signature = crypto::RsaSignFdh(key_, t->CanonicalBytes());
}

ContentProvider::PurchaseResult ContentProvider::RedeemAnonymous(
    const rel::License& anonymous_license, const PseudonymCertificate& taker) {
  PurchaseResult result;

  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(public_key_, anonymous_license.CanonicalBytes(),
                            anonymous_license.issuer_signature)) {
    result.status = Status::kBadSignature;
    return result;
  }
  if (anonymous_license.kind != rel::LicenseKind::kAnonymous) {
    result.status = Status::kBadRequest;
    return result;
  }
  GlobalOps().verify += 1;
  if (!VerifyPseudonymCert(ca_key_, taker)) {
    result.status = Status::kBadCertificate;
    return result;
  }
  if (crl_.IsRevoked(taker.KeyId())) {
    result.status = Status::kRevoked;
    return result;
  }

  // Same three stages as the batch path, one item wide: spend, then sign
  // with the id-tagged RNG fork, then commit. A single redemption and a
  // batch of one are therefore bit-identical under a fixed seed.
  Status spend = MarkSpent(anonymous_license.id) ? Status::kOk
                                                 : Status::kAlreadySpent;
  RedeemItem item{anonymous_license, taker};
  crypto::HmacDrbg issue_rng = RedeemIssueRng(anonymous_license.id);
  IssuedRedemption issued;
  SigningGroup sigs;
  BuildRedemption(item, spend, &issue_rng,
                  spend == Status::kAlreadySpent &&
                      FirstRecordUnsigned(anonymous_license.id),
                  &issued, &sigs);
  sigs.Sign(key_);
  return CommitRedemption(item, std::move(issued));
}

bool ContentProvider::FirstRecordUnsigned(const rel::LicenseId& id) const {
  auto it = redemption_transcripts_.find(id);
  return it != redemption_transcripts_.end() &&
         it->second.cp_signature.empty();
}

void ContentProvider::BuildRedemption(const RedeemItem& item,
                                      Status spend_status,
                                      bignum::RandomSource* rng,
                                      bool sign_first, IssuedRedemption* out,
                                      SigningGroup* sigs) const {
  out->transcript = MakeTranscript(item.anonymous_license.id, item.taker);
  if (spend_status == Status::kAlreadySpent) {
    // A double redemption turns both records into fraud evidence: its
    // own transcript is signed here, and so is a copy of the first record
    // when this double was chosen to sign it. The map is only read:
    // commits run after the issue stage has joined. A first redemption
    // earlier in this same batch is not in the map yet; CommitRedemption
    // signs that one.
    sigs->Add(out->transcript.CanonicalBytes(), &out->transcript.cp_signature);
    if (sign_first) {
      out->signed_first = redemption_transcripts_.at(item.anonymous_license.id);
      sigs->Add(out->signed_first->CanonicalBytes(),
                &out->signed_first->cp_signature);
    }
    out->status = Status::kAlreadySpent;
    return;
  }
  out->license = LicenseBody(rel::LicenseKind::kUserBound,
                             item.anonymous_license.content_id,
                             item.anonymous_license.rights,
                             &item.taker.pseudonym_key, rng);
  sigs->Add(out->license.CanonicalBytes(), &out->license.issuer_signature);
  out->status = Status::kOk;
}

ContentProvider::PurchaseResult ContentProvider::CommitRedemption(
    const RedeemItem& item, IssuedRedemption issued) {
  PurchaseResult result;
  if (issued.status == Status::kAlreadySpent) {
    // Double redemption: build fraud evidence from the first transcript,
    // which stays signed in the map for any later double of this id.
    ++double_redemptions_;
    auto first = redemption_transcripts_.find(item.anonymous_license.id);
    if (first != redemption_transcripts_.end()) {
      if (issued.signed_first.has_value()) {
        first->second = std::move(*issued.signed_first);
      }
      SignTranscript(&first->second);
      FraudEvidence evidence;
      evidence.first = first->second;
      evidence.second = std::move(issued.transcript);
      fraud_queue_.push_back(std::move(evidence));
    }
    result.status = Status::kAlreadySpent;
    return result;
  }
  redemption_transcripts_.emplace(item.anonymous_license.id,
                                  std::move(issued.transcript));

  pseudonyms_seen_.insert(item.taker.KeyId());
  RecordIssued(issued.license, &item.taker.pseudonym_key);
  result.license = std::move(issued.license);
  result.status = Status::kOk;
  return result;
}

std::vector<ContentProvider::PurchaseResult>
ContentProvider::RedeemAnonymousBatch(const std::vector<RedeemItem>& items) {
  if (items.empty()) return {};
  std::vector<PurchaseResult> out(items.size());
  std::vector<crypto::HmacDrbg> forks;
  std::vector<IssuedRedemption> issued;
  std::vector<Status> spend_of(items.size(), Status::kBadRequest);
  std::vector<bool> sign_first;            // per live k
  std::set<rel::LicenseId> first_assigned;  // ids whose first record a
                                            // double of this batch signs

  server::BatchPipeline::Plan plan;
  plan.item_count = items.size();

  // Verify, amortized: every license in the batch is signed by our own
  // key, so the group shares that key's cached context and each license
  // signature is checked once; each distinct pseudonym certificate is
  // verified once; one shared pass answers the CRL probes. The RT-2
  // table counts the verifications actually performed. The license
  // checks fan out over the signer pool; the certificate memo and the
  // CRL pass stay on the dispatch thread.
  plan.verify = [&] {
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    msgs.reserve(items.size());
    sigs.reserve(items.size());
    for (const RedeemItem& item : items) {
      msgs.push_back(item.anonymous_license.CanonicalBytes());
      sigs.push_back(item.anonymous_license.issuer_signature);
    }
    std::vector<std::uint8_t> sig_ok =
        verifier_.VerifySameKeyBatch(public_key_, msgs, sigs, rng_,
                                     *signer_pool_);

    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!sig_ok[i]) {
        out[i].status = Status::kBadSignature;
      } else if (items[i].anonymous_license.kind !=
                 rel::LicenseKind::kAnonymous) {
        out[i].status = Status::kBadRequest;
      } else if (!verifier_.VerifyPseudonymCert(ca_key_, items[i].taker)) {
        out[i].status = Status::kBadCertificate;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(items[i].taker.KeyId());
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);
    std::vector<std::size_t> eligible;
    eligible.reserve(crl_items.size());
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      if (revoked[j]) {
        out[crl_items[j]].status = Status::kRevoked;
      } else {
        eligible.push_back(crl_items[j]);
      }
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: shard-serialized spent-set updates on each id's home shard.
  plan.mutate = [&](const std::vector<std::size_t>& eligible) {
    std::vector<Status> spend =
        SpendEligible(eligible, [&](std::size_t i) -> const rel::LicenseId& {
          return items[i].anonymous_license.id;
        });
    for (std::size_t j = 0; j < eligible.size(); ++j) {
      spend_of[eligible[j]] = spend[j];
    }
    return spend;
  };
  // A detected double redemption still runs the issue stage: it signs
  // both transcripts of the fraud evidence handed to the TTP.
  plan.proceed = [](Status s) { return s == Status::kAlreadySpent; };

  // Issue: the fresh license's signature, or a double redemption's
  // evidence transcripts — the dominant per-item private-key cost —
  // signed one group at a time on the signer pool (inline without one).
  plan.begin_issue = [&](std::size_t n) {
    forks.reserve(n);
    issued.resize(n);
    sign_first.assign(n, false);
  };
  plan.draw_fork = [&](std::size_t k, std::size_t i) {
    const rel::LicenseId& id = items[i].anonymous_license.id;
    forks.push_back(RedeemIssueRng(id));
    // The first double of an id whose stored first record is unsigned
    // signs it; later doubles of that id in this batch take the signed
    // copy at commit.
    if (spend_of[i] == Status::kAlreadySpent && FirstRecordUnsigned(id) &&
        first_assigned.insert(id).second) {
      sign_first[k] = true;
    }
  };
  plan.issue = [&](const server::IssueRange& range) {
    SigningGroup sigs;
    for (std::size_t k = range.begin; k < range.end; ++k) {
      BuildRedemption(items[range.item(k)], range.status(k), &forks[k],
                      sign_first[k], &issued[k], &sigs);
    }
    sigs.Sign(key_);
  };

  // Commit — state mutations on the dispatch thread, in index order:
  // transcript map, fraud evidence, pseudonym bookkeeping, counters.
  plan.commit = [&](std::size_t k, std::size_t i, Status) {
    out[i] = CommitRedemption(items[i], std::move(issued[k]));
  };
  plan.reject = [&](std::size_t i, Status s) { out[i].status = s; };

  last_timings_ = ToPipelineTimings(pipeline_->Run(plan, &obs_redeem_));
  return out;
}

std::optional<RedemptionTranscript> ContentProvider::TranscriptFor(
    const rel::LicenseId& id) const {
  auto it = redemption_transcripts_.find(id);
  if (it == redemption_transcripts_.end()) return std::nullopt;
  RedemptionTranscript t = it->second;
  SignTranscript(&t);
  return t;
}

void ContentProvider::Revoke(const rel::KeyFingerprint& key_id) {
  crl_.Revoke(key_id);
}

std::vector<FraudEvidence> ContentProvider::TakeFraudEvidence() {
  std::vector<FraudEvidence> out = std::move(fraud_queue_);
  fraud_queue_.clear();
  return out;
}

}  // namespace core
}  // namespace p2drm
