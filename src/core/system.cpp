#include "core/system.h"

#include "core/protocol.h"

namespace p2drm {
namespace core {

namespace proto = protocol;

P2drmSystem::P2drmSystem(const SystemConfig& config,
                         bignum::RandomSource* rng)
    : clock_(&timebase_), transport_(config.latency) {
  transport_.BindClock(&timebase_);
  ca_ = std::make_unique<CertificationAuthority>(config.ca_key_bits, rng);
  ttp_ = std::make_unique<TrustedThirdParty>(config.ttp_key_bits, rng);
  bank_ = std::make_unique<PaymentProvider>(config.bank_key_bits, rng,
                                            config.bank);
  cp_ = std::make_unique<ContentProvider>(config.cp, rng, &clock_,
                                          bank_.get(), ca_->PublicKey());
  RegisterEndpoints();
}

void P2drmSystem::RegisterEndpoints() {
  // -- CA --------------------------------------------------------------
  ca_service_.Register<proto::EnrolRequest>(
      [this](const proto::EnrolRequest& req, proto::EnrolResponse* resp) {
        resp->certificate = ca_->Enrol(req.holder_name, req.master_key);
        return Status::kOk;
      });
  ca_service_.Register<proto::PseudonymSignRequest>(
      [this](const proto::PseudonymSignRequest& req,
             proto::PseudonymSignResponse* resp) {
        resp->blind_signature =
            ca_->SignPseudonymBlinded(req.card_id, req.blinded);
        return Status::kOk;
      });
  ca_service_.Register<proto::DeviceCertRequest>(
      [this](const proto::DeviceCertRequest& req,
             proto::DeviceCertResponse* resp) {
        resp->certificate =
            ca_->CertifyDevice(req.device_key, req.security_level);
        return Status::kOk;
      });

  // -- bank ------------------------------------------------------------
  bank_service_.Register<proto::WithdrawRequest>(
      [this](const proto::WithdrawRequest& req,
             proto::WithdrawResponse* resp) {
        return bank_->Withdraw(req.account, req.denomination, req.blinded,
                               &resp->blind_signature);
      });
  bank_service_.Register<proto::DepositRequest>(
      [this](const proto::DepositRequest& req, proto::DepositResponse*) {
        return bank_->Deposit(req.coin, req.merchant_account);
      });
  // Batch fast path for deposits: coins verified per denomination group
  // on cached contexts and sharded double-spend checks at the bank.
  bank_service_.RegisterBatch<proto::DepositRequest>(
      [this](const std::vector<proto::DepositRequest>& reqs,
             std::vector<proto::DepositResponse>*) {
        std::vector<PaymentProvider::DepositItem> items;
        items.reserve(reqs.size());
        for (const proto::DepositRequest& req : reqs) {
          items.push_back({req.coin, req.merchant_account});
        }
        return bank_->DepositBatch(items);
      });

  // -- content provider -------------------------------------------------
  cp_service_.Register<proto::CatalogRequest>(
      [this](const proto::CatalogRequest&, proto::CatalogResponse* resp) {
        resp->offers = cp_->Catalog();
        return Status::kOk;
      });
  cp_service_.Register<proto::PurchaseRequest>(
      [this](const proto::PurchaseRequest& req,
             proto::PurchaseResponse* resp) {
        auto out = cp_->Purchase(req.buyer, req.content_id, req.payment);
        resp->license = out.license;
        return out.status;
      });
  // Batch fast path for purchases (mirrors the redeem fast path below):
  // certificate verification memoizes per distinct cert, one CRL pass
  // covers the batch, and license signing runs on the signer pool.
  cp_service_.RegisterBatch<proto::PurchaseRequest>(
      [this](const std::vector<proto::PurchaseRequest>& reqs,
             std::vector<proto::PurchaseResponse>* resps) {
        std::vector<ContentProvider::PurchaseItem> items;
        items.reserve(reqs.size());
        for (const proto::PurchaseRequest& req : reqs) {
          items.push_back({req.buyer, req.content_id, req.payment});
        }
        auto results = cp_->PurchaseBatch(items);
        std::vector<Status> statuses(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          statuses[i] = results[i].status;
          (*resps)[i].license = std::move(results[i].license);
        }
        return statuses;
      });
  cp_service_.Register<proto::ExchangeRequest>(
      [this](const proto::ExchangeRequest& req,
             proto::ExchangeResponse* resp) {
        auto out = cp_->ExchangeForAnonymous(req.license, req.possession_sig);
        resp->anonymous_license = out.anonymous_license;
        return out.status;
      });
  // Batch fast path for exchanges: one same-key pass over the issuer
  // signatures on a cached context, one shared CRL pass, shard-parallel bearer
  // issuance (server/ subsystem). Wire format unchanged.
  cp_service_.RegisterBatch<proto::ExchangeRequest>(
      [this](const std::vector<proto::ExchangeRequest>& reqs,
             std::vector<proto::ExchangeResponse>* resps) {
        std::vector<ContentProvider::ExchangeItem> items;
        items.reserve(reqs.size());
        for (const proto::ExchangeRequest& req : reqs) {
          items.push_back({req.license, req.possession_sig});
        }
        auto results = cp_->ExchangeBatch(items);
        std::vector<Status> statuses(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          statuses[i] = results[i].status;
          (*resps)[i].anonymous_license =
              std::move(results[i].anonymous_license);
        }
        return statuses;
      });
  cp_service_.Register<proto::RedeemRequest>(
      [this](const proto::RedeemRequest& req, proto::PurchaseResponse* resp) {
        auto out = cp_->RedeemAnonymous(req.anonymous_license, req.taker);
        resp->license = out.license;
        return out.status;
      });
  // Batch fast path: every redeem inside a kBatch envelope reaches the
  // provider in one call, so license verification, certificate checks
  // and CRL probes amortize across the whole batch (server/ subsystem).
  // The wire format is the ordinary batch envelope — clients see no
  // difference beyond per-item statuses such as kOverloaded.
  cp_service_.RegisterBatch<proto::RedeemRequest>(
      [this](const std::vector<proto::RedeemRequest>& reqs,
             std::vector<proto::PurchaseResponse>* resps) {
        std::vector<ContentProvider::RedeemItem> items;
        items.reserve(reqs.size());
        for (const proto::RedeemRequest& req : reqs) {
          items.push_back({req.anonymous_license, req.taker});
        }
        auto results = cp_->RedeemAnonymousBatch(items);
        std::vector<Status> statuses(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          statuses[i] = results[i].status;
          (*resps)[i].license = std::move(results[i].license);
        }
        return statuses;
      });
  cp_service_.Register<proto::FetchContentRequest>(
      [this](const proto::FetchContentRequest& req,
             proto::FetchContentResponse* resp) {
        if (!cp_->FindOffer(req.content_id).has_value()) {
          return Status::kUnknownContent;
        }
        resp->content = cp_->GetContent(req.content_id);
        return Status::kOk;
      });
  cp_service_.Register<proto::FetchCrlRequest>(
      [this](const proto::FetchCrlRequest&, proto::FetchCrlResponse* resp) {
        resp->crl_snapshot = cp_->Crl().Serialize();
        return Status::kOk;
      });

  // -- TTP ---------------------------------------------------------------
  ttp_service_.Register<proto::OpenEscrowRequest>(
      [this](const proto::OpenEscrowRequest& req,
             proto::OpenEscrowResponse* resp) {
        auto out = ttp_->OpenEscrow(req.evidence, cp_->PublicKey());
        resp->opened = out.opened;
        resp->card_id = out.card_id;
        resp->reason = out.reason;
        return Status::kOk;
      });

  ca_service_.BindTo(&transport_, kCaEndpoint);
  bank_service_.BindTo(&transport_, kBankEndpoint);
  cp_service_.BindTo(&transport_, kCpEndpoint);
  ttp_service_.BindTo(&transport_, kTtpEndpoint);
}

std::vector<std::uint64_t> P2drmSystem::ProcessFraud() {
  std::vector<std::uint64_t> identified;
  net::Rpc rpc(&transport_, kCpEndpoint);
  for (FraudEvidence& evidence : cp_->TakeFraudEvidence()) {
    proto::OpenEscrowRequest req;
    req.evidence = std::move(evidence);
    auto resp = rpc.Call(kTtpEndpoint, req);
    if (!resp.ok() || !resp.value.opened) continue;
    identified.push_back(resp.value.card_id);
    // Revoke the pseudonym that committed the fraud.
    PseudonymCertificate offender = PseudonymCertificate::Deserialize(
        req.evidence.second.pseudonym_cert);
    cp_->Revoke(offender.KeyId());
  }
  return identified;
}

}  // namespace core
}  // namespace p2drm
