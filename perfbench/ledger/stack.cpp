// Stack construction, client set-up, phase snapshots, the dispatch meter
// and the correctness oracle of the ledger benchmark.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/content_provider.h"
#include "core/payment.h"
#include "core/protocol.h"
#include "crypto/rsa.h"
#include "ledger.h"
#include "server/server_runtime.h"

namespace ledger {

namespace proto = core::protocol;

Sizes Sizes::Toy() {
  Sizes s;
  s.server_bits = 512;
  s.client_bits = 512;
  s.fixture_ids = 4096;
  s.titles = 16;
  s.setups = 1;
  s.buys_per_s = 40;  // a one-second retail run still plants a re-spend
  s.transfer_pairs_per_s = 3;
  s.fraud_rounds_per_s = 2;
  return s;
}

crypto::HmacDrbg SeededRng(std::uint64_t seed, const std::string& purpose) {
  return crypto::HmacDrbg("p2drm-ledger/" + std::to_string(seed) + "/" +
                          purpose);
}

core::SystemConfig StackConfig(const Sizes& sizes,
                               const std::string& journal_prefix) {
  core::SystemConfig cfg;
  cfg.ca_key_bits = sizes.server_bits;
  cfg.ttp_key_bits = sizes.server_bits;
  cfg.bank_key_bits = sizes.server_bits;
  cfg.cp.signing_key_bits = sizes.server_bits;
  cfg.cp.redeem_shards = sizes.redeem_shards;
  cfg.cp.signer_pool_size = sizes.signer_pool_size;
  cfg.cp.spent_journal_path = journal_prefix;
  cfg.bank.deposit_shards = sizes.deposit_shards;
  return cfg;
}

std::unique_ptr<Stack> BuildStack(const Sizes& sizes,
                                  const std::string& journal_prefix,
                                  std::size_t attempt) {
  auto stack = std::make_unique<Stack>();
  // Server keys come from a fixed seed, not --seed: the prime search of
  // key generation then does the same work in every run.
  stack->rng = std::make_unique<crypto::HmacDrbg>(
      SeededRng(0, "stack/" + std::to_string(attempt)));
  stack->sys = std::make_unique<core::P2drmSystem>(
      StackConfig(sizes, journal_prefix), stack->rng.get());

  // Catalog: title k costs the (k mod 7)-th coin denomination, so the
  // Zipf head covers every denomination key.
  const auto& denoms = core::PaymentProvider::Denominations();
  const std::vector<std::uint8_t> body(256, 0x5a);
  for (std::size_t k = 0; k < sizes.titles; ++k) {
    std::uint64_t price = denoms[k % denoms.size()];
    stack->titles.push_back(stack->sys->cp().Publish(
        "title-" + std::to_string(k), body, price,
        rel::Rights::FullRetail()));
    stack->prices.push_back(price);
  }
  stack->free_title = stack->sys->cp().Publish("free-title", body, 0,
                                               rel::Rights::FullRetail());
  return stack;
}

void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

namespace {

constexpr std::size_t kSetupBatch = 64;

}  // namespace

std::vector<std::unique_ptr<Card>> MakeCards(Stack* stack, const Sizes& sizes,
                                             const std::string& prefix,
                                             std::size_t count,
                                             std::size_t pseudonyms,
                                             std::uint64_t seed) {
  core::P2drmSystem& sys = *stack->sys;
  std::vector<std::unique_ptr<Card>> cards(count);
  ParallelFor(count, kSetupThreads, [&](std::size_t i) {
    auto card = std::make_unique<Card>();
    card->name = prefix + "-" + std::to_string(i);
    card->rng = std::make_unique<crypto::HmacDrbg>(
        SeededRng(seed, "card/" + card->name));
    card->card = std::make_unique<core::SmartCard>(
        card->name, sizes.client_bits, card->rng.get());
    cards[i] = std::move(card);
  });
  for (auto& card : cards) {
    net::Rpc rpc(&sys.transport(), card->name);
    proto::EnrolRequest enrol;
    enrol.holder_name = card->name;
    enrol.master_key = card->card->MasterKey();
    auto resp = rpc.Call(core::P2drmSystem::kCaEndpoint, enrol);
    if (!resp.ok()) throw std::runtime_error("enrolment failed");
    card->card->StoreIdentityCertificate(resp.value.certificate);
    card->id = card->card->CardId();
    sys.bank().OpenAccount(card->name, std::uint64_t{1} << 40);
  }
  std::vector<Card*> raw;
  for (auto& card : cards) raw.push_back(card.get());
  AddPseudonyms(stack, raw, pseudonyms);
  return cards;
}

void AddPseudonyms(Stack* stack, const std::vector<Card*>& cards,
                   std::size_t count) {
  core::P2drmSystem& sys = *stack->sys;
  const crypto::RsaPublicKey& ca_key = sys.ca().PublicKey();
  const crypto::RsaPublicKey& ttp_key = sys.ttp().EscrowKey();
  std::vector<std::vector<core::PseudonymRequest>> reqs(cards.size());
  ParallelFor(cards.size(), kSetupThreads, [&](std::size_t i) {
    for (std::size_t k = 0; k < count; ++k) {
      reqs[i].push_back(cards[i]->card->BeginPseudonym(ca_key, ttp_key));
    }
  });
  for (std::size_t i = 0; i < cards.size(); ++i) {
    net::Rpc rpc(&sys.transport(), cards[i]->name);
    for (core::PseudonymRequest& req : reqs[i]) {
      proto::PseudonymSignRequest wire;
      wire.card_id = cards[i]->id;
      wire.blinded = req.blinding.blinded;
      auto resp = rpc.Call(core::P2drmSystem::kCaEndpoint, wire);
      if (!resp.ok()) throw std::runtime_error("pseudonym issuance failed");
      core::Pseudonym* p = cards[i]->card->FinishPseudonym(
          std::move(req), resp.value.blind_signature, ca_key);
      if (p == nullptr) throw std::runtime_error("pseudonym cert invalid");
      cards[i]->pseudonyms.push_back(p);
    }
  }
}

std::vector<Held> BuyTransferable(
    Stack* stack,
    const std::vector<std::pair<Card*, core::Pseudonym*>>& buyers,
    std::size_t count) {
  core::P2drmSystem& sys = *stack->sys;
  net::Rpc rpc(&sys.transport(), "setup");
  std::vector<Held> held;
  held.reserve(count);
  for (std::size_t start = 0; start < count; start += kSetupBatch) {
    std::size_t n = std::min(kSetupBatch, count - start);
    std::vector<proto::PurchaseRequest> reqs(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto& buyer = buyers[(start + j) % buyers.size()];
      reqs[j].buyer = buyer.second->cert;
      reqs[j].content_id = stack->free_title;
    }
    auto resps = rpc.CallBatchAnonymous(core::P2drmSystem::kCpEndpoint, reqs);
    for (std::size_t j = 0; j < n; ++j) {
      if (!resps[j].ok()) throw std::runtime_error("set-up purchase failed");
      const auto& buyer = buyers[(start + j) % buyers.size()];
      held.push_back(Held{std::move(resps[j].value.license), buyer.first,
                          buyer.second, {}});
    }
  }

  // Possession proofs, signed by each holder's card: one card per thread
  // so every card's state is touched by one thread only.
  std::vector<Card*> owners;
  for (const auto& b : buyers) {
    if (std::find(owners.begin(), owners.end(), b.first) == owners.end()) {
      owners.push_back(b.first);
    }
  }
  ParallelFor(owners.size(), kSetupThreads, [&](std::size_t c) {
    for (Held& h : held) {
      if (h.card != owners[c]) continue;
      h.proof = h.card->card->SignWithPseudonym(
          h.pseudonym->cert.KeyId(),
          core::ContentProvider::TransferChallengeBytes(h.license.id));
      if (h.proof.empty()) throw std::runtime_error("possession proof failed");
    }
  });
  return held;
}

std::vector<rel::License> ExchangeInSetup(Stack* stack,
                                          const std::vector<Held>& held) {
  core::P2drmSystem& sys = *stack->sys;
  net::Rpc rpc(&sys.transport(), "setup");
  std::vector<rel::License> bearers;
  bearers.reserve(held.size());
  for (std::size_t start = 0; start < held.size(); start += kSetupBatch) {
    std::size_t n = std::min(kSetupBatch, held.size() - start);
    std::vector<proto::ExchangeRequest> reqs(n);
    for (std::size_t j = 0; j < n; ++j) {
      reqs[j].license = held[start + j].license;
      reqs[j].possession_sig = held[start + j].proof;
    }
    auto resps = rpc.CallBatchAnonymous(core::P2drmSystem::kCpEndpoint, reqs);
    for (auto& r : resps) {
      if (!r.ok()) throw std::runtime_error("set-up exchange failed");
      bearers.push_back(std::move(r.value.anonymous_license));
    }
  }
  return bearers;
}

// -- snapshots & dispatch meter ------------------------------------------------

Snapshot Snapshot::Take(Stack* stack, const std::string& journal_prefix,
                        std::size_t shards) {
  core::P2drmSystem& sys = *stack->sys;
  core::ContentProvider& cp = sys.cp();
  Snapshot s;
  s.verify = cp.BatchVerifyStats();
  if (const server::SignerPool* pool = cp.Pool()) {
    for (std::size_t i = 0; i < pool->worker_count(); ++i) {
      s.pool_busy_us += pool->WorkerSimClockUs(i);
    }
    s.steals = pool->Steals();
  }
  for (const server::ServerRuntime* rt :
       {static_cast<const server::ServerRuntime*>(cp.Runtime()),
        sys.bank().DepositRuntime()}) {
    if (rt == nullptr) continue;
    s.sheds += rt->Overloads();
    for (std::size_t k = 0; k < rt->shard_count(); ++k) {
      s.queue_high_water = std::max(s.queue_high_water, rt->QueueHighWater(k));
    }
  }
  s.opened = sys.ttp().OpenedCount();
  s.wire_bytes = sys.transport().GrandTotal().bytes;
  for (std::size_t k = 0; k < shards; ++k) {
    std::error_code ec;
    auto size = std::filesystem::file_size(
        server::ServerRuntime::SegmentPath(journal_prefix, k), ec);
    if (!ec) s.journal_bytes += size;
  }
  s.spent_size = cp.SpentSetSize();
  if (cp.Runtime() != nullptr) s.spent_memory = cp.Runtime()->SpentMemoryBytes();
  return s;
}

DispatchMeter::DispatchMeter(core::P2drmSystem* sys) : sys_(sys) {
  auto wrap = [this](net::ServiceRegistry* registry) {
    return [this, registry](const std::vector<std::uint8_t>& wire) {
      double t0 = NowUs();
      std::vector<std::uint8_t> out = registry->Dispatch(wire);
      last_us_ = NowUs() - t0;
      return out;
    };
  };
  sys_->transport().RegisterEndpoint(core::P2drmSystem::kCpEndpoint,
                                     wrap(&sys_->cp_service()));
  sys_->transport().RegisterEndpoint(core::P2drmSystem::kBankEndpoint,
                                     wrap(&sys_->bank_service()));
}

DispatchMeter::~DispatchMeter() {
  sys_->cp_service().BindTo(&sys_->transport(),
                            core::P2drmSystem::kCpEndpoint);
  sys_->bank_service().BindTo(&sys_->transport(),
                              core::P2drmSystem::kBankEndpoint);
}

double DispatchMeter::TakeUs() {
  double us = last_us_;
  last_us_ = 0;
  return us;
}

// -- oracle --------------------------------------------------------------------

void Oracle::Expect(const char* what, bool planted, core::Status expected,
                    core::Status got) {
  statuses_.push_back(StatusCheck{what, planted, expected, got});
}

void Oracle::ExpectLicense(const rel::License& license, rel::LicenseKind kind,
                           const rel::KeyFingerprint& bound_key) {
  licenses_.push_back(LicenseCheck{license, kind, bound_key});
}

void Oracle::Check(bool ok, const std::string& check,
                   const std::string& detail) {
  if (!ok) failures_.push_back(check + ": " + detail);
}

void Oracle::FlipOne() {
  if (statuses_.empty()) return;
  auto it = std::find_if(statuses_.begin(), statuses_.end(),
                         [](const StatusCheck& c) { return c.planted; });
  if (it == statuses_.end()) it = statuses_.begin();
  it->expected = it->expected == core::Status::kOk ? core::Status::kAlreadySpent
                                                   : core::Status::kOk;
}

void Oracle::Finish(const crypto::RsaPublicKey& cp_key) {
  std::size_t honest_bad = 0;
  std::size_t planted_bad = 0;
  for (const StatusCheck& c : statuses_) {
    if (c.expected == c.got) continue;
    std::size_t& bad = c.planted ? planted_bad : honest_bad;
    if (bad++ < 3) {
      Check(false, c.planted ? "planted-status" : "honest-status",
            std::string(c.what) + " expected " +
                core::StatusName(c.expected) + ", got " +
                core::StatusName(c.got));
    }
  }
  if (honest_bad > 3) {
    Check(false, "honest-status", std::to_string(honest_bad) + " items in all");
  }
  if (planted_bad > 3) {
    Check(false, "planted-status",
          std::to_string(planted_bad) + " items in all");
  }

  std::atomic<std::size_t> bad_sig{0}, bad_kind{0}, bad_binding{0};
  const std::size_t n = licenses_.size();
  const std::size_t chunks = 64;
  ParallelFor(chunks, kSetupThreads, [&](std::size_t c) {
    for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
      const LicenseCheck& l = licenses_[i];
      if (!crypto::RsaVerifyFdh(cp_key, l.license.CanonicalBytes(),
                                l.license.issuer_signature)) {
        ++bad_sig;
      }
      if (l.license.kind != l.kind) ++bad_kind;
      if (l.license.bound_key != l.bound_key) ++bad_binding;
    }
  });
  Check(bad_sig == 0, "license-signature",
        std::to_string(bad_sig) + " of " + std::to_string(n) +
            " licenses do not verify under the CP key");
  Check(bad_kind == 0, "bearer-anonymous",
        std::to_string(bad_kind) + " licenses of the wrong kind");
  Check(bad_binding == 0, "license-binding",
        std::to_string(bad_binding) +
            " licenses not bound to the requesting pseudonym");
}

// -- statistics & phases ----------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::vector<std::pair<bool, double>> PhasePlan(const Options& opt) {
  if (!opt.trace) return {{false, opt.seconds}};
  return {{false, opt.seconds / 2}, {true, opt.seconds / 2}};
}

}  // namespace ledger
