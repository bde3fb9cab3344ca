// The three ledger workloads: retail (open-loop purchases), transfer
// (closed-loop exchange + redeem envelopes) and fraud (closed-loop
// hostile redeem envelopes plus TTP de-anonymisation rounds).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <thread>

#include "core/protocol.h"
#include "crypto/blind_rsa.h"
#include "crypto/rsa.h"
#include "ledger.h"

namespace ledger {

namespace proto = core::protocol;
using core::Status;

namespace {

constexpr const char* kCp = core::P2drmSystem::kCpEndpoint;
constexpr const char* kBank = core::P2drmSystem::kBankEndpoint;

/// A closed-loop phase that runs this many times longer than its nominal
/// seconds is cut short (and says so), so a much slower build still ends.
constexpr double kMaxStretch = 3.0;

/// Work units of a phase: nominal rate × phase seconds, at least one.
std::size_t UnitsFor(double per_s, double secs) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(per_s * secs)));
}

double Uniform(crypto::HmacDrbg* rng) {
  std::uint64_t x = 0;
  rng->Fill(reinterpret_cast<std::uint8_t*>(&x), sizeof(x));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::size_t Below(crypto::HmacDrbg* rng, std::size_t n) {
  return std::min(n - 1, static_cast<std::size_t>(Uniform(rng) * n));
}

void SleepUntilUs(double when_us) {
  double wait = when_us - NowUs();
  if (wait > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(wait)));
  }
}

/// The public Encode/Decode work of one envelope, timed apart from the
/// request: every sub-request and its response body go through their
/// codec and a request/response envelope round trip.
template <typename Req>
double CodecUs(const std::vector<Req>& reqs,
               const std::vector<net::RpcResult<typename Req::Response>>&
                   resps) {
  double t0 = NowUs();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    net::RequestEnvelope env;
    env.tag = static_cast<std::uint8_t>(Req::kTag);
    env.payload = reqs[i].Encode();
    net::RequestEnvelope back = net::RequestEnvelope::Decode(env.Encode());
    net::ByteReader r(back.payload);
    Req::Decode(&r);
    if (i < resps.size() && resps[i].ok()) {
      net::ResponseEnvelope renv;
      renv.tag = env.tag;
      renv.status = Status::kOk;
      renv.payload = resps[i].value.Encode();
      Req::Response::Decode(
          net::ResponseEnvelope::Decode(renv.Encode()).payload);
    }
  }
  return NowUs() - t0;
}

/// Records one timed request of a traced phase.
void TraceRequest(Phase* ph, DispatchMeter* meter, core::P2drmSystem* sys,
                  const char* kind, double send_us, double end_us,
                  bool pipeline, double codec_us) {
  if (ph == nullptr || !ph->traced) return;
  RequestTrace t;
  t.kind = kind;
  t.send_us = send_us;
  t.end_us = end_us;
  t.dispatch_us = meter != nullptr ? meter->TakeUs() : 0;
  t.pipeline = pipeline;
  if (pipeline) t.stages = sys->cp().LastBatchTimings();
  t.codec_us = codec_us;
  t.metered = meter != nullptr;
  ph->requests.push_back(t);
}

struct Pool {
  std::vector<std::unique_ptr<Card>> cards;
  std::vector<std::pair<Card*, core::Pseudonym*>> members;

  /// The taker for member j: same pseudonym slot on the next card.
  core::Pseudonym* TakerFor(std::size_t j) const {
    std::size_t c = j % cards.size();
    std::size_t k = j / cards.size();
    return cards[(c + 1) % cards.size()]->pseudonyms[k];
  }
};

/// Cards with their pseudonyms listed slot-major, so any run of
/// cards × pseudonyms consecutive members covers every pseudonym.
Pool MakePool(Stack* stack, const Sizes& sz, const std::string& prefix,
              std::uint64_t seed) {
  Pool pool;
  pool.cards = MakeCards(stack, sz, prefix, sz.cards, sz.pseudonyms_per_card,
                         seed);
  for (std::size_t k = 0; k < sz.pseudonyms_per_card; ++k) {
    for (auto& card : pool.cards) {
      pool.members.push_back({card.get(), card->pseudonyms[k]});
    }
  }
  return pool;
}

Snapshot Take(RunContext* ctx) {
  return Snapshot::Take(ctx->stack.get(), ctx->journal_prefix,
                        ctx->opt.sizes.redeem_shards);
}

}  // namespace

// -- retail ----------------------------------------------------------------------

RunResult RunRetail(RunContext* ctx) {
  const Options& opt = ctx->opt;
  const Sizes& sz = opt.sizes;
  Stack* st = ctx->stack.get();
  core::P2drmSystem& sys = *st->sys;
  RunResult result;
  result.slo_ms = 25;
  // One-item requests run at one of two speeds about 2x apart, depending
  // on where the host places their threads, in a mix that drifts between
  // runs: the purchase's median jumps between the two, and at the p90 the
  // queue behind slow buys moved the buy's tail by a third. The buy's p50
  // (a sum of two requests) and the p75s stay put.
  result.tail_quantile = 0.75;
  result.step1 = "buy";       // withdraw + purchase, from the buy's due time
  result.step2 = "purchase";  // from the withdraw's return

  Pool pool = MakePool(st, sz, "buyer", opt.seed);
  std::map<const Card*, net::Rpc> identified;  // withdraws name the card
  for (auto& card : pool.cards) {
    identified.emplace(card.get(), net::Rpc(&sys.transport(), card->name));
  }
  net::Rpc anon(&sys.transport(), "buyer");

  // Inputs: warm-up buys (every pseudonym, every denomination), then per
  // phase a Poisson schedule conditioned on its expected count (uniform
  // order statistics), Zipf(1.0) titles, 1 in 50 purchases re-spending a
  // recently deposited coin.
  crypto::HmacDrbg rng = SeededRng(opt.seed, "retail/inputs");
  std::vector<double> zipf_cdf(st->titles.size());
  double total = 0;
  for (std::size_t k = 0; k < zipf_cdf.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    zipf_cdf[k] = total;
  }
  auto zipf = [&] {
    double u = Uniform(&rng) * total;
    auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return std::min<std::size_t>(it - zipf_cdf.begin(), zipf_cdf.size() - 1);
  };

  struct Buy {
    double at_us = 0;  ///< offset from its phase start
    std::size_t who = 0;
    std::size_t title = 0;
    bool respend = false;
    std::size_t respend_of = 0;
    core::Coin coin;
    crypto::BlindingContext blind;
  };
  std::vector<Buy> buys;
  std::vector<std::size_t> honest_so_far;
  auto add_buy = [&](double at_us, std::size_t who, std::size_t title,
                     bool respend) {
    Buy b;
    b.at_us = at_us;
    b.who = who;
    b.title = title;
    b.respend = respend && honest_so_far.size() >= 2;
    if (b.respend) {
      // Same title as the coin's first purchase, so the price matches and
      // only the deposit can refuse it.
      std::size_t back = std::min<std::size_t>(32, honest_so_far.size() - 1);
      b.respend_of = honest_so_far[honest_so_far.size() - 1 - Below(&rng, back)];
      b.title = buys[b.respend_of].title;
    } else {
      honest_so_far.push_back(buys.size());
    }
    buys.push_back(std::move(b));
  };
  const std::size_t warmup = pool.members.size();
  for (std::size_t j = 0; j < warmup; ++j) {
    add_buy(0, j, j % core::PaymentProvider::Denominations().size(), false);
  }
  const auto plan = PhasePlan(opt);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t timed = 0;
  for (const auto& [traced, secs] : plan) {
    (void)traced;
    std::size_t n = UnitsFor(sz.buys_per_s, secs);
    std::vector<double> at(n);
    for (double& t : at) t = Uniform(&rng) * secs * 1e6;
    std::sort(at.begin(), at.end());
    std::size_t first = buys.size();
    for (double t : at) {
      add_buy(t, Below(&rng, pool.members.size()), zipf(),
              timed++ % 50 == 25);
    }
    ranges.push_back({first, buys.size()});
  }

  // Coins and their blinding, one DRBG per buy so set-up can use every
  // core and stay seed-deterministic.
  ParallelFor(buys.size(), kSetupThreads, [&](std::size_t i) {
    Buy& b = buys[i];
    if (b.respend) return;
    crypto::HmacDrbg coin_rng =
        SeededRng(opt.seed, "retail/coin/" + std::to_string(i));
    coin_rng.Fill(b.coin.serial.data(), b.coin.serial.size());
    b.coin.denomination = static_cast<std::uint32_t>(st->prices[b.title]);
    b.blind = crypto::BlindMessage(
        sys.bank().DenominationKey(b.coin.denomination),
        b.coin.CanonicalBytes(), &coin_rng);
  });

  std::vector<core::Coin> coins(buys.size());
  std::vector<bool> withdrawn(buys.size(), false);
  auto run_buy = [&](std::size_t i, double due_us, Phase* ph,
                     DispatchMeter* meter) {
    Buy& b = buys[i];
    Card* card = pool.members[b.who].first;
    core::Pseudonym* pseudonym = pool.members[b.who].second;
    core::Coin coin;
    double purchase_due = due_us;
    bool withdraw_in_slo = true;
    if (!b.respend) {
      proto::WithdrawRequest req;
      req.account = card->name;
      req.denomination = b.coin.denomination;
      req.blinded = b.blind.blinded;
      double t0 = NowUs();
      auto resp = identified.at(card).Call(kBank, req);
      double t1 = NowUs();
      ctx->oracle.Expect("withdraw", false, Status::kOk, resp.status);
      if (ph != nullptr) {
        ph->lag_ms.push_back((t0 - due_us) / 1000);
        ph->honest_sent += 1;
        ph->honest_ok += resp.ok() ? 1 : 0;
        ph->wire_items += 1;
        withdraw_in_slo = resp.ok() && (t1 - due_us) / 1000 <= result.slo_ms;
        double codec = ph->traced ? CodecUs(std::vector<proto::WithdrawRequest>{req},
                                            std::vector<decltype(resp)>{resp})
                                  : 0;
        TraceRequest(ph, meter, &sys, "withdraw", t0, t1, false, codec);
      }
      if (!resp.ok()) {
        ctx->oracle.Expect("purchase", false, Status::kOk, resp.status);
        if (ph != nullptr) {
          ph->honest_sent += 1;
          ph->slo_total += 1;
        }
        return;
      }
      coin = b.coin;
      coin.signature =
          crypto::Unblind(sys.bank().DenominationKey(coin.denomination),
                          b.blind, resp.value.blind_signature);
      coins[i] = coin;
      withdrawn[i] = true;
      purchase_due = t1;
    } else {
      coin = coins[b.respend_of];
    }

    std::vector<proto::PurchaseRequest> env(1);
    env[0].buyer = pseudonym->cert;
    env[0].content_id = st->titles[b.title];
    env[0].payment = {coin};
    double t2 = NowUs();
    auto resps = anon.CallBatchAnonymous(kCp, env);
    double t3 = NowUs();
    const Status got = resps[0].status;
    if (b.respend) {
      ctx->oracle.Expect("re-spent coin", true, Status::kDoubleSpend, got);
    } else {
      ctx->oracle.Expect("purchase", false, Status::kOk, got);
      if (resps[0].ok()) {
        ctx->oracle.ExpectLicense(resps[0].value.license,
                                  rel::LicenseKind::kUserBound,
                                  pseudonym->cert.KeyId());
      }
    }
    if (ph == nullptr) return;
    ph->cp_items += 1;
    ph->cert_checks += 1;
    ph->wire_items += 1;
    if (!b.respend) {
      double ms = (t3 - purchase_due) / 1000;
      ph->step1_ms.push_back((t3 - due_us) / 1000);
      ph->step2_ms.push_back(ms);
      ph->honest_sent += 1;
      ph->honest_ok += resps[0].ok() ? 1 : 0;
      ph->slo_total += 1;
      ph->slo_met += withdraw_in_slo && resps[0].ok() && ms <= result.slo_ms;
    }
    double codec = ph->traced ? CodecUs(env, resps) : 0;
    TraceRequest(ph, meter, &sys, "purchase", t2, t3, true, codec);
  };

  for (std::size_t i = 0; i < warmup; ++i) run_buy(i, NowUs(), nullptr, nullptr);

  for (std::size_t p = 0; p < plan.size(); ++p) {
    Phase ph;
    ph.traced = plan[p].first;
    ph.before = Take(ctx);
    std::unique_ptr<DispatchMeter> meter;
    if (ph.traced) meter = std::make_unique<DispatchMeter>(&sys);
    ph.start_us = NowUs() + 1000;
    for (std::size_t i = ranges[p].first; i < ranges[p].second; ++i) {
      double due = ph.start_us + buys[i].at_us;
      SleepUntilUs(due);
      run_buy(i, due, &ph, meter.get());
    }
    ph.duration_s = (NowUs() - ph.start_us) / 1e6;
    meter.reset();
    ph.after = Take(ctx);
    result.phases.push_back(std::move(ph));
  }

  std::size_t bad_coins = 0;
  for (std::size_t i = 0; i < buys.size(); ++i) {
    if (!withdrawn[i]) continue;
    if (!crypto::RsaVerifyFdh(sys.bank().DenominationKey(coins[i].denomination),
                              coins[i].CanonicalBytes(), coins[i].signature)) {
      ++bad_coins;
    }
  }
  ctx->oracle.Check(bad_coins == 0, "coin-signature",
                    std::to_string(bad_coins) + " withdrawn coins do not verify");
  return result;
}


// -- transfer --------------------------------------------------------------------

/// Latency limit of one 32-item envelope on the closed loops. Envelopes
/// take 40-70 ms at the median and at most ~110 ms at p90 on a 4-core
/// Xeon, so slo_ratio there stays 1.0 until latency roughly doubles: it
/// guards against a gross regression; the step latencies carry the rest.
constexpr double kEnvelopeLimitMs = 150;

RunResult RunTransfer(RunContext* ctx) {
  const Options& opt = ctx->opt;
  const Sizes& sz = opt.sizes;
  Stack* st = ctx->stack.get();
  core::P2drmSystem& sys = *st->sys;
  RunResult result;
  result.slo_ms = kEnvelopeLimitMs;
  result.step1 = "exchange";
  result.step2 = "redeem";

  Pool pool = MakePool(st, sz, "holder", opt.seed);
  const std::size_t E = sz.envelope_items;

  // Closed loop with a fixed amount of work per phase (so inputs, memory
  // and sample counts do not depend on how fast this build is), sized
  // to take about --seconds today.
  const auto plan = PhasePlan(opt);
  std::vector<std::size_t> phase_pairs;
  std::size_t pairs = 1;  // the warm-up pair
  for (const auto& [traced, secs] : plan) {
    (void)traced;
    phase_pairs.push_back(UnitsFor(sz.transfer_pairs_per_s, secs));
    pairs += phase_pairs.back();
  }
  std::vector<Held> held = BuyTransferable(st, pool.members, pairs * E);

  net::Rpc anon(&sys.transport(), "holder");
  std::size_t next = 0;
  // One exchange envelope, then one redeem envelope of the bearers it
  // returned, each taken by the same pseudonym slot on the next card.
  auto run_pair = [&](Phase* ph, DispatchMeter* meter) {
    const std::size_t base = next++ * E;
    std::vector<proto::ExchangeRequest> xreqs(E);
    for (std::size_t j = 0; j < E; ++j) {
      xreqs[j].license = held[base + j].license;
      xreqs[j].possession_sig = held[base + j].proof;
    }
    double t0 = NowUs();
    auto xresps = anon.CallBatchAnonymous(kCp, xreqs);
    double t1 = NowUs();
    if (ph != nullptr && ph->traced) {
      TraceRequest(ph, meter, &sys, "exchange", t0, t1, true,
                   CodecUs(xreqs, xresps));
    }

    std::vector<proto::RedeemRequest> rreqs;
    std::vector<core::Pseudonym*> takers;
    for (std::size_t j = 0; j < E; ++j) {
      ctx->oracle.Expect("exchange", false, Status::kOk, xresps[j].status);
      if (!xresps[j].ok()) continue;
      const rel::License& bearer = xresps[j].value.anonymous_license;
      ctx->oracle.ExpectLicense(bearer, rel::LicenseKind::kAnonymous,
                                rel::KeyFingerprint{});
      takers.push_back(pool.TakerFor((base + j) % pool.members.size()));
      proto::RedeemRequest r;
      r.anonymous_license = bearer;
      r.taker = takers.back()->cert;
      rreqs.push_back(std::move(r));
    }
    const std::size_t xok = rreqs.size();
    double t2 = NowUs();
    auto rresps = anon.CallBatchAnonymous(kCp, rreqs);
    double t3 = NowUs();
    if (ph != nullptr && ph->traced) {
      TraceRequest(ph, meter, &sys, "redeem", t2, t3, true,
                   CodecUs(rreqs, rresps));
    }
    std::size_t rok = 0;
    for (std::size_t j = 0; j < rreqs.size(); ++j) {
      ctx->oracle.Expect("redeem", false, Status::kOk, rresps[j].status);
      if (!rresps[j].ok()) continue;
      ++rok;
      ctx->oracle.ExpectLicense(rresps[j].value.license,
                                rel::LicenseKind::kUserBound,
                                takers[j]->cert.KeyId());
    }
    ctx->expected_spent += xok + rok;
    if (ph == nullptr) return;
    const double xms = (t1 - t0) / 1000;
    const double rms = (t3 - t2) / 1000;
    ph->step1_ms.push_back(xms);
    ph->step2_ms.push_back(rms);
    ph->slo_total += 2;
    ph->slo_met += (xms <= result.slo_ms && xok == E ? 1 : 0) +
                   (rms <= result.slo_ms && rok == E ? 1 : 0);
    ph->honest_sent += 2 * E;
    ph->honest_ok += xok + rok;
    ph->fresh_spends += xok + rok;
    ph->cp_items += E + xok;
    ph->cert_checks += xok;
    ph->wire_items += E + xok;
  };

  run_pair(nullptr, nullptr);  // warm-up: every giver and taker pseudonym

  for (std::size_t p = 0; p < plan.size(); ++p) {
    Phase ph;
    ph.traced = plan[p].first;
    ph.before = Take(ctx);
    std::unique_ptr<DispatchMeter> meter;
    if (ph.traced) meter = std::make_unique<DispatchMeter>(&sys);
    ph.start_us = NowUs();
    for (std::size_t k = 0; k < phase_pairs[p]; ++k) {
      if (NowUs() - ph.start_us > kMaxStretch * plan[p].second * 1e6) {
        std::cerr << "transfer: phase cut after " << k << " of "
                  << phase_pairs[p] << " envelope pairs\n";
        break;
      }
      run_pair(&ph, meter.get());
    }
    ph.duration_s = (NowUs() - ph.start_us) / 1e6;
    meter.reset();
    ph.after = Take(ctx);
    result.phases.push_back(std::move(ph));
  }
  return result;
}

// -- fraud -----------------------------------------------------------------------

RunResult RunFraud(RunContext* ctx) {
  const Options& opt = ctx->opt;
  const Sizes& sz = opt.sizes;
  Stack* st = ctx->stack.get();
  core::P2drmSystem& sys = *st->sys;
  RunResult result;
  result.slo_ms = kEnvelopeLimitMs;
  result.step1 = "redeem";
  result.step2 = "deanon-per-case";

  constexpr std::size_t kEnvelopesPerRound = 8;
  constexpr std::size_t kFresh = 16;
  constexpr std::size_t kDoubles = 8;
  constexpr std::size_t kForged = 8;
  const std::size_t warm = sz.cards * sz.pseudonyms_per_card;

  Pool pool = MakePool(st, sz, "holder", opt.seed);
  auto cheaters = MakeCards(st, sz, "cheater", sz.cheater_cards, 0, opt.seed);

  // Fixed work per phase, as in transfer; every fresh bearer is bought
  // and exchanged up front.
  const auto plan = PhasePlan(opt);
  std::vector<std::size_t> phase_rounds;
  std::size_t rounds = 0;
  for (const auto& [traced, secs] : plan) {
    (void)traced;
    phase_rounds.push_back(UnitsFor(sz.fraud_rounds_per_s, secs));
    rounds += phase_rounds.back();
  }
  const std::size_t need = warm + rounds * kEnvelopesPerRound * kFresh;
  std::vector<Held> held = BuyTransferable(st, pool.members, need);
  std::vector<rel::License> bearers = ExchangeInSetup(st, held);
  ctx->expected_spent += bearers.size();
  held.clear();

  // One fresh pseudonym per cheater card per round (slot 0 for the
  // warm-up round): a revoked pseudonym cannot cheat twice.
  std::vector<Card*> cheater_cards;
  for (auto& c : cheaters) cheater_cards.push_back(c.get());
  AddPseudonyms(st, cheater_cards, rounds + 1);

  net::Rpc anon(&sys.transport(), "holder");
  crypto::HmacDrbg order_rng = SeededRng(opt.seed, "fraud/order");

  enum class Role { kFresh, kDouble, kForged, kRevokedProbe };
  struct Slot {
    Role role;
    proto::RedeemRequest req;
    core::Pseudonym* taker;
    std::uint64_t cheater_id = 0;
  };
  auto expected_of = [](Role r) {
    switch (r) {
      case Role::kFresh: return Status::kOk;
      case Role::kDouble: return Status::kAlreadySpent;
      case Role::kForged: return Status::kBadSignature;
      case Role::kRevokedProbe: return Status::kRevoked;
    }
    return Status::kOk;
  };
  auto role_name = [](Role r) {
    switch (r) {
      case Role::kFresh: return "fresh redeem";
      case Role::kDouble: return "double redemption";
      case Role::kForged: return "forged bearer";
      case Role::kRevokedProbe: return "revoked pseudonym";
    }
    return "";
  };

  // Sends one envelope and checks every slot; returns the cheater ids the
  // TTP must name for it.
  auto send = [&](std::vector<Slot>& slots, Phase* ph, DispatchMeter* meter) {
    std::vector<proto::RedeemRequest> reqs;
    for (const Slot& s : slots) reqs.push_back(s.req);
    double t0 = NowUs();
    auto resps = anon.CallBatchAnonymous(kCp, reqs);
    double t1 = NowUs();
    if (ph != nullptr && ph->traced) {
      TraceRequest(ph, meter, &sys, "redeem", t0, t1, true,
                   CodecUs(reqs, resps));
    }
    std::vector<std::uint64_t> cheats;
    std::size_t fresh = 0, fresh_ok = 0, certs = 0;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const Slot& s = slots[j];
      ctx->oracle.Expect(role_name(s.role), s.role != Role::kFresh,
                         expected_of(s.role), resps[j].status);
      if (s.role != Role::kForged) ++certs;
      if (s.role == Role::kDouble) cheats.push_back(s.cheater_id);
      if (s.role != Role::kFresh) continue;
      ++fresh;
      if (!resps[j].ok()) continue;
      ++fresh_ok;
      ctx->oracle.ExpectLicense(resps[j].value.license,
                                rel::LicenseKind::kUserBound,
                                s.taker->cert.KeyId());
    }
    ctx->expected_spent += fresh_ok;
    if (ph != nullptr) {
      const double ms = (t1 - t0) / 1000;
      ph->step1_ms.push_back(ms);
      ph->slo_total += 1;
      ph->slo_met += ms <= result.slo_ms && fresh_ok == fresh ? 1 : 0;
      ph->honest_sent += fresh;
      ph->honest_ok += fresh_ok;
      ph->fresh_spends += fresh_ok;
      ph->cp_items += slots.size();
      ph->cert_checks += certs;
      ph->wire_items += slots.size();
    }
    return cheats;
  };

  // One ProcessFraud round: the TTP must name exactly the planted
  // cheaters, one per double redemption.
  auto deanon = [&](std::vector<std::uint64_t> expected, Phase* ph) {
    double t0 = NowUs();
    std::vector<std::uint64_t> named = sys.ProcessFraud();
    double t1 = NowUs();
    std::sort(expected.begin(), expected.end());
    std::sort(named.begin(), named.end());
    ctx->oracle.Check(named == expected, "fraud-cheaters",
                      "TTP named " + std::to_string(named.size()) +
                          " card ids for " + std::to_string(expected.size()) +
                          " planted double redemptions");
    if (ph == nullptr || expected.empty()) return;
    ph->step2_ms.push_back((t1 - t0) / 1000 / expected.size());
    ph->fraud_cases += expected.size();
    ph->wire_items += expected.size();
    if (ph->traced) {
      RequestTrace t;
      t.kind = "deanon";
      t.send_us = t0;
      t.end_us = t1;
      t.metered = false;
      ph->requests.push_back(t);
    }
  };

  auto forge = [](rel::License lic) {
    lic.issuer_signature.back() ^= 0x01;
    return lic;
  };

  // Warm-up: every honest pseudonym redeems once, then one double
  // redemption per cheater card (slot 0) and a ProcessFraud round, so the
  // TTP key and the revocation path are warm too.
  {
    std::vector<Slot> slots;
    for (std::size_t j = 0; j < warm; ++j) {
      core::Pseudonym* taker = pool.members[j].second;
      slots.push_back(Slot{Role::kFresh, {bearers[j], taker->cert}, taker, 0});
    }
    send(slots, nullptr, nullptr);
    slots.clear();
    for (Card* c : cheater_cards) {
      core::Pseudonym* p = c->pseudonyms[0];
      slots.push_back(Slot{Role::kDouble,
                           {bearers[slots.size()], p->cert}, p, c->id});
    }
    deanon(send(slots, nullptr, nullptr), nullptr);
  }

  std::size_t envelope = 0;  // global timed envelope index
  std::size_t round = 0;
  auto run_round = [&](Phase* ph, DispatchMeter* meter) {
    std::vector<std::uint64_t> cheats;
    for (std::size_t e = 0; e < kEnvelopesPerRound; ++e, ++envelope) {
      const std::size_t fresh_base = warm + envelope * kFresh;
      // Doubles re-present bearers redeemed in the previous envelope (the
      // warm-up one for the first); slot 1 of that range is kept for the
      // revoked-pseudonym probe.
      auto redeemed = [&](std::size_t k) {
        return envelope == 0 ? bearers[cheater_cards.size() + k]
                             : bearers[fresh_base - kFresh + k];
      };
      std::vector<Slot> slots;
      for (std::size_t j = 0; j < kFresh; ++j) {
        core::Pseudonym* taker =
            pool.members[(envelope * kFresh + j) % pool.members.size()].second;
        slots.push_back(
            Slot{Role::kFresh, {bearers[fresh_base + j], taker->cert}, taker, 0});
      }
      for (std::size_t j = 0; j < kDoubles; ++j) {
        Card* c = cheater_cards[j % cheater_cards.size()];
        core::Pseudonym* p = c->pseudonyms[round + 1];
        slots.push_back(
            Slot{Role::kDouble, {redeemed(2 * j), p->cert}, p, c->id});
      }
      for (std::size_t j = 0; j < kForged; ++j) {
        core::Pseudonym* taker = pool.members[j].second;
        if (e == 0 && j == 0) {
          // The previous round's cheater, already revoked.
          core::Pseudonym* p = cheater_cards[0]->pseudonyms[round];
          slots.push_back(Slot{Role::kRevokedProbe, {redeemed(1), p->cert}, p,
                               cheater_cards[0]->id});
          continue;
        }
        slots.push_back(Slot{Role::kForged,
                             {forge(bearers[fresh_base + j]), taker->cert},
                             taker, 0});
      }
      for (std::size_t j = slots.size(); j > 1; --j) {
        std::swap(slots[j - 1], slots[Below(&order_rng, j)]);
      }
      for (std::uint64_t id : send(slots, ph, meter)) cheats.push_back(id);
    }
    deanon(std::move(cheats), ph);
    ++round;
  };

  for (std::size_t p = 0; p < plan.size(); ++p) {
    Phase ph;
    ph.traced = plan[p].first;
    ph.before = Take(ctx);
    std::unique_ptr<DispatchMeter> meter;
    if (ph.traced) meter = std::make_unique<DispatchMeter>(&sys);
    ph.start_us = NowUs();
    for (std::size_t k = 0; k < phase_rounds[p]; ++k) {
      if (NowUs() - ph.start_us > kMaxStretch * plan[p].second * 1e6) {
        std::cerr << "fraud: phase cut after " << k << " of "
                  << phase_rounds[p] << " rounds\n";
        break;
      }
      run_round(&ph, meter.get());
    }
    ph.duration_s = (NowUs() - ph.start_us) / 1e6;
    meter.reset();
    ph.after = Take(ctx);
    result.phases.push_back(std::move(ph));
  }
  return result;
}

}  // namespace ledger
