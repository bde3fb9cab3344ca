#ifndef P2DRM_PERFBENCH_LEDGER_H_
#define P2DRM_PERFBENCH_LEDGER_H_

/// \file ledger.h
/// \brief Shared types of the wall-clock ledger benchmark: run options,
/// the provider stack under test, client cards, per-phase measurements
/// and the correctness oracle.
///
/// The benchmark drives a full core::P2drmSystem through its real wire
/// path (net::Rpc -> Transport -> ServiceRegistry -> providers ->
/// ServerRuntime shards -> SignerPool) from one generator thread. All
/// client-side crypto happens in set-up; the timed phases only send
/// pre-built requests. See perfbench/README.md.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/smartcard.h"
#include "core/system.h"
#include "crypto/drbg.h"
#include "net/rpc.h"
#include "rel/license.h"
#include "server/batch_verifier.h"

namespace ledger {

namespace core = p2drm::core;
namespace crypto = p2drm::crypto;
namespace net = p2drm::net;
namespace rel = p2drm::rel;
namespace server = p2drm::server;

/// Monotonic wall clock in microseconds.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Workload sizes. The defaults are the measured configuration; Toy() is
/// the smoke-test scale (512-bit keys, a few envelopes).
struct Sizes {
  std::size_t server_bits = 2048;  ///< CA / TTP / bank / CP keys
  std::size_t client_bits = 1024;  ///< card master and pseudonym keys
  std::size_t fixture_ids = std::size_t{1} << 21;  ///< transfer journal
  std::size_t titles = 256;
  std::size_t cards = 8;
  std::size_t pseudonyms_per_card = 4;
  std::size_t cheater_cards = 4;
  double buys_per_s = 25;          ///< retail offered rate (open loop, utilisation ~0.17)
  /// Closed-loop work per nominal second: a phase of S seconds runs
  /// round(rate × S) units, about S seconds of work on a 4-core Xeon.
  double transfer_pairs_per_s = 8;   ///< exchange + redeem envelope pairs
  double fraud_rounds_per_s = 1.6;   ///< rounds of 8 envelopes + ProcessFraud
  std::size_t envelope_items = 32;
  std::size_t setups = 3;          ///< stack constructions timed per run
  std::size_t redeem_shards = 2;
  std::size_t signer_pool_size = 3;
  std::size_t deposit_shards = 1;

  static Sizes Toy();
};

/// Where runs keep their journals, traces and result files, relative to
/// the directory the benchmark runs in.
constexpr const char* kOutDir = ".bench_build/ledger";

/// Command-line options.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  bool toy = false;
  /// Test hook: flips the expected status of one planted item before
  /// the oracle runs, so the smoke test can prove the oracle bites.
  bool flip_planted = false;
  std::string commit = "unknown";
  Sizes sizes;
};

/// Seeded DRBG for one purpose of one run.
crypto::HmacDrbg SeededRng(std::uint64_t seed, const std::string& purpose);

// -- the stack under test ----------------------------------------------------

/// One provider stack plus the catalog the workloads buy from.
struct Stack {
  std::unique_ptr<crypto::HmacDrbg> rng;  ///< server-side randomness
  std::unique_ptr<core::P2drmSystem> sys;
  std::vector<rel::ContentId> titles;     ///< priced at coin denominations
  std::vector<std::uint64_t> prices;      ///< index-aligned with titles
  rel::ContentId free_title = 0;          ///< price 0, transferable
};

/// Builds a stack: key generation, endpoint registration, spent-journal
/// replay from \p journal_prefix, catalog publication. This is exactly
/// the span setup_s measures. The keys depend on \p attempt only, so
/// every run does the same key-generation work whatever its seed.
std::unique_ptr<Stack> BuildStack(const Sizes& sizes,
                                  const std::string& journal_prefix,
                                  std::size_t attempt);

core::SystemConfig StackConfig(const Sizes& sizes,
                               const std::string& journal_prefix);

/// A client smart card with its pseudonym pool.
struct Card {
  std::string name;
  std::unique_ptr<crypto::HmacDrbg> rng;  ///< card-internal randomness
  std::unique_ptr<core::SmartCard> card;
  std::uint64_t id = 0;
  std::vector<core::Pseudonym*> pseudonyms;
};

/// Creates, enrols and funds \p count cards with \p pseudonyms each.
/// Key generation runs on worker threads (one card per thread at a
/// time); every CA exchange goes over the wire from the calling thread.
std::vector<std::unique_ptr<Card>> MakeCards(Stack* stack, const Sizes& sizes,
                                             const std::string& prefix,
                                             std::size_t count,
                                             std::size_t pseudonyms,
                                             std::uint64_t seed);

/// Mints \p count more pseudonyms on every card in \p cards.
void AddPseudonyms(Stack* stack, const std::vector<Card*>& cards,
                   std::size_t count);

/// Set-up work (client crypto, oracle checks) uses every core: nothing
/// is being timed then.
constexpr std::size_t kSetupThreads = 4;

/// Runs fn(i) for i in [0, n) on up to \p threads threads; rethrows the
/// first exception after joining.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

/// A license held by a pseudonym together with its possession proof.
struct Held {
  rel::License license;
  Card* card = nullptr;
  core::Pseudonym* pseudonym = nullptr;
  std::vector<std::uint8_t> proof;  ///< TransferChallengeBytes signature
};

/// Buys \p count copies of the free title, round-robin over \p buyers,
/// in batched purchase envelopes, and signs every possession proof.
std::vector<Held> BuyTransferable(
    Stack* stack, const std::vector<std::pair<Card*, core::Pseudonym*>>& buyers,
    std::size_t count);

/// Exchanges held licenses for bearers in set-up (batched envelopes).
std::vector<rel::License> ExchangeInSetup(Stack* stack,
                                          const std::vector<Held>& held);

// -- measurement -------------------------------------------------------------

/// One timed request of a traced phase.
struct RequestTrace {
  const char* kind = "";        ///< withdraw / purchase / exchange / redeem
  double send_us = 0;           ///< actual send time
  double end_us = 0;
  double dispatch_us = 0;       ///< time inside ServiceRegistry::Dispatch
  bool pipeline = false;        ///< went through a CP batch pipeline
  core::ContentProvider::PipelineTimings stages;
  double codec_us = 0;          ///< Encode/Decode of the same envelope
  bool metered = true;          ///< dispatch_us was measured
};

/// Provider counters read at a phase boundary.
struct Snapshot {
  server::BatchVerifierStats verify;
  std::uint64_t pool_busy_us = 0;
  std::uint64_t steals = 0;
  std::uint64_t sheds = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t opened = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::size_t spent_size = 0;
  std::size_t spent_memory = 0;

  static Snapshot Take(Stack* stack, const std::string& journal_prefix,
                       std::size_t shards);
};

/// Everything one timed phase measured.
struct Phase {
  bool traced = false;
  double start_us = 0;
  double duration_s = 0;
  std::uint64_t honest_sent = 0;
  std::uint64_t honest_ok = 0;
  std::vector<double> step1_ms;  ///< latency of the workload's first step
  std::vector<double> step2_ms;  ///< latency of its second step
  std::uint64_t slo_total = 0;
  std::uint64_t slo_met = 0;
  std::vector<double> lag_ms;    ///< open-loop generator lateness
  std::uint64_t fraud_cases = 0;
  std::uint64_t fresh_spends = 0;
  std::uint64_t cert_checks = 0;  ///< pseudonym-cert checks requested
  std::uint64_t cp_items = 0;     ///< items sent to the content provider
  std::uint64_t wire_items = 0;   ///< every item sent over the wire
  std::vector<RequestTrace> requests;  ///< traced phases only
  Snapshot before, after;
};

/// Times every call into ServiceRegistry::Dispatch behind the "cp" and
/// "bank" transport endpoints while installed; restores the plain
/// registries on destruction.
class DispatchMeter {
 public:
  explicit DispatchMeter(core::P2drmSystem* sys);
  ~DispatchMeter();
  DispatchMeter(const DispatchMeter&) = delete;
  DispatchMeter& operator=(const DispatchMeter&) = delete;

  /// Dispatch time of the most recent call, then resets it to 0.
  double TakeUs();

 private:
  core::P2drmSystem* sys_;
  double last_us_ = 0;
};

// -- correctness oracle -------------------------------------------------------

/// Collects every expectation of a run and judges them at the end.
class Oracle {
 public:
  /// Records the status one item got against the one it must get.
  /// \p planted marks a deliberately hostile item.
  void Expect(const char* what, bool planted, core::Status expected,
              core::Status got);
  /// Records a license that must verify under the CP key, be of \p kind
  /// and (for key-bound licenses) be bound to \p bound_key.
  void ExpectLicense(const rel::License& license, rel::LicenseKind kind,
                     const rel::KeyFingerprint& bound_key);
  /// Records a check that is already decided.
  void Check(bool ok, const std::string& check, const std::string& detail);

  /// Flips the expected status of the first planted item (or the first
  /// item if none is planted).
  void FlipOne();

  /// Runs the deferred checks (license signatures in parallel).
  void Finish(const crypto::RsaPublicKey& cp_key);

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t expectations() const { return statuses_.size(); }

 private:
  struct StatusCheck {
    const char* what;
    bool planted;
    core::Status expected;
    core::Status got;
  };
  struct LicenseCheck {
    rel::License license;
    rel::LicenseKind kind;
    rel::KeyFingerprint bound_key;
  };
  std::vector<StatusCheck> statuses_;
  std::vector<LicenseCheck> licenses_;
  std::vector<std::string> failures_;
};

// -- workloads -----------------------------------------------------------------

/// What a workload hands back to the reporting code.
struct RunResult {
  std::vector<Phase> phases;  ///< untraced first; traced last (--trace 1)
  double slo_ms = 0;
  double tail_quantile = 0.9;  ///< the percentile behind step1/step2_tail_ms
  const char* step1 = "";
  const char* step2 = "";
  double replay_probe_s = 0;  ///< store.replay_s (traced runs)
};

/// The per-run context a workload works in.
struct RunContext {
  Options opt;
  std::string run_dir;         ///< temporary directory under kOutDir, removed at exit
  std::string journal_prefix;  ///< CP spent-journal prefix
  std::vector<double> setup_s; ///< one per timed stack construction
  std::unique_ptr<Stack> stack;  ///< the stack the workload runs on
  Oracle oracle;
  std::size_t fixture_ids = 0;
  std::uint64_t expected_spent = 0;  ///< CP spent ids outside the fixture
};

/// Phase plan for a run as (traced, nominal seconds): one untraced phase
/// of --seconds, or (traced runs) an untraced and a traced phase of half
/// that each.
std::vector<std::pair<bool, double>> PhasePlan(const Options& opt);

RunResult RunRetail(RunContext* ctx);
RunResult RunTransfer(RunContext* ctx);
RunResult RunFraud(RunContext* ctx);

// -- statistics ------------------------------------------------------------------

/// Nearest-rank quantile of \p v (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);

}  // namespace ledger

#endif  // P2DRM_PERFBENCH_LEDGER_H_
