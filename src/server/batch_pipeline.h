#ifndef P2DRM_SERVER_BATCH_PIPELINE_H_
#define P2DRM_SERVER_BATCH_PIPELINE_H_

/// \file batch_pipeline.h
/// \brief The one batch orchestrator every metered server flow shares.
///
/// Redeem, purchase, exchange and coin deposit all process a batch the
/// same way; this class is that shape, so each flow supplies only its
/// callbacks instead of its own copy of the stage loop:
///
///   1. **verify** — amortized, read-only classification. The flow's
///      callback runs on the dispatch thread, which keeps the certificate
///      memo, the CRL pass and the status logic serial; its RSA checks
///      (same-key license signatures, possession proofs) fan out over the
///      signer pool through BatchVerifier, joined by the dispatch thread.
///      Returns the surviving item indices; the flow records rejection
///      statuses itself.
///   2. **mutate** — the flow's serialized state change (spent-set
///      inserts on each id's home shard, coin deposits at the bank).
///      This stage is the ONLY backpressure point: an item whose shard
///      queue is full comes back kOverloaded, is reported through
///      `reject`, and never reaches the issue or commit stages — by
///      construction a shed item has no server-side trace and the
///      client may retry it verbatim.
///   3. **issue** — private-key work over groups of live items.
///      `draw_fork` first runs on the dispatch thread for every live item
///      in index order — the fork-drawing rule that makes parallel
///      issuance bit-identical to serial under a fixed DRBG seed — then
///      the live items are cut into contiguous groups of at most
///      kMaxIssueGroup (IssueGroupSize) and the groups are dealt to the
///      signer pool. A flow signs each group's provider-key messages in
///      one crypto::RsaSignFdhMany call.
///   4. **commit** — applies the result mutations on the dispatch
///      thread, in index order, once every issue item has finished.
///
/// `Run(plan)` is one blocking call through all four stages:
///
///   verify (its RSA checks: SignerPool::Run over verify groups) ->
///   mutate -> reject/shed -> draw_fork -> issue (SignerPool::Run over
///   the issue groups: the dispatch thread signs the batch's
///   not-yet-started groups, then waits) -> commit tail
///
/// On a zero-worker pool every verify and issue group runs on the
/// dispatch thread, through the same SignerPool::Run. A batch is finished when Run
/// returns; no state outlives the call.
///
/// Ordering and determinism contract:
///  * The verify callback and draw_fork run on the dispatch thread, so
///    every shared-RNG draw happens there in call order (BatchVerifier
///    draws before it fans out) — which makes pooled issuance
///    bit-identical to inline issuance under a fixed seed.
///  * kOverloaded sheds surface at the mutate stage (reject runs before
///    any issue item) and never reach issue or commit.
///  * The commit tail applies in ascending k, on the dispatch thread,
///    after the issue stage has joined — never "when the signers happen
///    to finish".

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/errors.h"
#include "obs/trace.h"
#include "server/signer_pool.h"

namespace p2drm {
namespace server {

/// Injectable monotonic microsecond source for stage timings. Null means
/// "wall clock" (SteadyNowUs). A deterministic source makes
/// BatchPipelineTimings / ContentProvider::LastBatchTimings testable and
/// lets virtual-time harnesses express service cost in the same timebase
/// as wire latency. On a pool with workers it is also called from the
/// workers, so it must be thread-safe then.
using TimeSourceUs = std::function<std::uint64_t()>;

/// The default TimeSourceUs: steady_clock, microseconds.
inline std::uint64_t SteadyNowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-stage timings of one batch (microseconds): `verify_us` and
/// `mutate_us` are the dispatch thread's wall spans of those stages;
/// `issue_us` runs from the start of the fork draw to the end of the
/// batch's last issue group; `makespan_us` runs from verify start to that
/// issue end (the commit tail is excluded). Busy signing time lives only
/// on the signer clocks (SignerPool::WorkerSimClockUs /
/// JoinerSimClockUs).
struct BatchPipelineTimings {
  double verify_us = 0;
  double mutate_us = 0;
  double issue_us = 0;
  double makespan_us = 0;
  std::size_t items = 0;     ///< batch size
  std::size_t shed = 0;      ///< items shed kOverloaded at the mutate stage
  std::size_t committed = 0; ///< items that reached issue + commit
};

/// Observability hooks for one flow's batches: stage spans on the
/// tracer and per-stage latency histograms + shed/item counters on the
/// registry, all emitted from the dispatch thread. Either endpoint may be
/// null (off). Span names must be static literals (the tracer stores the
/// pointer); the registry ids are meaningful only when `registry` is
/// non-null — whoever sets the registry registers all five. The issue
/// span covers the signing after the fork draw.
struct PipelineObs {
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  const char* span_verify = "pipeline.verify";
  const char* span_mutate = "pipeline.mutate";
  const char* span_issue = "pipeline.issue";
  obs::Registry::Id hist_verify_us = 0;
  obs::Registry::Id hist_mutate_us = 0;
  obs::Registry::Id hist_issue_us = 0;
  obs::Registry::Id ctr_items = 0;
  obs::Registry::Id ctr_shed = 0;
};

/// Most live items in one issue group: one pass of the 8-lane signing
/// kernel (crypto::RsaSignFdhMany, bignum::Montgomery::PowModMb8).
constexpr std::size_t kMaxIssueGroup = 8;

/// Live items per issue group for \p live items on \p signers signers
/// (pool workers plus the joining dispatch thread; 1 on a zero-worker
/// pool):
/// ceil(live / signers), capped at kMaxIssueGroup. Every signer gets a
/// group before any gets a second, and a group never exceeds one
/// signing pass: 32 items on 4 signers make four groups of 8, and a
/// one-item batch is one group of one.
std::size_t IssueGroupSize(std::size_t live, std::size_t signers);

/// One issue group: live items k in [begin, end), ascending, with each
/// one's batch index and mutate status. The arrays are indexed by k
/// and stay valid for the whole issue stage.
struct IssueRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  const std::size_t* items = nullptr;      ///< items[k]: batch index of k
  const core::Status* statuses = nullptr;  ///< statuses[k]: its mutate status

  std::size_t item(std::size_t k) const { return items[k]; }
  core::Status status(std::size_t k) const { return statuses[k]; }
};

/// Orchestrates batches through verify -> mutate -> issue -> commit. Not
/// thread-safe: one instance belongs to one dispatch thread.
class BatchPipeline {
 public:
  /// One flow's callbacks. Every callback is optional: a null `verify`
  /// admits all items, a null `mutate` maps them all to kOk, and a flow
  /// with no signing work (coin deposits) simply leaves `issue` empty.
  ///
  /// Index vocabulary: `item` is an index into the caller's batch,
  /// `k` is an index into the live set (items that passed verify and
  /// whose mutate status proceeds), assigned in ascending item order.
  struct Plan {
    std::size_t item_count = 0;

    /// Stage 1 (called on the dispatch thread; its RSA checks may fan
    /// out over the signer pool, which the dispatch thread joins).
    /// Records rejection statuses on the flow's own result array and
    /// returns the surviving item indices, ascending.
    std::function<std::vector<std::size_t>()> verify;

    /// Stage 2 (flow-chosen serialization point). Returns one status
    /// per eligible item, aligned with the argument. kOk always
    /// proceeds to issue; kOverloaded never does.
    std::function<std::vector<core::Status>(
        const std::vector<std::size_t>& eligible)>
        mutate;

    /// Whether a non-kOk, non-kOverloaded mutate status still goes
    /// through issue + commit (redemption signs both fraud-evidence
    /// transcripts for kAlreadySpent). Null: only kOk proceeds.
    std::function<bool(core::Status)> proceed;

    /// Called once with the live-item count before any draw_fork call,
    /// so the flow can size its fork/result arrays.
    std::function<void(std::size_t live_count)> begin_issue;

    /// Fork-drawing hook: dispatch thread, ascending k, before any
    /// issue item runs. This ordering is what a fixed seed's
    /// bit-identical serial/parallel guarantee rests on.
    std::function<void(std::size_t k, std::size_t item)> draw_fork;

    /// Stage 3 work for one issue group (a contiguous range of live
    /// items, IssueRange). Runs on a pool worker or the joining dispatch
    /// thread — groups possibly concurrently — and must write only the
    /// per-k state of its own range.
    std::function<void(const IssueRange& range)> issue;

    /// Commit tail for live item k: dispatch thread, ascending k.
    std::function<void(std::size_t k, std::size_t item,
                       core::Status mutate_status)>
        commit;

    /// Called (dispatch thread, ascending item) for every item whose
    /// mutate status did not proceed — including kOverloaded sheds.
    std::function<void(std::size_t item, core::Status mutate_status)> reject;
  };

  struct Config {
    /// Issue target; required. A zero-worker pool runs every issue group
    /// on the dispatch thread.
    SignerPool* pool = nullptr;

    /// Stage-timing clock (null = SteadyNowUs).
    TimeSourceUs now_us;
  };

  /// Throws std::invalid_argument when \p cfg has no pool.
  explicit BatchPipeline(Config cfg);

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Runs \p plan through verify -> mutate -> reject/shed -> draw_fork ->
  /// issue -> commit on the calling thread (issue groups also on the
  /// pool) and returns the batch's timings. \p pobs, when non-null,
  /// receives the batch's spans and histograms.
  BatchPipelineTimings Run(const Plan& plan,
                           const PipelineObs* pobs = nullptr) const;

 private:
  std::uint64_t Now() const;

  Config cfg_;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_BATCH_PIPELINE_H_
