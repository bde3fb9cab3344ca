#ifndef P2DRM_SERVER_BATCH_PIPELINE_H_
#define P2DRM_SERVER_BATCH_PIPELINE_H_

/// \file batch_pipeline.h
/// \brief The generic three-stage batch machinery every metered server
/// flow shares.
///
/// Redeem, purchase, exchange and coin deposit all process a batch the
/// same way; this class is that shape, extracted so each flow supplies
/// only its callbacks instead of its own copy of the stage loop:
///
///   1. **verify** — amortized, read-only classification on the dispatch
///      thread (screened same-key signature checks, memoized certificate
///      checks, shared CRL pass). Returns the surviving item indices;
///      the flow records rejection statuses itself.
///   2. **mutate** — the flow's serialized state change (spent-set
///      inserts on each id's home shard, coin deposits at the bank).
///      This stage is the ONLY backpressure point: an item whose shard
///      queue is full comes back kOverloaded, is reported through
///      `reject`, and never reaches the issue or commit stages — by
///      construction a shed item has no server-side trace and the
///      client may retry it verbatim.
///   3. **issue** — per-item private-key work fanned out through the
///      caller's executor (SignerPool::RunAll on the signer pool, or an
///      inline loop when the provider has no pool). Before the fan-out,
///      `draw_fork` runs on the dispatch thread for every live item in
///      index order — the fork-drawing rule that makes parallel
///      issuance bit-identical to serial under a fixed DRBG seed.
///      A short **commit** tail then applies the result mutations on
///      the dispatch thread, again in index order.
///
/// The pipeline owns stage ordering, the live-item bookkeeping and the
/// per-stage wall timings; it holds no state of its own, so one flow
/// may run it reentrantly with different plans.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/errors.h"
#include "obs/trace.h"

namespace p2drm {
namespace server {

/// Injectable monotonic microsecond source for stage timings. Null means
/// "wall clock" (SteadyNowUs). A deterministic source makes
/// BatchPipelineTimings / ContentProvider::LastBatchTimings testable and
/// lets virtual-time harnesses express service cost in the same timebase
/// as wire latency. Must be safe to call from the issue-stage executor's
/// worker threads.
using TimeSourceUs = std::function<std::uint64_t()>;

/// The default TimeSourceUs: steady_clock, microseconds.
inline std::uint64_t SteadyNowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock per-stage breakdown of one pipeline run (microseconds).
/// `issue_us` is the dispatch thread's wait on the fan-out; the signing
/// work itself accrues wherever the executor runs it.
/// Under the synchronous Run the three stage numbers are consecutive
/// wall spans and `makespan_us` is their end-to-end span (verify start
/// to issue join; the commit tail samples no clock, so it is excluded —
/// same as it always was from the per-stage numbers). Under the
/// streaming StagedBatchPipeline the stage numbers are per-stage BUSY
/// sums across the window's batches while `makespan_us` is the window's
/// wall span — overlap makes makespan < verify+mutate+issue, which is
/// exactly what bench_server_scaling Part G gates.
struct BatchPipelineTimings {
  double verify_us = 0;  ///< stage 1: amortized classification
  double mutate_us = 0;  ///< stage 2: serialized state change
  double issue_us = 0;   ///< stage 3: fork draw + fan-out + join
  double makespan_us = 0;  ///< end-to-end span (see above)
  std::size_t items = 0;     ///< batch size
  std::size_t shed = 0;      ///< items shed kOverloaded at the mutate stage
  std::size_t committed = 0; ///< items that reached issue + commit
};

/// Observability hooks for one flow's pipeline runs: stage spans on the
/// tracer and per-stage latency histograms + shed/item counters on the
/// registry. Either endpoint may be null (off). Span names must be
/// static literals (the tracer stores the pointer); the registry ids are
/// meaningful only when `registry` is non-null — whoever sets the
/// registry registers all five.
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

/// Orchestrates one batch through verify -> mutate -> issue -> commit.
class BatchPipeline {
 public:
  /// Runs \p work(k) for every k in [0, count), returning when all calls
  /// have completed. The work must be thread-safe and write only
  /// disjoint per-k state (ContentProvider::ForEachIssue is the shard
  /// fan-out instance).
  using IssueExecutor = std::function<void(
      std::size_t count, const std::function<void(std::size_t)>& work)>;

  /// One flow's callbacks. Every callback is optional: a null `verify`
  /// admits all items, a null `mutate` maps them all to kOk, and a flow
  /// with no signing work (coin deposits) simply leaves `issue` empty.
  ///
  /// Index vocabulary: `item` is an index into the caller's batch,
  /// `k` is an index into the live set (items that passed verify and
  /// whose mutate status proceeds), assigned in ascending item order.
  struct Plan {
    std::size_t item_count = 0;

    /// Stage 1 (dispatch thread). Records rejection statuses on the
    /// flow's own result array and returns the surviving item indices,
    /// ascending.
    std::function<std::vector<std::size_t>()> verify;

    /// Stage 2 (flow-chosen serialization point). Returns one status
    /// per eligible item, aligned with the argument. kOk always
    /// proceeds to issue; kOverloaded never does.
    std::function<std::vector<core::Status>(
        const std::vector<std::size_t>& eligible)>
        mutate;

    /// Whether a non-kOk, non-kOverloaded mutate status still goes
    /// through issue + commit (redemption signs a fraud-evidence
    /// transcript for kAlreadySpent). Null: only kOk proceeds.
    std::function<bool(core::Status)> proceed;

    /// Called once with the live-item count before any draw_fork call,
    /// so the flow can size its fork/result arrays.
    std::function<void(std::size_t live_count)> begin_issue;

    /// Fork-drawing hook: dispatch thread, ascending k, before the
    /// fan-out. This ordering is what a fixed seed's bit-identical
    /// serial/parallel guarantee rests on.
    std::function<void(std::size_t k, std::size_t item)> draw_fork;

    /// Stage 3 work for live item k. Runs under the executor — possibly
    /// concurrently — and must write only disjoint per-k state.
    std::function<void(std::size_t k, std::size_t item,
                       core::Status mutate_status)>
        issue;

    /// Commit tail for live item k: dispatch thread, ascending k.
    std::function<void(std::size_t k, std::size_t item,
                       core::Status mutate_status)>
        commit;

    /// Called (dispatch thread, ascending item) for every item whose
    /// mutate status did not proceed — including kOverloaded sheds.
    std::function<void(std::size_t item, core::Status mutate_status)> reject;
  };

  /// Runs \p plan to completion. \p executor fans out the issue stage;
  /// when null the issue calls run serially on the dispatch thread.
  /// \p now_us supplies the stage-timing clock (null = steady_clock).
  /// \p pobs, when non-null, receives stage spans and per-stage latency
  /// histograms — all emitted from the dispatch thread.
  static BatchPipelineTimings Run(const Plan& plan,
                                  const IssueExecutor& executor,
                                  const TimeSourceUs& now_us = nullptr,
                                  const PipelineObs* pobs = nullptr);
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_BATCH_PIPELINE_H_
