#include "server/batch_pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace p2drm {
namespace server {

std::size_t IssueGroupSize(std::size_t live, std::size_t signers) {
  signers = std::max<std::size_t>(signers, 1);
  return std::min((live + signers - 1) / signers, kMaxIssueGroup);
}

BatchPipeline::BatchPipeline(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.pool == nullptr) {
    throw std::invalid_argument("BatchPipeline: Config::pool is required");
  }
}

std::uint64_t BatchPipeline::Now() const {
  return cfg_.now_us != nullptr ? cfg_.now_us() : SteadyNowUs();
}

BatchPipelineTimings BatchPipeline::Run(const Plan& plan,
                                        const PipelineObs* pobs) const {
  BatchPipelineTimings t;
  t.items = plan.item_count;
  obs::Tracer* tracer = pobs != nullptr ? pobs->tracer : nullptr;

  // Stage 1 — verify (amortized, read-only; the flow's callback runs on
  // the dispatch thread and fans its RSA checks out over the pool).
  const std::uint64_t verify_t0 = Now();
  if (tracer != nullptr) tracer->Begin(pobs->span_verify);
  std::vector<std::size_t> eligible;  // verify survivors (item indices)
  if (plan.verify != nullptr) {
    eligible = plan.verify();
  } else {
    eligible.resize(plan.item_count);
    for (std::size_t i = 0; i < plan.item_count; ++i) eligible[i] = i;
  }
  if (tracer != nullptr) tracer->End(pobs->span_verify);
  t.verify_us = static_cast<double>(Now() - verify_t0);

  // Stage 2 — mutate (the flow's serialization point; the only stage
  // that may shed).
  const std::uint64_t mutate_t0 = Now();
  if (tracer != nullptr) tracer->Begin(pobs->span_mutate);
  std::vector<core::Status> mutated;  // per-eligible mutate status
  if (plan.mutate != nullptr) {
    mutated = plan.mutate(eligible);
  } else {
    mutated.assign(eligible.size(), core::Status::kOk);
  }
  if (tracer != nullptr) tracer->End(pobs->span_mutate);
  t.mutate_us = static_cast<double>(Now() - mutate_t0);

  // Partition into the live set (kOk, plus whatever `proceed` admits)
  // and rejections. kOverloaded can never proceed: a shed item must
  // leave no trace beyond its status.
  // Live item k's batch index and mutate status, ascending k.
  std::vector<std::size_t> live_items;
  std::vector<core::Status> live_status;
  live_items.reserve(eligible.size());
  live_status.reserve(eligible.size());
  for (std::size_t j = 0; j < eligible.size(); ++j) {
    core::Status s = mutated[j];
    bool proceeds =
        s == core::Status::kOk ||
        (s != core::Status::kOverloaded && plan.proceed != nullptr &&
         plan.proceed(s));
    if (proceeds) {
      live_items.push_back(eligible[j]);
      live_status.push_back(s);
      continue;
    }
    if (s == core::Status::kOverloaded) ++t.shed;
    if (plan.reject != nullptr) plan.reject(eligible[j], s);
  }
  const std::size_t live = live_items.size();
  t.committed = live;

  // Stage 3 — issue: forks on the dispatch thread, ascending k, then the
  // groups run on the pool and the joining dispatch thread (only the
  // dispatch thread on a zero-worker pool). Each group samples the stage
  // clock around its own work: the sample accrues on its signer's clock
  // and the latest end closes the batch's issue span.
  const std::uint64_t issue_t0 = Now();
  if (plan.begin_issue != nullptr) plan.begin_issue(live);
  if (plan.draw_fork != nullptr) {
    for (std::size_t k = 0; k < live; ++k) plan.draw_fork(k, live_items[k]);
  }
  const std::size_t group = IssueGroupSize(live, cfg_.pool->worker_count() + 1);
  const std::size_t groups = group == 0 ? 0 : (live + group - 1) / group;
  if (tracer != nullptr) tracer->Begin(pobs->span_issue);
  std::uint64_t issue_end;
  if (plan.issue != nullptr && groups > 0) {
    // Per-group issue end, written by whichever thread ran group g.
    std::vector<std::uint64_t> group_end_us(groups);
    cfg_.pool->Run(groups, [&](SignerContext& ctx, std::size_t g) {
      IssueRange range;
      range.begin = g * group;
      range.end = std::min(live, range.begin + group);
      range.items = live_items.data();
      range.statuses = live_status.data();
      std::uint64_t t0 = Now();
      plan.issue(range);
      std::uint64_t t1 = Now();
      ctx.AccrueSimClockUs(t1 - t0);
      group_end_us[g] = t1;
    });
    issue_end = *std::max_element(group_end_us.begin(), group_end_us.end());
  } else {
    issue_end = Now();
  }
  if (tracer != nullptr) tracer->End(pobs->span_issue);
  t.issue_us = static_cast<double>(issue_end - issue_t0);
  t.makespan_us = static_cast<double>(issue_end - verify_t0);

  // Commit tail — dispatch thread, ascending k.
  if (plan.commit != nullptr) {
    for (std::size_t k = 0; k < live; ++k) {
      plan.commit(k, live_items[k], live_status[k]);
    }
  }

  if (pobs != nullptr && pobs->registry != nullptr) {
    obs::Registry* reg = pobs->registry;
    reg->Observe(pobs->hist_verify_us, static_cast<std::uint64_t>(t.verify_us));
    reg->Observe(pobs->hist_mutate_us, static_cast<std::uint64_t>(t.mutate_us));
    reg->Observe(pobs->hist_issue_us, static_cast<std::uint64_t>(t.issue_us));
    reg->Add(pobs->ctr_items, t.items);
    if (t.shed != 0) reg->Add(pobs->ctr_shed, t.shed);
  }
  return t;
}

}  // namespace server
}  // namespace p2drm
