#include "server/batch_pipeline.h"

#include <algorithm>
#include <utility>

namespace p2drm {
namespace server {

struct BatchPipeline::InFlightBatch {
  Plan plan;
  const PipelineObs* pobs = nullptr;
  OnCommit on_commit;

  std::vector<std::size_t> eligible;  // verify survivors (item indices)
  std::vector<core::Status> mutated;  // per-eligible mutate status
  std::vector<std::size_t> live;      // indices into eligible

  void Issue(std::size_t k) {
    std::size_t j = live[k];
    plan.issue(k, eligible[j], mutated[j]);
  }

  SignerPool::Ticket ticket;  // empty unless dealt to the pool
  // Per-k issue end, written by whichever thread ran item k and read
  // after the join.
  std::vector<std::uint64_t> item_end_us;

  std::uint64_t verify_t0 = 0;
  std::uint64_t issue_t0 = 0;
  BatchPipelineTimings t;
};

BatchPipeline::BatchPipeline(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.max_batches_in_flight == 0) cfg_.max_batches_in_flight = 1;
}

BatchPipeline::~BatchPipeline() { Flush(); }

std::uint64_t BatchPipeline::Now() const {
  return cfg_.now_us != nullptr ? cfg_.now_us() : SteadyNowUs();
}

void BatchPipeline::set_observability(obs::Registry* registry,
                                      const std::string& prefix) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  gauge_inflight_ = registry_->Gauge(prefix + "batches_in_flight");
}

void BatchPipeline::Submit(Plan plan, const PipelineObs* pobs,
                           OnCommit on_commit) {
  while (inflight_.size() >= cfg_.max_batches_in_flight) CommitHead();

  auto b = std::make_unique<InFlightBatch>();
  b->plan = std::move(plan);
  b->pobs = pobs;
  b->on_commit = std::move(on_commit);
  b->t.items = b->plan.item_count;
  obs::Tracer* tracer = pobs != nullptr ? pobs->tracer : nullptr;

  // Stage 1 — verify (dispatch thread, amortized, read-only).
  b->verify_t0 = Now();
  if (!window_open_) {
    window_open_ = true;
    window_start_us_ = b->verify_t0;
  }
  if (tracer != nullptr) tracer->Begin(pobs->span_verify);
  if (b->plan.verify != nullptr) {
    b->eligible = b->plan.verify();
  } else {
    b->eligible.resize(b->plan.item_count);
    for (std::size_t i = 0; i < b->plan.item_count; ++i) b->eligible[i] = i;
  }
  if (tracer != nullptr) tracer->End(pobs->span_verify);
  b->t.verify_us = static_cast<double>(Now() - b->verify_t0);

  // Stage 2 — mutate (the flow's serialization point; the only stage
  // that may shed).
  const std::uint64_t mutate_t0 = Now();
  if (tracer != nullptr) tracer->Begin(pobs->span_mutate);
  if (b->plan.mutate != nullptr) {
    b->mutated = b->plan.mutate(b->eligible);
  } else {
    b->mutated.assign(b->eligible.size(), core::Status::kOk);
  }
  if (tracer != nullptr) tracer->End(pobs->span_mutate);
  b->t.mutate_us = static_cast<double>(Now() - mutate_t0);

  // Partition into the live set (kOk, plus whatever `proceed` admits)
  // and rejections. kOverloaded can never proceed: a shed item must
  // leave no trace beyond its status.
  b->live.reserve(b->eligible.size());
  for (std::size_t j = 0; j < b->eligible.size(); ++j) {
    core::Status s = b->mutated[j];
    bool proceeds =
        s == core::Status::kOk ||
        (s != core::Status::kOverloaded && b->plan.proceed != nullptr &&
         b->plan.proceed(s));
    if (proceeds) {
      b->live.push_back(j);
      continue;
    }
    if (s == core::Status::kOverloaded) ++b->t.shed;
    if (b->plan.reject != nullptr) b->plan.reject(b->eligible[j], s);
  }
  b->t.committed = b->live.size();

  // Stage 3 — issue: forks on the dispatch thread, ascending k, then the
  // items go to the pool. Each item samples the stage clock around its
  // own work: the sample accrues on its signer's clock and the latest
  // end closes the batch's issue span.
  b->issue_t0 = Now();
  if (b->plan.begin_issue != nullptr) b->plan.begin_issue(b->live.size());
  if (b->plan.draw_fork != nullptr) {
    for (std::size_t k = 0; k < b->live.size(); ++k) {
      b->plan.draw_fork(k, b->eligible[b->live[k]]);
    }
  }
  if (cfg_.pool != nullptr && b->plan.issue != nullptr && !b->live.empty()) {
    b->item_end_us.resize(b->live.size());
    InFlightBatch* bp = b.get();
    TimeSourceUs now_us = cfg_.now_us;  // workers need their own copy
    b->ticket = cfg_.pool->SubmitBatch(
        b->live.size(), [bp, now_us](SignerContext& ctx, std::size_t k) {
          std::uint64_t t0 = now_us != nullptr ? now_us() : SteadyNowUs();
          bp->Issue(k);
          std::uint64_t t1 = now_us != nullptr ? now_us() : SteadyNowUs();
          ctx.AccrueSimClockUs(t1 - t0);
          bp->item_end_us[k] = t1;
        });
  }

  inflight_.push_back(std::move(b));
  if (registry_ != nullptr) registry_->GaugeAdd(gauge_inflight_, 1);
}

void BatchPipeline::CommitHead() {
  // Popped before any callback runs, so a callback that submits or
  // flushes never sees this batch again.
  std::unique_ptr<InFlightBatch> b = std::move(inflight_.front());
  inflight_.pop_front();
  const PipelineObs* pobs = b->pobs;
  obs::Tracer* tracer = pobs != nullptr ? pobs->tracer : nullptr;

  // Join: the dispatch thread signs whatever the workers have not
  // started (everything, without a pool) and waits for the rest.
  if (tracer != nullptr) tracer->Begin(pobs->span_issue);
  std::uint64_t issue_end;
  if (!b->item_end_us.empty()) {
    cfg_.pool->Join(b->ticket);
    issue_end =
        *std::max_element(b->item_end_us.begin(), b->item_end_us.end());
  } else {
    if (b->plan.issue != nullptr) {
      for (std::size_t k = 0; k < b->live.size(); ++k) b->Issue(k);
    }
    issue_end = Now();
  }
  if (tracer != nullptr) tracer->End(pobs->span_issue);
  b->t.issue_us = static_cast<double>(issue_end - b->issue_t0);
  b->t.makespan_us = static_cast<double>(issue_end - b->verify_t0);

  // Commit tail — dispatch thread, ascending k.
  if (b->plan.commit != nullptr) {
    for (std::size_t k = 0; k < b->live.size(); ++k) {
      std::size_t j = b->live[k];
      b->plan.commit(k, b->eligible[j], b->mutated[j]);
    }
  }

  const BatchPipelineTimings& t = b->t;
  if (pobs != nullptr && pobs->registry != nullptr) {
    obs::Registry* reg = pobs->registry;
    reg->Observe(pobs->hist_verify_us, static_cast<std::uint64_t>(t.verify_us));
    reg->Observe(pobs->hist_mutate_us, static_cast<std::uint64_t>(t.mutate_us));
    reg->Observe(pobs->hist_issue_us, static_cast<std::uint64_t>(t.issue_us));
    reg->Add(pobs->ctr_items, t.items);
    if (t.shed != 0) reg->Add(pobs->ctr_shed, t.shed);
  }

  window_.verify_us += t.verify_us;
  window_.mutate_us += t.mutate_us;
  window_.issue_us += t.issue_us;
  window_.items += t.items;
  window_.shed += t.shed;
  window_.committed += t.committed;
  window_end_us_ = std::max(window_end_us_, issue_end);

  if (registry_ != nullptr) registry_->GaugeAdd(gauge_inflight_, -1);
  if (b->on_commit != nullptr) b->on_commit(t);
}

BatchPipelineTimings BatchPipeline::Flush() {
  while (!inflight_.empty()) CommitHead();
  BatchPipelineTimings t = window_;
  if (window_open_) {
    t.makespan_us = static_cast<double>(window_end_us_ - window_start_us_);
  }
  window_ = BatchPipelineTimings{};
  window_open_ = false;
  window_end_us_ = 0;
  return t;
}

}  // namespace server
}  // namespace p2drm
