#include "engine/batching.h"

#include <algorithm>

namespace hetis::engine {
namespace {

/// The priority of `lr` under `priorities` (0 for unknown tenants).
int tenant_priority(const std::vector<int>& priorities, const LiveRequest& lr) {
  const int tenant = lr.req.tenant;
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= priorities.size()) return 0;
  return priorities[static_cast<std::size_t>(tenant)];
}

}  // namespace

void priority_enqueue(std::deque<LiveRequest>& queue, LiveRequest lr,
                      const std::vector<int>& priorities, bool requeue_front) {
  if (priorities.empty()) {
    // Historical FCFS path: preempted requests retry from the front.
    if (requeue_front) {
      queue.push_front(std::move(lr));
    } else {
      queue.push_back(std::move(lr));
    }
    return;
  }
  // Keep the queue sorted by (priority desc, id asc); a preempted request
  // naturally re-enters ahead of its class (its id is the oldest pending).
  const int p = tenant_priority(priorities, lr);
  auto it = std::find_if(queue.begin(), queue.end(), [&](const LiveRequest& e) {
    const int ep = tenant_priority(priorities, e);
    return ep < p || (ep == p && e.req.id > lr.req.id);
  });
  queue.insert(it, std::move(lr));
}

bool restart_from_scratch(LiveRequest& lr, MetricsCollector& metrics, Seconds now) {
  if (!lr.prefilled && lr.generated == 0) return false;
  metrics.on_preemption(lr.req.id, now);
  lr.prefilled = false;
  lr.generated = 0;
  return true;
}

void BatchingLoop::submit(sim::Simulation& sim, const workload::Request& r) {
  LiveRequest lr;
  lr.req = r;
  enqueue(sim, std::move(lr));
}

void BatchingLoop::enqueue(sim::Simulation& sim, LiveRequest lr) {
  priority_enqueue(waiting_, std::move(lr), priorities_, /*requeue_front=*/false);
  pump(sim);
}

void BatchingLoop::retire(std::vector<LiveRequest>& out) {
  retired_ = true;
  // The prefill iterations in flight are aborted with the deployment; their
  // requests re-prefill wherever they land next.
  out.insert(out.end(), waiting_.begin(), waiting_.end());
  out.insert(out.end(), prefilling_.begin(), prefilling_.end());
  waiting_.clear();
  prefilling_.clear();
  drain_running(out);
}

void BatchingLoop::pump(sim::Simulation& sim) {
  if (retired_) return;
  const int max_inflight = std::max<int>(1, static_cast<int>(cfg_.stages.size()));
  while (inflight_ < max_inflight) {
    // Prefill-priority: admit waiting prompts up to the token budget.
    std::vector<LiveRequest> prefill_batch;
    if (!batch_pool_.empty()) {
      prefill_batch = std::move(batch_pool_.back());
      batch_pool_.pop_back();
    }
    std::int64_t budget = opts_.max_prefill_tokens;
    while (!waiting_.empty() && running() + prefill_batch.size() < opts_.max_batch) {
      LiveRequest& head = waiting_.front();
      if (head.req.prompt_len > budget && !prefill_batch.empty()) break;
      if (!admit(sim, head)) break;  // no memory for it now; decode instead
      budget -= head.req.prompt_len;
      prefill_batch.push_back(head);
      waiting_.pop_front();
      if (budget <= 0) break;
    }

    if (!prefill_batch.empty()) {
      scratch_lens_.clear();
      for (const auto& lr : prefill_batch) {
        scratch_lens_.push_back(lr.req.prompt_len);
        prefilling_.push_back(lr);
        metrics_->on_prefill_start(lr.req.id, sim.now());
      }
      // Prefill (dense + attention) runs on the pipeline stages -- Hetis's
      // primary pipeline (design idea I1: compute-intensive phases stay on
      // capable devices).
      exec_->prefill_iteration_time(cfg_, scratch_lens_, scratch_it_);
      Seconds issue = std::max(sim.now(), head_free_);
      head_free_ = issue + scratch_it_.interval();
      ++inflight_;
      sim.schedule_at(issue + scratch_it_.latency(),
                      [this, &sim, batch = std::move(prefill_batch)]() mutable {
                        finish_prefill(sim, std::move(batch));
                      });
      continue;
    }
    // Empty, but it may carry recycled capacity worth keeping.
    batch_pool_.push_back(std::move(prefill_batch));

    // A decode depends on the previous decode's state, so the next one is
    // planned only once that one has completed: it never issues before the
    // last decode's end, only behind the pipeline head.
    DecodeStep step;
    if (decode_inflight_ || !plan_decode(sim, step)) return;
    Seconds issue = std::max(sim.now(), head_free_);
    head_free_ = issue + step.interval;
    decode_inflight_ = true;
    ++inflight_;
    sim.schedule_at(issue + step.latency, [this, &sim] { finish_decode(sim); });
    return;
  }
}

void BatchingLoop::finish_prefill(sim::Simulation& sim, std::vector<LiveRequest> batch) {
  if (retired_) {
    // The batch was already handed to the new deployment by retire().
    --inflight_;
    return;
  }
  for (auto& lr : batch) {
    for (auto it = prefilling_.begin(); it != prefilling_.end(); ++it) {
      if (it->req.id == lr.req.id) {
        *it = std::move(prefilling_.back());
        prefilling_.pop_back();
        break;
      }
    }
    lr.prefilled = true;
    lr.generated = 1;  // the first output token is produced by prefill itself
    prefilled(sim, lr);
  }
  batch.clear();
  batch_pool_.push_back(std::move(batch));
  --inflight_;
  pump(sim);
}

void BatchingLoop::finish_decode(sim::Simulation& sim) {
  if (!retired_) finish_decode_batch(sim);
  --inflight_;
  decode_inflight_ = false;
  pump(sim);
}

}  // namespace hetis::engine
