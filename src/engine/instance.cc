#include "engine/instance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.h"

namespace hetis::engine {

int tenant_priority(const std::vector<int>& priorities, const LiveRequest& lr) {
  const int tenant = lr.req.tenant;
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= priorities.size()) return 0;
  return priorities[static_cast<std::size_t>(tenant)];
}

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

Bytes stage_param_bytes_per_device(const model::ModelSpec& m, const parallel::StageConfig& s,
                                   bool first, bool last) {
  Bytes layer_shard = m.layer_param_bytes() * s.layers / std::max(1, s.tp());
  Bytes embed = 0;
  Bytes embed_total = static_cast<Bytes>(m.vocab) * m.hidden * m.dtype_bytes;
  if (first) embed += embed_total / std::max(1, s.tp());
  if (last) embed += embed_total / std::max(1, s.tp());
  return layer_shard + embed;
}

PipelineInstance::PipelineInstance(const ExecModel& exec, parallel::InstanceConfig cfg,
                                   MetricsCollector& metrics, InstanceOptions opts, int id)
    : exec_(&exec), cfg_(std::move(cfg)), metrics_(&metrics), opts_(opts), id_(id) {
  const model::ModelSpec& m = exec_->model_spec();
  stage_cap_.resize(cfg_.stages.size(), 0);
  stage_used_.resize(cfg_.stages.size(), 0);
  per_token_.resize(cfg_.stages.size(), 0);
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    const auto& stage = cfg_.stages[k];
    Bytes params = stage_param_bytes_per_device(m, stage, k == 0, k + 1 == cfg_.stages.size()) +
                   stage.extra_reserved;
    Bytes budget = 0;
    for (int dev : stage.devices) {
      budget += kv_budget(exec_->cluster().device(dev).spec(), params);
    }
    stage_cap_[k] = budget;
    per_token_[k] = m.kv_bytes_per_token_layer() * stage.layers;
  }
}

Bytes PipelineInstance::kv_capacity() const {
  Bytes total = 0;
  for (Bytes c : stage_cap_) total += c;
  return total;
}

Bytes PipelineInstance::usable_kv_capacity() const {
  // Tokens the tightest stage can hold bound the whole pipeline.
  double min_tokens = std::numeric_limits<double>::infinity();
  Bytes per_token_total = 0;
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    if (per_token_[k] <= 0) continue;
    min_tokens = std::min(min_tokens,
                          static_cast<double>(stage_cap_[k]) / static_cast<double>(per_token_[k]));
    per_token_total += per_token_[k];
  }
  if (!std::isfinite(min_tokens)) return 0;
  return static_cast<Bytes>(min_tokens * static_cast<double>(per_token_total));
}

Bytes PipelineInstance::kv_used() const {
  Bytes total = 0;
  for (Bytes u : stage_used_) total += u;
  return total;
}

double PipelineInstance::fill_fraction() const {
  double worst = 0;
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    if (stage_cap_[k] > 0) {
      worst = std::max(worst,
                       static_cast<double>(stage_used_[k]) / static_cast<double>(stage_cap_[k]));
    }
  }
  return worst;
}

bool PipelineInstance::can_reserve(std::int64_t tokens) const {
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    if (stage_used_[k] + per_token_[k] * tokens > stage_cap_[k]) return false;
  }
  return true;
}

void PipelineInstance::reserve_tokens(std::int64_t tokens) {
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    stage_used_[k] += per_token_[k] * tokens;
  }
}

void PipelineInstance::release_tokens(std::int64_t tokens) {
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    stage_used_[k] -= per_token_[k] * tokens;
    if (stage_used_[k] < 0) throw std::logic_error("PipelineInstance: negative memory");
  }
}

bool PipelineInstance::has_room(std::int64_t tokens) const { return can_reserve(tokens); }

void PipelineInstance::release_prefilled(const LiveRequest& lr) { release_tokens(lr.context()); }

void PipelineInstance::submit(sim::Simulation& sim, const workload::Request& r) {
  LiveRequest lr;
  lr.req = r;
  priority_enqueue(waiting_, std::move(lr), priorities_, /*requeue_front=*/false);
  kick(sim);
}

DrainedRequests PipelineInstance::retire() {
  retired_ = true;
  DrainedRequests out;
  for (auto& lr : waiting_) out.fresh.push_back(lr);
  for (auto& lr : prefilling_) {
    // The prefill iteration is aborted with the deployment; the request
    // re-prefills wherever it lands next.
    LiveRequest f = lr;
    f.prefilled = false;
    f.generated = 0;
    out.fresh.push_back(std::move(f));
  }
  for (auto& lr : running_) out.live.push_back(lr);
  waiting_.clear();
  running_.clear();
  prefilling_.clear();
  auto by_id = [](const LiveRequest& a, const LiveRequest& b) { return a.req.id < b.req.id; };
  std::sort(out.fresh.begin(), out.fresh.end(), by_id);
  std::sort(out.live.begin(), out.live.end(), by_id);
  return out;
}

bool PipelineInstance::submit_prefilled(sim::Simulation& sim, const LiveRequest& lr) {
  // The caller (Splitwise migration path) must have checked has_room.
  if (!can_reserve(lr.context())) return false;
  reserve_tokens(lr.context());
  running_.push_back(lr);
  kick(sim);
  return true;
}

bool PipelineInstance::reserve_incoming(std::int64_t tokens) {
  if (!can_reserve(tokens)) return false;
  reserve_tokens(tokens);
  return true;
}

void PipelineInstance::submit_reserved(sim::Simulation& sim, const LiveRequest& lr) {
  // Space was taken by reserve_incoming; just activate the request.
  running_.push_back(lr);
  kick(sim);
}

bool PipelineInstance::admit(const LiveRequest& lr) {
  // Reserve the prompt plus the first output token so the memory invariant
  // (reserved == context()) holds from prefill completion onward.
  if (!can_reserve(lr.req.prompt_len + 1)) return false;
  reserve_tokens(lr.req.prompt_len + 1);
  return true;
}

void PipelineInstance::kick(sim::Simulation& sim) { pump(sim); }

void PipelineInstance::pump(sim::Simulation& sim) {
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
    while (!waiting_.empty() && running_.size() + prefill_batch.size() < opts_.max_batch) {
      LiveRequest& head = waiting_.front();
      if (head.req.prompt_len > budget && !prefill_batch.empty()) break;
      if (!admit(head)) break;  // stage memory exhausted; decode instead
      budget -= head.req.prompt_len;
      prefill_batch.push_back(head);
      waiting_.pop_front();
      if (budget <= 0) break;
    }

    if (!prefill_batch.empty()) {
      scratch_lens_.clear();
      scratch_lens_.reserve(prefill_batch.size());
      for (const auto& lr : prefill_batch) {
        scratch_lens_.push_back(lr.req.prompt_len);
        prefilling_.push_back(lr);
        metrics_->on_prefill_start(lr.req.id, sim.now());
      }
      exec_->iteration_time(cfg_, scratch_lens_, /*prefill=*/true, scratch_it_);
      const IterationTime& it = scratch_it_;
      Seconds issue = std::max(sim.now(), head_free_);
      head_free_ = issue + it.interval();
      ++inflight_;
      sim.schedule_at(issue + it.latency(),
                      [this, &sim, batch = std::move(prefill_batch)]() mutable {
                        finish_prefill_iteration(sim, std::move(batch));
                      });
      continue;
    }
    // Empty, but it may carry recycled capacity worth keeping.
    batch_pool_.push_back(std::move(prefill_batch));

    if (running_.empty() || decode_inflight_) return;

    // Decode iteration over the whole running batch.  It both depends on
    // and produces per-request state, so it serializes behind the previous
    // decode (decode_done_) in addition to waiting for the pipeline head.
    scratch_lens_.clear();
    scratch_lens_.reserve(running_.size());
    for (const auto& lr : running_) scratch_lens_.push_back(lr.context());
    exec_->iteration_time(cfg_, scratch_lens_, /*prefill=*/false, scratch_it_);
    const IterationTime& it = scratch_it_;
    metrics_->add_decode_module_sample(it.mlp_module_latency(), it.attn_module_latency());
    Seconds issue = std::max({sim.now(), head_free_, decode_done_});
    head_free_ = issue + it.interval();
    decode_done_ = issue + it.latency();
    decode_inflight_ = true;
    ++inflight_;
    sim.schedule_at(issue + it.latency(), [this, &sim] { finish_decode_iteration(sim); });
    return;
  }
}

void PipelineInstance::finish_prefill_iteration(sim::Simulation& sim,
                                                std::vector<LiveRequest> batch) {
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
    if (!opts_.defer_first_token) metrics_->on_first_token(lr.req.id, sim.now());
    // The first output token is produced by prefill itself.
    lr.generated = 1;
    if (opts_.prefill_only && handoff_) {
      // Splitwise: hand the request (and its KV) to the decode pool; local
      // prompt memory is released by the engine once migration completes.
      handoff_(sim, lr);
    } else if (lr.done()) {
      release_tokens(lr.context());
      metrics_->on_finish(lr.req.id, sim.now());
    } else {
      running_.push_back(lr);
    }
  }
  batch.clear();
  batch_pool_.push_back(std::move(batch));
  --inflight_;
  pump(sim);
}

void PipelineInstance::finish_decode_iteration(sim::Simulation& sim) {
  if (retired_) {
    --inflight_;
    decode_inflight_ = false;
    return;
  }
  // Every surviving request appends one cached token on every stage.
  // First make room (LIFO recompute preemption), then commit the appends.
  while (!running_.empty() && !can_reserve(static_cast<std::int64_t>(running_.size()))) {
    preempt_lifo(sim);
  }
  for (auto& lr : running_) {
    lr.generated += 1;
    reserve_tokens(1);
    metrics_->on_token(lr.req.id, sim.now(), lr.generated);
  }
  // Retire finished requests, compacting the batch in place (order
  // preserved; no per-iteration reallocation).
  std::size_t keep = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    LiveRequest& lr = running_[i];
    if (lr.done()) {
      release_tokens(lr.context());
      metrics_->on_finish(lr.req.id, sim.now());
    } else {
      if (keep != i) running_[keep] = lr;
      ++keep;
    }
  }
  running_.resize(keep);
  --inflight_;
  decode_inflight_ = false;
  pump(sim);
}

void PipelineInstance::preempt_lifo(sim::Simulation& sim) {
  if (running_.empty()) return;
  // Latest arrival leaves first (vLLM recompute preemption).  Ties break
  // toward the highest id (newest submission) so older requests keep their
  // progress -- preempting the oldest would lose the most work and can
  // livelock under sustained pressure.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < running_.size(); ++i) {
    const auto& cand = running_[i].req;
    const auto& cur = running_[victim].req;
    if (cand.arrival > cur.arrival || (cand.arrival == cur.arrival && cand.id > cur.id)) {
      victim = i;
    }
  }
  LiveRequest lr = running_[victim];
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(victim));
  release_tokens(lr.context());
  metrics_->on_preemption(lr.req.id, sim.now());
  lr.prefilled = false;
  lr.generated = 0;  // recompute from scratch
  priority_enqueue(waiting_, std::move(lr), priorities_, /*requeue_front=*/true);
}

}  // namespace hetis::engine
