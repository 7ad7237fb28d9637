#include "engine/instance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.h"

namespace hetis::engine {

namespace {

bool index_order(const LifoIndex::Entry& a, const LifoIndex::Entry& b) {
  return LifoIndex::precedes(a.arrival, a.id, b);
}

}  // namespace

void LifoIndex::insert(const Entry& e) {
  entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e, index_order), e);
}

void LifoIndex::erase(Seconds arrival, workload::RequestId id) {
  const Entry key{arrival, id, 0};
  entries_.erase(std::lower_bound(entries_.begin(), entries_.end(), key, index_order));
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
                                   MetricsCollector& metrics, InstanceOptions opts)
    : BatchingLoop(exec, std::move(cfg), metrics, opts) {
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

void PipelineInstance::drain_running(std::vector<LiveRequest>& live) {
  // running_ is in join order; the drained slice leaves in id order.
  const auto first = static_cast<std::ptrdiff_t>(live.size());
  for (std::size_t i = 0; i < running_.size(); ++i) live.push_back(current(i));
  std::sort(live.begin() + first, live.end(), id_order);
  running_.clear();
  members_.clear();
  lifo_.clear();
  due_.clear();
  ctx_sum_ = 0;
}

bool PipelineInstance::reserve_incoming(std::int64_t tokens) {
  if (!can_reserve(tokens)) return false;
  reserve_tokens(tokens);
  return true;
}

void PipelineInstance::submit_reserved(sim::Simulation& sim, const LiveRequest& lr) {
  // Space was taken by reserve_incoming; just activate the request.
  join_running(lr);
  pump(sim);
}

bool PipelineInstance::admit(sim::Simulation& /*sim*/, const LiveRequest& lr) {
  // Reserve the prompt plus the first output token so the memory invariant
  // (reserved == context()) holds from prefill completion onward.
  if (!can_reserve(lr.req.prompt_len + 1)) return false;
  reserve_tokens(lr.req.prompt_len + 1);
  return true;
}

void PipelineInstance::join_running(const LiveRequest& lr) {
  const std::uint64_t ticket = next_ticket_++;
  lifo_.insert({lr.req.arrival, lr.req.id, ticket});
  members_.push_back({ticket, epoch_});
  // The first iteration after joining always adds a token; the member
  // finishes on the one that brings it to output_len.
  const std::int64_t left = std::max<std::int64_t>(1, lr.req.output_len - lr.generated);
  due_.emplace_back(epoch_ + static_cast<std::uint64_t>(left), ticket);
  std::push_heap(due_.begin(), due_.end(), std::greater<>());
  ctx_sum_ += lr.context();
  running_.push_back(lr);
}

std::int64_t PipelineInstance::generated(std::size_t slot) const {
  return running_[slot].generated + static_cast<std::int64_t>(epoch_ - members_[slot].joined);
}

LiveRequest PipelineInstance::current(std::size_t slot) const {
  LiveRequest lr = running_[slot];
  lr.generated = generated(slot);
  return lr;
}

std::size_t PipelineInstance::slot_of(std::uint64_t ticket) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), ticket,
                             [](const Member& m, std::uint64_t t) { return m.ticket < t; });
  if (it == members_.end() || it->ticket != ticket) return running_.size();
  return static_cast<std::size_t>(it - members_.begin());
}

bool PipelineInstance::plan_decode(sim::Simulation& /*sim*/, DecodeStep& step) {
  if (running_.empty()) return false;
  // One iteration over the whole running batch.
  exec_->decode_iteration_time(cfg_, static_cast<std::int64_t>(running_.size()), ctx_sum_,
                               scratch_it_);
  metrics_->add_decode_module_sample(scratch_it_.mlp_module_latency(),
                                     scratch_it_.attn_module_latency());
  step.latency = scratch_it_.latency();
  step.interval = scratch_it_.interval();
  return true;
}

void PipelineInstance::prefilled(sim::Simulation& sim, LiveRequest& lr) {
  if (handoff_) {
    // Splitwise: hand the request (and its KV) to the decode pool; local
    // prompt memory is released by the engine once migration completes,
    // and the first token reaches the user decode-side.
    handoff_(sim, lr);
    return;
  }
  metrics_->on_first_token(lr.req.id, sim.now());
  if (lr.done()) {
    release_tokens(lr.context());
    metrics_->on_finish(lr.req.id, sim.now());
  } else {
    join_running(lr);
  }
}

void PipelineInstance::finish_decode_batch(sim::Simulation& sim) {
  // Every surviving request appends one cached token on every stage.
  // First make room by LIFO recompute preemption (vLLM §4.5): the latest
  // arrival leaves first, ties toward the highest id, so older requests
  // keep their progress -- preempting the oldest would lose the most work
  // and can livelock under sustained pressure.  Victims stay in running_
  // until the compaction below; they are the members `last` (the final
  // victim) does not follow in the index order.
  const std::size_t n = running_.size();
  std::size_t alive = n;
  LifoIndex::Entry last;
  scratch_gone_.clear();
  while (alive > 0 && !can_reserve(static_cast<std::int64_t>(alive))) {
    last = lifo_.pop_latest();
    --alive;
    const std::size_t v = slot_of(last.ticket);
    scratch_gone_.push_back(v);
    LiveRequest lr = current(v);
    release_tokens(lr.context());
    ctx_sum_ -= lr.context();
    restart_from_scratch(lr, *metrics_, sim.now());
    requeue_preempted(std::move(lr));
  }
  const bool preempted = alive < n;
  const auto victim = [&](std::size_t i) {
    return preempted && !LifoIndex::precedes(running_[i].req.arrival, running_[i].req.id, last);
  };
  const std::size_t victims = scratch_gone_.size();

  // Then commit the appends: one epoch adds a token to every survivor.
  ++epoch_;
  reserve_tokens(static_cast<std::int64_t>(alive));
  ctx_sum_ += static_cast<std::int64_t>(alive);
  if (!metrics_->sinks().empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (victim(i)) continue;
      metrics_->on_token(running_[i].req.id, sim.now(), generated(i));
    }
  }

  // Finishes, reported after every token and in batch order.
  while (!due_.empty() && due_.front().first <= epoch_) {
    const std::uint64_t ticket = due_.front().second;
    std::pop_heap(due_.begin(), due_.end(), std::greater<>());
    due_.pop_back();
    const std::size_t slot = slot_of(ticket);
    if (slot == n || victim(slot)) continue;  // preempted: a stale entry
    scratch_gone_.push_back(slot);
  }
  std::sort(scratch_gone_.begin() + static_cast<std::ptrdiff_t>(victims), scratch_gone_.end());
  for (std::size_t k = victims; k < scratch_gone_.size(); ++k) {
    const LiveRequest lr = current(scratch_gone_[k]);
    lifo_.erase(lr.req.arrival, lr.req.id);
    release_tokens(lr.context());
    ctx_sum_ -= lr.context();
    metrics_->on_finish(lr.req.id, sim.now());
  }

  // Drop the victims and the finished requests in one in-place compaction
  // (survivors keep their order; no per-iteration reallocation).
  if (!scratch_gone_.empty()) {
    std::sort(scratch_gone_.begin(), scratch_gone_.end());
    std::size_t keep = scratch_gone_.front();
    std::size_t g = 0;
    for (std::size_t i = keep; i < n; ++i) {
      if (g < scratch_gone_.size() && scratch_gone_[g] == i) {
        ++g;
        continue;
      }
      running_[keep] = std::move(running_[i]);
      members_[keep] = members_[i];
      ++keep;
    }
    running_.resize(keep);
    members_.resize(keep);
  }
}

}  // namespace hetis::engine
