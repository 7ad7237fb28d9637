#include "baselines/splitwise.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/log.h"

namespace hetis::baselines {

SplitwisePlan splitwise_default_plan(const hw::Cluster& cluster, const model::ModelSpec& model) {
  SplitwisePlan plan;
  std::vector<hw::GpuType> types = cluster.types_by_power_desc();
  if (types.empty()) throw std::invalid_argument("splitwise_default_plan: empty cluster");

  // Prefill pool: every device of the most powerful type, full-model TP.
  {
    parallel::StageConfig stage;
    stage.devices = cluster.devices_of_type(types.front());
    stage.layers = model.layers;
    plan.prefill.stages.push_back(std::move(stage));
  }

  // Decode pools: pipelines over the remaining types (high -> low).  The
  // instance count halves each type's device count (paper: two
  // [3090-TP2 -> P100-TP2] pipelines); degenerate counts fall back to one.
  std::vector<hw::GpuType> rest(types.begin() + 1, types.end());
  if (rest.empty()) {
    // Single-type cluster: split the pool in half between phases.
    auto devs = plan.prefill.stages.front().devices;
    std::size_t half = devs.size() / 2;
    if (half == 0) throw std::invalid_argument("splitwise_default_plan: too few devices");
    plan.prefill.stages.front().devices.resize(half);
    parallel::InstanceConfig decode;
    parallel::StageConfig stage;
    stage.devices = std::vector<int>(devs.begin() + half, devs.end());
    stage.layers = model.layers;
    decode.stages.push_back(std::move(stage));
    plan.decode.push_back(std::move(decode));
    return plan;
  }

  // Per-decode-stage layer capacity is MEMORY-bound: a stage can host at
  // most as many layer shards as fit in (1 - kv_margin) of its post-reserve
  // memory.  (A compute-balanced split would assign the 3090s far more of
  // Llama-70B than 24 GB can hold.)
  const double kKvMargin = 0.15;  // keep some room for KV caches
  const Bytes layer_bytes = model.layer_param_bytes();
  auto stage_layer_cap = [&](hw::GpuType t, int tp) {
    Bytes budget = 0;
    const hw::GpuSpec& gpu = hw::gpu_spec(t);
    budget = engine::kv_budget(gpu, 0) * tp;
    return static_cast<int>((1.0 - kKvMargin) * static_cast<double>(budget) /
                            static_cast<double>(layer_bytes));
  };

  // Try d decode pipelines, halving each type's count; fall back to d = 1
  // (all low-end devices in one pipeline) and finally to borrowing a
  // leading stage from the prefill pool when the model cannot fit on the
  // low-end pools at all (the Llama-70B situation).
  int d = std::numeric_limits<int>::max();
  for (hw::GpuType t : rest) {
    d = std::min(d, static_cast<int>(cluster.devices_of_type(t).size()));
  }
  d = std::max(1, d / 2);
  for (hw::GpuType t : rest) {
    if (static_cast<int>(cluster.devices_of_type(t).size()) % d != 0) {
      d = 1;
      break;
    }
  }

  auto fits = [&](int dd) {
    int cap = 0;
    for (hw::GpuType t : rest) {
      int per = static_cast<int>(cluster.devices_of_type(t).size()) / dd;
      cap += stage_layer_cap(t, per);
    }
    return cap >= model.layers;
  };
  while (d > 1 && !fits(d)) d = 1;

  int borrowed_layers = 0;
  if (!fits(d)) {
    // Low-end pools cannot hold the model: borrow the leftover layers as a
    // leading decode stage on the prefill devices (which keep their full
    // prefill model copy; `extra_reserved` accounts for it).
    int cap = 0;
    for (hw::GpuType t : rest) {
      cap += stage_layer_cap(t, static_cast<int>(cluster.devices_of_type(t).size()));
    }
    borrowed_layers = model.layers - cap;
    d = 1;
  }

  const auto& prefill_devs = plan.prefill.stages.front().devices;
  const Bytes prefill_copy =
      model.param_bytes() / static_cast<Bytes>(prefill_devs.size());

  for (int rep = 0; rep < d; ++rep) {
    parallel::InstanceConfig decode;
    int layers_left = model.layers;
    if (borrowed_layers > 0) {
      parallel::StageConfig stage;
      stage.devices = prefill_devs;
      stage.layers = borrowed_layers;
      stage.extra_reserved = prefill_copy;  // the prefill model copy
      layers_left -= borrowed_layers;
      decode.stages.push_back(std::move(stage));
    }
    // Remaining layers proportional to each stage's memory capacity.
    std::vector<int> caps;
    int cap_sum = 0;
    for (hw::GpuType t : rest) {
      int per = static_cast<int>(cluster.devices_of_type(t).size()) / d;
      caps.push_back(stage_layer_cap(t, per));
      cap_sum += caps.back();
    }
    const int to_split = layers_left;
    std::vector<std::size_t> low_end_stage_idx;
    for (std::size_t k = 0; k < rest.size(); ++k) {
      auto devs = cluster.devices_of_type(rest[k]);
      int per = static_cast<int>(devs.size()) / d;
      parallel::StageConfig stage;
      stage.devices.assign(devs.begin() + rep * per, devs.begin() + (rep + 1) * per);
      int want = static_cast<int>(static_cast<double>(to_split) * caps[k] / cap_sum);
      stage.layers = std::min({want, caps[k], layers_left});
      layers_left -= stage.layers;
      low_end_stage_idx.push_back(decode.stages.size());
      decode.stages.push_back(std::move(stage));
    }
    // Distribute the integer remainder into whatever capacity is left.
    for (std::size_t k = 0; k < low_end_stage_idx.size() && layers_left > 0; ++k) {
      auto& stage = decode.stages[low_end_stage_idx[k]];
      int room = caps[k] - stage.layers;
      int add = std::min(room, layers_left);
      stage.layers += add;
      layers_left -= add;
    }
    if (layers_left > 0) {
      // Shouldn't happen (fits() checked), but never build a broken plan.
      decode.stages[low_end_stage_idx.back()].layers += layers_left;
      layers_left = 0;
    }
    // Degenerate empty stages confuse the pipeline model; drop them.
    std::vector<parallel::StageConfig> kept;
    for (auto& s : decode.stages) {
      if (s.layers > 0) kept.push_back(std::move(s));
    }
    decode.stages = std::move(kept);
    plan.decode.push_back(std::move(decode));
  }

  // The prefill pool must also account for the borrowed decode shard.
  if (borrowed_layers > 0) {
    plan.prefill.stages.front().extra_reserved =
        layer_bytes * borrowed_layers / static_cast<Bytes>(prefill_devs.size());
  }
  return plan;
}

SplitwiseEngine::SplitwiseEngine(const hw::Cluster& cluster, const model::ModelSpec& model,
                                 const engine::SplitwiseConfig& cfg)
    : SplitwiseEngine(cluster, model, splitwise_default_plan(cluster, model), cfg) {}

SplitwiseEngine::SplitwiseEngine(const hw::Cluster& cluster, const model::ModelSpec& model,
                                 SplitwisePlan plan, const engine::SplitwiseConfig& cfg)
    : cluster_(&cluster),
      exec_(cluster, model),
      plan_(std::move(plan)),
      hauler_(cluster, hauler::HaulerOptions{/*bandwidth_share=*/1.0}),
      cfg_(cfg) {
  build_instances();
}

void SplitwiseEngine::build_instances() {
  const engine::InstanceOptions opts{cfg_.max_prefill_tokens, cfg_.max_batch};
  prefill_ = std::make_unique<engine::PipelineInstance>(exec_, plan_.prefill, metrics_, opts);
  prefill_->set_prefill_handoff(
      [this](sim::Simulation& sim, const engine::LiveRequest& lr) { on_prefill_done(sim, lr); });
  prefill_->set_tenant_priorities(tenant_priorities_);

  for (const auto& decode_cfg : plan_.decode) {
    decode_.push_back(
        std::make_unique<engine::PipelineInstance>(exec_, decode_cfg, metrics_, opts));
    decode_.back()->set_tenant_priorities(tenant_priorities_);
  }
}

void SplitwiseEngine::set_tenant_priorities(std::vector<int> priorities) {
  tenant_priorities_ = std::move(priorities);
  prefill_->set_tenant_priorities(tenant_priorities_);
  for (auto& d : decode_) d->set_tenant_priorities(tenant_priorities_);
}

void SplitwiseEngine::submit(sim::Simulation& sim, const workload::Request& r) {
  metrics_.on_arrival(r);
  // Mid-restart arrivals park with the carried-over requests.
  if (restart_.park_arrival(sim, r)) return;
  prefill_->submit(sim, r);
}

void SplitwiseEngine::on_prefill_done(sim::Simulation& sim, const engine::LiveRequest& lr) {
  if (lr.done()) {
    // Single-token outputs finish at prefill; no migration needed.
    prefill_->release_prefilled(lr);
    metrics_.on_first_token(lr.req.id, sim.now());
    metrics_.on_finish(lr.req.id, sim.now());
    return;
  }
  parked_.push_back(lr);
  pump_migrations(sim);
}

void SplitwiseEngine::pump_migrations(sim::Simulation& sim) {
  while (!parked_.empty()) {
    engine::LiveRequest lr = parked_.front();
    // Decode pool with the most headroom whose space we can reserve NOW
    // (reserving up front makes migration completion infallible even under
    // concurrent decode growth).
    std::size_t best = decode_.size();
    double best_fill = 2.0;
    for (std::size_t i = 0; i < decode_.size(); ++i) {
      if (!decode_[i]->has_room(lr.context())) continue;
      double fill = decode_[i]->fill_fraction();
      if (fill < best_fill) {
        best_fill = fill;
        best = i;
      }
    }
    if (best == decode_.size()) break;  // no room anywhere: backpressure
    if (!decode_[best]->reserve_incoming(lr.context())) break;
    parked_.pop_front();
    migrating_.emplace(lr.req.id, lr);

    // Ship each decode stage its layer share of the KV (a borrowed stage on
    // the prefill devices keeps its share in place at zero cost).
    const model::ModelSpec& m = exec_.model_spec();
    int src = plan_.prefill.stages.front().devices.front();
    Seconds done = sim.now();
    for (const auto& stage : plan_.decode[best].stages) {
      Bytes kv_bytes = m.kv_bytes_per_token_layer() * stage.layers * lr.context();
      done = std::max(done,
                      hauler_.migrate(src, stage.devices.front(), kv_bytes, sim.now()));
    }
    metrics_.on_migrate(lr.req.id, sim.now(), done, src,
                        plan_.decode[best].stages.front().devices.front());
    const int epoch = restart_.epoch();
    // Captures only the id: migrating_ holds the request until completion
    // (nothing rewrites it within an epoch), and the slim capture keeps the
    // event in EventTask's inline storage.
    sim.schedule_at(done, [this, &sim, id = lr.req.id, best, epoch] {
      // A reconfigure retired this migration's endpoints; the request was
      // already carried into the restarted deployment via migrating_.
      if (restart_.stale(epoch)) return;
      const auto node = migrating_.extract(id);
      const engine::LiveRequest& migrated = node.mapped();
      prefill_->release_prefilled(migrated);
      // The migrated first token is what the user sees (phase-split TTFT
      // includes the KV transfer).
      metrics_.on_first_token(id, sim.now());
      decode_[best]->submit_reserved(sim, migrated);
      pump_migrations(sim);
    });
  }
  // Backpressure retry: poll while requests are parked.
  if (!parked_.empty() && !pump_scheduled_) {
    pump_scheduled_ = true;
    sim.schedule_in(0.025, [this, &sim] {
      pump_scheduled_ = false;
      pump_migrations(sim);
    });
  }
}

Bytes SplitwiseEngine::usable_kv_capacity() const {
  // Requests spend almost their whole lifetime decoding, so the decode
  // pools bound how many can be hosted simultaneously (Fig. 11's metric);
  // prefill-pool cache is transient and does not add serving capacity.
  Bytes total = 0;
  for (const auto& d : decode_) total += d->usable_kv_capacity();
  return total;
}

double SplitwiseEngine::kv_fill_fraction() const {
  double worst = 0;
  for (const auto& d : decode_) worst = std::max(worst, d->fill_fraction());
  return worst;
}

std::string SplitwiseEngine::plan_digest() const {
  std::ostringstream os;
  os << "splitwise:prefill[tp" << plan_.prefill.stages.front().devices.size() << "]+"
     << plan_.decode.size() << "dec[";
  for (std::size_t i = 0; i < plan_.decode.size(); ++i) {
    os << (i ? "," : "") << "pp" << plan_.decode[i].stages.size();
  }
  os << "]";
  return os.str();
}

std::vector<int> SplitwiseEngine::active_devices() const {
  std::vector<int> devs;
  for (const auto& s : plan_.prefill.stages) {
    devs.insert(devs.end(), s.devices.begin(), s.devices.end());
  }
  for (const auto& inst : plan_.decode) {
    for (const auto& s : inst.stages) {
      for (int d : s.devices) {
        // Borrowed decode stages reuse prefill devices; report each once.
        if (std::find(devs.begin(), devs.end(), d) == devs.end()) devs.push_back(d);
      }
    }
  }
  std::sort(devs.begin(), devs.end());
  return devs;
}

void SplitwiseEngine::reconfigure(sim::Simulation& sim, const std::vector<int>& devices) {
  // Checkpoint: drain both phase pools plus every request in limbo between
  // them (parked for decode room, or mid-KV-migration).
  std::vector<engine::LiveRequest> drained;
  prefill_->retire(drained);
  retired_.push_back(std::move(prefill_));
  for (auto& d : decode_) {
    d->retire(drained);
    retired_.push_back(std::move(d));
  }
  decode_.clear();
  drained.insert(drained.end(), parked_.begin(), parked_.end());
  parked_.clear();
  for (auto& [id, lr] : migrating_) drained.push_back(lr);
  migrating_.clear();
  restart_.park(sim, metrics_, std::move(drained));

  // Restart: recompute the phase split on the surviving sub-cluster and
  // deploy it back onto the parent cluster's device ids.
  std::vector<int> original_ids;
  hw::Cluster sub = cluster_->subcluster(devices, &original_ids);
  SplitwisePlan plan = splitwise_default_plan(sub, exec_.model_spec());
  for (auto& s : plan.prefill.stages) parallel::remap_device_ids(s, original_ids);
  for (auto& inst : plan.decode) parallel::remap_device_ids(inst, original_ids);
  plan_ = std::move(plan);
  build_instances();

  restart_.begin_restart(
      sim, restart_dead_time(*cluster_, exec_.model_spec()),
      [this](sim::Simulation& s, const workload::Request& r) { prefill_->submit(s, r); });
}

}  // namespace hetis::baselines
