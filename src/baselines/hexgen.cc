#include "baselines/hexgen.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "costmodel/kernel_model.h"
#include "parallel/parallelizer.h"

namespace hetis::baselines {

parallel::ParallelPlan hexgen_plan(const hw::Cluster& cluster, const model::ModelSpec& model) {
  // Stage groups: one per (type, host), ordered by compute power desc so
  // prefill's first stages sit on the fastest devices.
  struct Group {
    hw::GpuType type;
    std::vector<int> devices;
  };
  std::vector<Group> groups;
  for (hw::GpuType type : cluster.types_by_power_desc()) {
    std::map<int, std::vector<int>> by_host;
    for (int id : cluster.devices_of_type(type)) {
      by_host[cluster.device(id).host].push_back(id);
    }
    for (auto& [host, devs] : by_host) {
      groups.push_back(Group{type, devs});
    }
  }

  // Asymmetric layer split balancing per-stage time (HexGen's objective:
  // equalize execution time across heterogeneous stages).
  costmodel::KernelModel kernel;
  const std::int64_t kDecodeBatch = 64;
  const std::int64_t kCtx = 512;
  std::vector<double> per_layer;
  for (const auto& g : groups) {
    const hw::GpuSpec& gpu = hw::gpu_spec(g.type);
    int tp = static_cast<int>(g.devices.size());
    std::vector<std::int64_t> ctxs(static_cast<std::size_t>(kDecodeBatch), kCtx);
    double t = kernel.dense_layer_time(gpu, model, kDecodeBatch, tp) +
               kernel.decode_attention_time(gpu, model, ctxs, std::max(1, model.heads / tp));
    per_layer.push_back(t);
  }
  const std::vector<int> layers = parallel::balance_layers(model.layers, per_layer);

  parallel::ParallelPlan plan;
  parallel::InstanceConfig inst;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    parallel::StageConfig stage;
    stage.devices = groups[k].devices;
    stage.layers = layers[k];
    inst.stages.push_back(std::move(stage));
  }
  plan.instances.push_back(std::move(inst));
  return plan;
}

HexgenEngine::HexgenEngine(const hw::Cluster& cluster, const model::ModelSpec& model,
                           const engine::HexgenConfig& cfg)
    : HexgenEngine(cluster, model, cfg.plan ? *cfg.plan : hexgen_plan(cluster, model), cfg) {}

HexgenEngine::HexgenEngine(const hw::Cluster& cluster, const model::ModelSpec& model,
                           parallel::ParallelPlan plan, const engine::HexgenConfig& cfg)
    : exec_(cluster, model), cfg_(cfg), plan_(std::move(plan)) {
  build_instances();
}

void HexgenEngine::build_instances() {
  const engine::InstanceOptions opts{cfg_.max_prefill_tokens, cfg_.max_batch};
  for (const auto& inst : plan_.instances) {
    instances_.push_back(std::make_unique<engine::PipelineInstance>(exec_, inst, metrics_, opts));
    instances_.back()->set_tenant_priorities(tenant_priorities_);
  }
}

void HexgenEngine::set_tenant_priorities(std::vector<int> priorities) {
  tenant_priorities_ = std::move(priorities);
  for (auto& inst : instances_) inst->set_tenant_priorities(tenant_priorities_);
}

void HexgenEngine::submit(sim::Simulation& sim, const workload::Request& r) {
  metrics_.on_arrival(r);
  // Mid-restart arrivals park with the carried-over requests (the flush
  // callback drains both).
  if (restart_.park_arrival(sim, r)) return;
  route(sim, r);
}

void HexgenEngine::route(sim::Simulation& sim, const workload::Request& r) {
  // Route to the least-filled instance (standard DP load balancing).
  engine::PipelineInstance* best = instances_.front().get();
  for (auto& inst : instances_) {
    if (inst->fill_fraction() < best->fill_fraction()) best = inst.get();
  }
  best->submit(sim, r);
}

std::string HexgenEngine::plan_digest() const {
  std::ostringstream os;
  os << "hexgen:" << plan_.instances.size() << "inst[";
  for (std::size_t i = 0; i < plan_.instances.size(); ++i) {
    const parallel::InstanceConfig& inst = plan_.instances[i];
    os << (i ? "," : "") << "pp" << inst.stages.size() << "/dev"
       << inst.primary_devices().size();
  }
  os << "]";
  return os.str();
}

std::vector<int> HexgenEngine::active_devices() const {
  std::vector<int> devs;
  for (const auto& inst : plan_.instances) {
    for (int d : inst.primary_devices()) devs.push_back(d);
  }
  std::sort(devs.begin(), devs.end());
  return devs;
}

void HexgenEngine::reconfigure(sim::Simulation& sim, const std::vector<int>& devices) {
  // Checkpoint: drain every instance; prefilled requests lose their decode
  // progress (surfaced as a preemption), waiting requests just re-queue.
  std::vector<engine::LiveRequest> drained;
  for (auto& inst : instances_) {
    inst->retire(drained);
    retired_.push_back(std::move(inst));
  }
  instances_.clear();
  restart_.park(sim, metrics_, std::move(drained));

  // Restart: recompute the static layout on the surviving sub-cluster and
  // deploy it back onto the parent cluster's device ids.
  std::vector<int> original_ids;
  hw::Cluster sub = exec_.cluster().subcluster(devices, &original_ids);
  parallel::ParallelPlan plan = hexgen_plan(sub, exec_.model_spec());
  parallel::remap_device_ids(plan, original_ids);
  plan_ = std::move(plan);
  build_instances();

  restart_.begin_restart(sim, restart_dead_time(exec_.cluster(), exec_.model_spec()),
                         [this](sim::Simulation& s, const workload::Request& r) { route(s, r); });
}

Bytes HexgenEngine::usable_kv_capacity() const {
  Bytes total = 0;
  for (const auto& inst : instances_) total += inst->usable_kv_capacity();
  return total;
}

double HexgenEngine::kv_fill_fraction() const {
  double worst = 0;
  for (const auto& inst : instances_) worst = std::max(worst, inst->fill_fraction());
  return worst;
}

}  // namespace hetis::baselines
