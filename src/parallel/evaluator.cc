#include "parallel/evaluator.h"

#include <algorithm>

#include "engine/instance.h"
#include "parallel/parallelizer.h"

namespace hetis::parallel {

PlanEvaluator::PlanEvaluator(const hw::Cluster& cluster, const model::ModelSpec& model)
    : owned_(std::in_place, cluster, model), exec_(&*owned_) {}

PlanEvaluator::PlanEvaluator(const engine::ExecModel& exec) : exec_(&exec) {}

Bytes PlanEvaluator::kv_capacity(const InstanceConfig& cfg) const {
  const model::ModelSpec& m = exec_->model_spec();
  const hw::Cluster& cluster = exec_->cluster();
  Bytes total = 0;
  for (std::size_t k = 0; k < cfg.stages.size(); ++k) {
    const auto& s = cfg.stages[k];
    Bytes params =
        engine::stage_param_bytes_per_device(m, s, k == 0, k + 1 == cfg.stages.size());
    for (int dev : s.devices) {
      total += engine::kv_budget(cluster.device(dev).spec(), params);
    }
  }
  for (int dev : cfg.attention_workers) {
    total += engine::kv_budget(cluster.device(dev).spec(), 0);
  }
  return total;
}

bool PlanEvaluator::hosts_model(const InstanceConfig& cfg) const {
  const model::ModelSpec& m = exec_->model_spec();
  const hw::Cluster& cluster = exec_->cluster();
  for (std::size_t k = 0; k < cfg.stages.size(); ++k) {
    const auto& s = cfg.stages[k];
    Bytes params =
        engine::stage_param_bytes_per_device(m, s, k == 0, k + 1 == cfg.stages.size());
    for (int dev : s.devices) {
      if (engine::kv_budget(cluster.device(dev).spec(), params) <= 0) return false;
    }
  }
  return true;
}

PlanEstimate PlanEvaluator::evaluate(const InstanceConfig& cfg,
                                     const WorkloadProfile& profile) const {
  // Full cost model C = C_comp + C_comm (HexGen-style), via ExecModel.  The
  // prefill/decode batch shapes are exactly the legacy instance_cost ones,
  // so iteration_cost() reproduces the pre-objective search scalar bit for
  // bit.
  PlanEstimate e;
  std::vector<std::int64_t> prompt_lens(
      std::max<std::int64_t>(1, profile.prefill_tokens /
                                    std::max<std::int64_t>(1, profile.mean_context)),
      profile.mean_context);
  engine::IterationTime prefill = exec_->prefill_iteration_time(cfg, prompt_lens);
  engine::IterationTime decode = exec_->decode_iteration_time(
      cfg, profile.decode_batch, profile.decode_batch * profile.mean_context);
  e.ttft = prefill.latency();
  e.tpot = decode.latency();
  e.decode_weight = profile.decode_weight;
  // Coarse steady-state completion rate: the instance finishes its
  // decode_batch cohort once per (prefill + decode_weight decode) window.
  e.throughput = e.iteration_cost() > 0
                     ? static_cast<double>(profile.decode_batch) / e.iteration_cost()
                     : 0.0;
  e.kv_capacity = kv_capacity(cfg);
  e.device_count = static_cast<int>(cfg.primary_devices().size() + cfg.attention_workers.size());
  e.instances = 1;
  return e;
}

PlanEstimate PlanEvaluator::evaluate(const ParallelPlan& plan,
                                     const WorkloadProfile& profile) const {
  PlanEstimate agg;
  if (plan.instances.empty()) return agg;
  const int d = static_cast<int>(plan.instances.size());
  // Each instance serves a 1/d workload share, mirroring Parallelizer::plan.
  WorkloadProfile share = profile;
  share.prefill_tokens = std::max<std::int64_t>(1, profile.prefill_tokens / d);
  share.decode_batch = std::max<std::int64_t>(1, profile.decode_batch / d);
  agg.instances = d;
  agg.decode_weight = profile.decode_weight;
  for (const InstanceConfig& inst : plan.instances) {
    PlanEstimate e = evaluate(inst, share);
    agg.ttft = std::max(agg.ttft, e.ttft);
    agg.tpot = std::max(agg.tpot, e.tpot);
    agg.throughput += e.throughput;
    agg.kv_capacity += e.kv_capacity;
    agg.device_count += e.device_count;
  }
  return agg;
}

PlanEstimate replicate_estimate(PlanEstimate instance_estimate, int instances) {
  instance_estimate.throughput *= instances;
  instance_estimate.kv_capacity *= instances;
  instance_estimate.device_count *= instances;
  instance_estimate.instances = instances;
  return instance_estimate;
}

}  // namespace hetis::parallel
