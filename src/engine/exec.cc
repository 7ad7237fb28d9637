#include "engine/exec.h"

#include <algorithm>
#include <stdexcept>

namespace hetis::engine {

Seconds IterationTime::latency() const {
  Seconds t = 0;
  for (const auto& s : stages) t += s.total();
  return t;
}

Seconds IterationTime::interval() const {
  Seconds worst = 0;
  for (const auto& s : stages) worst = std::max(worst, s.total());
  return worst;
}

Seconds IterationTime::mlp_module_latency() const {
  Seconds worst = 0;
  for (const auto& s : stages) worst = std::max(worst, s.dense);
  return worst * static_cast<double>(stages.size());
}

Seconds IterationTime::attn_module_latency() const {
  Seconds worst = 0;
  for (const auto& s : stages) worst = std::max(worst, s.attention);
  return worst * static_cast<double>(stages.size());
}

double ExecModel::stage_speed(const parallel::StageConfig& stage) const {
  if (!cluster_->degraded()) return 1.0;
  double speed = 1.0;
  for (int dev : stage.devices) speed = std::min(speed, cluster_->device_speed(dev));
  return speed;
}

Seconds ExecModel::stage_dense_time(const parallel::StageConfig& stage,
                                    std::int64_t tokens) const {
  if (stage.devices.empty() || stage.layers == 0 || tokens <= 0) return 0.0;
  if (!cache_enabled_ || stage.devices.size() > kMaxCachedStageWidth) {
    return stage_dense_time_uncached(stage, tokens);
  }
  refresh_cache_epoch();
  DenseStageKey key;
  key.tokens = tokens;
  key.layers = stage.layers;
  key.ndev = static_cast<std::int32_t>(stage.devices.size());
  for (std::size_t i = 0; i < stage.devices.size(); ++i) {
    key.devices[i] = stage.devices[i];
  }
  if (const Seconds* hit = dense_cache_.find(key)) return *hit;
  const Seconds t = stage_dense_time_uncached(stage, tokens);
  dense_cache_.insert(key, t);
  return t;
}

Seconds ExecModel::stage_dense_time_uncached(const parallel::StageConfig& stage,
                                             std::int64_t tokens) const {
  const hw::GpuSpec& gpu = cluster_->device(stage.devices.front()).spec();
  Seconds per_layer = kernel_.dense_layer_time(gpu, *model_, tokens, stage.tp());
  Seconds collectives = 0;
  if (stage.tp() > 1) {
    Bytes hidden_bytes = tokens * model_->hidden * model_->dtype_bytes;
    // Two all-reduces per layer (post-attention projection, post-MLP).
    collectives = 2.0 * comm_.allreduce(stage.devices, hidden_bytes);
  }
  Seconds t = (per_layer + collectives) * stage.layers;
  const double speed = stage_speed(stage);
  // Exact no-op when healthy: x / 1.0 == x bit-for-bit, but the branch
  // documents (and the golden tests enforce) the byte-identity contract.
  if (speed != 1.0) t /= speed;
  return t;
}

Seconds ExecModel::stage_attention_decode(const parallel::StageConfig& stage, std::int64_t n,
                                          std::int64_t ctx_sum, int heads) const {
  if (stage.devices.empty() || stage.layers == 0 || n == 0) return 0.0;
  const hw::GpuSpec& gpu = cluster_->device(stage.devices.front()).spec();
  const std::int64_t heads_per_dev = std::max(1, heads / stage.tp());
  Seconds per_layer =
      kernel_.decode_attention_total(gpu, *model_, ctx_sum * heads_per_dev, n * heads_per_dev);
  Seconds t = per_layer * stage.layers;
  const double speed = stage_speed(stage);
  if (speed != 1.0) t /= speed;
  return t;
}

Seconds ExecModel::stage_attention_prefill(const parallel::StageConfig& stage,
                                           const std::vector<std::int64_t>& lens,
                                           int heads) const {
  if (stage.devices.empty() || stage.layers == 0 || lens.empty()) return 0.0;
  const hw::GpuSpec& gpu = cluster_->device(stage.devices.front()).spec();
  int heads_per_dev = std::max(1, heads / stage.tp());
  Seconds per_layer = kernel_.prefill_attention_time(gpu, *model_, lens, heads_per_dev);
  Seconds t = per_layer * stage.layers;
  const double speed = stage_speed(stage);
  if (speed != 1.0) t /= speed;
  return t;
}

Seconds ExecModel::interstage_comm(const parallel::StageConfig& from,
                                   const parallel::StageConfig& to,
                                   std::int64_t tokens) const {
  if (from.devices.empty() || to.devices.empty()) return 0.0;
  Bytes hidden_bytes = tokens * model_->hidden * model_->dtype_bytes;
  return comm_.p2p(from.devices.front(), to.devices.front(), hidden_bytes);
}

void ExecModel::prefill_iteration_time(const parallel::InstanceConfig& inst,
                                       const std::vector<std::int64_t>& lens,
                                       IterationTime& out) const {
  std::int64_t tokens = 0;
  for (std::int64_t l : lens) tokens += l;
  out.stages.resize(inst.stages.size());
  for (std::size_t k = 0; k < inst.stages.size(); ++k) {
    const auto& stage = inst.stages[k];
    StageTime& st = out.stages[k];
    st.dense = stage_dense_time(stage, tokens);
    st.attention = stage_attention_prefill(stage, lens, model_->heads);
    // Assigned unconditionally: a reused `out` carries the previous call's
    // value in the last stage's slot otherwise.
    st.comm_out =
        k + 1 < inst.stages.size() ? interstage_comm(stage, inst.stages[k + 1], tokens) : 0.0;
  }
}

IterationTime ExecModel::prefill_iteration_time(const parallel::InstanceConfig& inst,
                                                const std::vector<std::int64_t>& lens) const {
  IterationTime out;
  prefill_iteration_time(inst, lens, out);
  return out;
}

void ExecModel::decode_iteration_time(const parallel::InstanceConfig& inst, std::int64_t n,
                                      std::int64_t ctx_sum, IterationTime& out) const {
  out.stages.resize(inst.stages.size());
  for (std::size_t k = 0; k < inst.stages.size(); ++k) {
    const auto& stage = inst.stages[k];
    StageTime& st = out.stages[k];
    st.dense = stage_dense_time(stage, n);
    st.attention = stage_attention_decode(stage, n, ctx_sum, model_->heads);
    st.comm_out =
        k + 1 < inst.stages.size() ? interstage_comm(stage, inst.stages[k + 1], n) : 0.0;
  }
}

IterationTime ExecModel::decode_iteration_time(const parallel::InstanceConfig& inst,
                                               std::int64_t n, std::int64_t ctx_sum) const {
  IterationTime out;
  decode_iteration_time(inst, n, ctx_sum, out);
  return out;
}

void ExecModel::iteration_time(const parallel::InstanceConfig& inst,
                               const std::vector<std::int64_t>& lens, bool prefill,
                               IterationTime& out) const {
  if (prefill) {
    prefill_iteration_time(inst, lens, out);
    return;
  }
  std::int64_t ctx_sum = 0;
  for (std::int64_t l : lens) ctx_sum += l;
  decode_iteration_time(inst, static_cast<std::int64_t>(lens.size()), ctx_sum, out);
}

Bytes kv_budget(const hw::GpuSpec& gpu, Bytes param_bytes_on_device) {
  // Reserve ~6% of device memory for activations/workspace plus a 1 GiB
  // runtime footprint (CUDA context, NCCL buffers).
  Bytes reserve = static_cast<Bytes>(0.06 * static_cast<double>(gpu.memory)) + 1 * GiB;
  Bytes budget = gpu.memory - param_bytes_on_device - reserve;
  return std::max<Bytes>(0, budget);
}

}  // namespace hetis::engine
