#include "costmodel/kernel_model.h"

#include <algorithm>
#include <stdexcept>

namespace hetis::costmodel {

namespace {
constexpr double kOccupancyFloor = 0.62;   // bw fraction at ~1 active head
constexpr double kOccupancySatHeads = 96;  // heads needed to saturate HBM
}  // namespace

double KernelModel::attention_occupancy(double active_heads) {
  if (active_heads <= 0) return kOccupancyFloor;
  double x = std::min(1.0, active_heads / kOccupancySatHeads);
  return kOccupancyFloor + (1.0 - kOccupancyFloor) * x;
}

Seconds KernelModel::dense_time(const hw::GpuSpec& gpu, const model::Work& work) const {
  double compute = work.flops / gpu.eff_flops();
  double memory = static_cast<double>(work.weight_bytes + work.act_bytes) / gpu.eff_dense_bw() +
                  static_cast<double>(work.kv_bytes) / gpu.eff_attn_bw();
  return std::max(compute, memory) + work.kernels * gpu.kernel_overhead;
}

Seconds KernelModel::attention_time(const hw::GpuSpec& gpu, const model::Work& work,
                                    double active_heads) const {
  double occupancy = attention_occupancy(active_heads);
  double compute = work.flops / gpu.eff_flops();
  double memory = static_cast<double>(work.kv_bytes) / (gpu.eff_attn_bw() * occupancy) +
                  static_cast<double>(work.act_bytes + work.weight_bytes) / gpu.eff_dense_bw();
  // Per-head scheduling/contention cost (Fig. 7c: time grows with #heads
  // even at fixed cache size).
  double contention = active_heads * gpu.attn_head_cost;
  return std::max(compute, memory) + contention + work.kernels * gpu.kernel_overhead;
}

Seconds KernelModel::dense_layer_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                      std::int64_t tokens, int shard) const {
  if (tokens <= 0) return 0.0;
  // QKV / OutProj / MLP launch as separate kernels; each individually
  // roofline-bound.
  Seconds t = 0.0;
  t += dense_time(gpu, model::qkv_work(m, tokens, shard));
  t += dense_time(gpu, model::out_proj_work(m, tokens, shard));
  t += dense_time(gpu, model::mlp_work(m, tokens, shard));
  return t;
}

Seconds KernelModel::decode_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                           const std::vector<std::int64_t>& ctxs,
                                           const std::vector<int>& heads) const {
  if (ctxs.size() != heads.size()) {
    throw std::invalid_argument("decode_attention_time: ctxs/heads size mismatch");
  }
  std::int64_t head_tokens = 0;
  std::int64_t head_sum = 0;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    if (heads[i] <= 0) continue;
    head_tokens += ctxs[i] * heads[i];
    head_sum += heads[i];
  }
  return decode_attention_total(gpu, m, head_tokens, head_sum);
}

Seconds KernelModel::decode_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                           const std::vector<std::int64_t>& ctxs,
                                           int heads) const {
  const std::int64_t h = std::max(heads, 0);
  std::int64_t ctx_sum = 0;
  for (std::int64_t ctx : ctxs) ctx_sum += ctx;
  return decode_attention_total(gpu, m, ctx_sum * h, static_cast<std::int64_t>(ctxs.size()) * h);
}

Seconds KernelModel::decode_attention_total(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                            std::int64_t head_tokens,
                                            std::int64_t head_sum) const {
  const std::int64_t d = m.head_dim();
  const std::int64_t r = m.gqa_ratio();
  if ((2 * d) % r != 0) {
    throw std::invalid_argument("decode_attention_time: 2 * head_dim of " + m.name +
                                " is not a multiple of its GQA ratio");
  }
  if (head_sum == 0) return 0.0;
  model::Work total;
  total.flops = static_cast<double>(4 * d * head_tokens);
  total.kv_bytes = 2 * d / r * m.dtype_bytes * head_tokens;
  total.act_bytes = 2 * d * m.dtype_bytes * head_sum;
  total.kernels = 1;
  return attention_time(gpu, total, static_cast<double>(head_sum));
}

Seconds KernelModel::prefill_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                            const std::vector<std::int64_t>& lens,
                                            int heads) const {
  if (lens.empty() || heads <= 0) return 0.0;
  model::Work total = model::prefill_attention_batch(m, lens, heads);
  // Prefill attention is compute-bound; occupancy is irrelevant at L^2 work.
  return attention_time(gpu, total, static_cast<double>(heads) * lens.size());
}

}  // namespace hetis::costmodel
