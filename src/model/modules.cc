#include "model/modules.h"

namespace hetis::model {

const char* to_string(Module m) {
  switch (m) {
    case Module::kQkv: return "QKV";
    case Module::kAttention: return "Attention";
    case Module::kOutProj: return "OutProj";
    case Module::kMlp: return "MLP";
  }
  return "?";
}

const char* to_string(Phase p) { return p == Phase::kPrefill ? "prefill" : "decode"; }

Work& Work::operator+=(const Work& o) {
  flops += o.flops;
  weight_bytes += o.weight_bytes;
  act_bytes += o.act_bytes;
  kv_bytes += o.kv_bytes;
  kernels += o.kernels;
  return *this;
}

Work operator+(Work a, const Work& b) {
  a += b;
  return a;
}

Work qkv_work(const ModelSpec& m, std::int64_t tokens, int shard) {
  const double h = m.hidden;
  const double out_dim = (m.hidden + 2.0 * m.kv_dim()) / shard;
  Work w;
  w.flops = 2.0 * static_cast<double>(tokens) * h * out_dim;
  w.weight_bytes = static_cast<Bytes>(h * out_dim) * m.dtype_bytes;
  w.act_bytes = static_cast<Bytes>(tokens * (h + out_dim)) * m.dtype_bytes;
  w.kernels = 1;
  return w;
}

Work out_proj_work(const ModelSpec& m, std::int64_t tokens, int shard) {
  const double h = m.hidden;
  Work w;
  w.flops = 2.0 * static_cast<double>(tokens) * h * h / shard;
  w.weight_bytes = static_cast<Bytes>(h * h / shard) * m.dtype_bytes;
  w.act_bytes = static_cast<Bytes>(tokens) * 2 * m.hidden * m.dtype_bytes;
  w.kernels = 1;
  return w;
}

Work mlp_work(const ModelSpec& m, std::int64_t tokens, int shard) {
  const double h = m.hidden;
  const double f = static_cast<double>(m.ffn) / shard;
  const int mats = m.mlp == MlpKind::kGated ? 3 : 2;
  Work w;
  w.flops = 2.0 * static_cast<double>(tokens) * h * f * mats;
  w.weight_bytes = static_cast<Bytes>(mats * h * f) * m.dtype_bytes;
  w.act_bytes = static_cast<Bytes>(tokens * (h + f)) * 2 * m.dtype_bytes;
  w.kernels = mats;
  return w;
}

Work dense_layer_work(const ModelSpec& m, std::int64_t tokens, int shard) {
  return qkv_work(m, tokens, shard) + out_proj_work(m, tokens, shard) +
         mlp_work(m, tokens, shard);
}

Work prefill_attention_work(const ModelSpec& m, std::int64_t len, int heads) {
  const double d = m.head_dim();
  const double l = static_cast<double>(len);
  Work w;
  // QK^T and AV are each 2*L^2*d flops per head; the causal mask halves the
  // useful triangle.  Total: 2 * (2 L^2 d) * 0.5 = 2 L^2 d per head.
  w.flops = 2.0 * l * l * d * heads;
  // Streaming Q/K/V/O activations; KV write to cache.
  w.act_bytes = static_cast<Bytes>(4.0 * l * d * heads) * m.dtype_bytes;
  w.kv_bytes = static_cast<Bytes>(2.0 * l * d * heads / m.gqa_ratio()) * m.dtype_bytes;
  w.kernels = 1;
  return w;
}

Work decode_attention_work(const ModelSpec& m, std::int64_t ctx, int heads) {
  const double d = m.head_dim();
  const double l = static_cast<double>(ctx);
  Work w;
  // One query token attends to ctx keys and values: 4*L*d flops per head.
  w.flops = 4.0 * l * d * heads;
  // KV streamed from HBM; each KV head is shared by gqa_ratio query heads,
  // so `heads` query heads touch heads/r KV-head shares.
  w.kv_bytes = static_cast<Bytes>(2.0 * l * d * heads / m.gqa_ratio()) * m.dtype_bytes;
  w.act_bytes = static_cast<Bytes>(2.0 * d * heads) * m.dtype_bytes;
  w.kernels = 1;
  return w;
}

Work prefill_attention_batch(const ModelSpec& m, const std::vector<std::int64_t>& lens,
                             int heads) {
  Work total;
  total.kernels = 0;
  for (std::int64_t len : lens) total += prefill_attention_work(m, len, heads);
  total.kernels = 1;  // batched kernel
  return total;
}

}  // namespace hetis::model
