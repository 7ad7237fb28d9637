// Roofline kernel-time model.
//
// Turns a model::Work footprint into execution time on a specific GPU:
//
//   t = max(flops / eff_flops,
//           (weight_bytes + act_bytes) / eff_dense_bw + kv_bytes / eff_attn_bw)
//       + kernels * kernel_overhead
//
// i.e. a module is either compute-bound or memory-bound, the classic
// roofline.  This single formula, with the per-GPU calibration fractions in
// hw/gpu.cc, reproduces the paper's Table 1 and the module-level gaps of
// Fig. 2 (MLP gap >> Attention gap across device generations).
//
// For decode attention a mild occupancy term models the head-contention
// effect of the paper's Fig. 7(c): with very few active heads the kernel
// cannot saturate HBM.  The effect is deliberately small and smooth so the
// Profiler's linear fit stays ~94% accurate, as reported in §7.4.
//
// Batched decode attention is priced in closed form, not per sequence.
// model::decode_attention_work(m, ctx, h) is linear in ctx with integer
// coefficients whenever (2 * head_dim) % gqa_ratio == 0 (true for every
// shipped model: head_dim 80 or 128, ratio 1 or 8):
//
//   flops = 4*d*h*ctx,   kv = (2*d/r)*dtype*h*ctx,   act = 2*d*dtype*h
//
// Every per-sequence term is then an exact integer, so while the batch
// totals stay below 2^53 the sum over sequences equals the same expression
// evaluated once on sum(ctx_i * h_i) and sum(h_i), bit for bit.  Both
// decode_attention_time overloads and decode_attention_total use that form
// and throw std::invalid_argument for a model that breaks the precondition.
#pragma once

#include "hw/gpu.h"
#include "model/llm.h"
#include "model/modules.h"

namespace hetis::costmodel {

class KernelModel {
 public:
  KernelModel() = default;

  /// Time for a generic dense Work item on `gpu`.
  Seconds dense_time(const hw::GpuSpec& gpu, const model::Work& work) const;

  /// Time for an attention Work item on `gpu`.  `active_heads` drives the
  /// occupancy term (pass the total query heads the kernel processes).
  Seconds attention_time(const hw::GpuSpec& gpu, const model::Work& work,
                         double active_heads) const;

  /// Full dense stack of one layer: QKV + OutProj + MLP over `tokens`
  /// tokens, `shard`-way TP.
  Seconds dense_layer_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                           std::int64_t tokens, int shard = 1) const;

  /// Batched decode attention: per-sequence context lengths and query-head
  /// counts (parallel arrays).  This is the ground truth the Profiler fits
  /// its linear model (Eq. 3) against.  Bit-identical to pricing the sum of
  /// model::decode_attention_work over the batch (see the header note).
  Seconds decode_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                const std::vector<std::int64_t>& ctxs,
                                const std::vector<int>& heads) const;

  /// Convenience: uniform head count for all sequences.
  Seconds decode_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                const std::vector<std::int64_t>& ctxs, int heads) const;

  /// Decode attention over `head_tokens` = sum(ctx_i * h_i) and `head_sum`
  /// = sum(h_i), in the closed form described at the top of this file:
  /// callers that keep those integers as running totals price a batch in
  /// O(1).
  Seconds decode_attention_total(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                 std::int64_t head_tokens, std::int64_t head_sum) const;

  /// Prefill attention for a batch of sequences (all `heads` query heads).
  Seconds prefill_attention_time(const hw::GpuSpec& gpu, const model::ModelSpec& m,
                                 const std::vector<std::int64_t>& lens, int heads) const;

  /// Occupancy multiplier in (0, 1]: fraction of eff_attn_bw achieved when
  /// the decode-attention kernel processes `active_heads` query heads.
  static double attention_occupancy(double active_heads);
};

}  // namespace hetis::costmodel
