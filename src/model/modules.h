// Per-module FLOP / byte calculators.
//
// Hetis's whole premise is that LLM modules have *different* arithmetic
// intensity (dense MLP/QKV/proj vs. parameter-free Attention, §2.3), so the
// cost model needs module-level resolution.  A `Work` item describes one
// module invocation; costmodel/kernel_model.* turns Work into time on a
// specific GPU.
//
// Conventions (per layer unless noted):
//   prefill batch: `tokens` = sum of prompt lengths in the batch
//   decode  batch: one query token per sequence; `tokens` = #sequences
//   TP sharding divides flops/weight-bytes by the shard count; the
//   calculators accept a `shard` divisor so callers don't duplicate that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "model/llm.h"

namespace hetis::model {

enum class Module : std::uint8_t { kQkv, kAttention, kOutProj, kMlp };
enum class Phase : std::uint8_t { kPrefill, kDecode };

const char* to_string(Module m);
const char* to_string(Phase p);

/// One module invocation's resource footprint on a device.
struct Work {
  Flops flops = 0;          // floating point ops
  Bytes weight_bytes = 0;   // parameter bytes streamed from HBM
  Bytes act_bytes = 0;      // activation bytes read+written
  Bytes kv_bytes = 0;       // KV-cache bytes streamed (attention only)
  int kernels = 1;          // kernel launches (overhead accounting)

  Work& operator+=(const Work& o);
};
Work operator+(Work a, const Work& b);

/// Dense QKV projection over `tokens` tokens, sharded `shard` ways.
Work qkv_work(const ModelSpec& m, std::int64_t tokens, int shard = 1);

/// Dense attention-output projection.
Work out_proj_work(const ModelSpec& m, std::int64_t tokens, int shard = 1);

/// Dense MLP (up[/gate]/down).
Work mlp_work(const ModelSpec& m, std::int64_t tokens, int shard = 1);

/// Prefill self-attention over one sequence of length `len`, computing
/// `heads` of the model's query heads (head-parallel sharding).
Work prefill_attention_work(const ModelSpec& m, std::int64_t len, int heads);

/// Decode self-attention for one sequence with context length `ctx`,
/// computing `heads` query heads whose KV shares live on this device.
Work decode_attention_work(const ModelSpec& m, std::int64_t ctx, int heads);

/// All dense modules (QKV + OutProj + MLP) for `tokens` tokens, `shard`-way
/// tensor-parallel.  Excludes attention.
Work dense_layer_work(const ModelSpec& m, std::int64_t tokens, int shard = 1);

/// Context lengths -> total prefill attention work for a batch (all heads).
Work prefill_attention_batch(const ModelSpec& m, const std::vector<std::int64_t>& lens,
                             int heads);

}  // namespace hetis::model
