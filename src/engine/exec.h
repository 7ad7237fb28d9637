// Iteration-time computation shared by all serving engines.
//
// A serving instance executes iterations (continuous batching); these
// helpers turn a batch description plus a pipeline configuration into
// stage-by-stage latencies using the roofline kernel model and the
// alpha-beta communication model.
#pragma once

#include <cstdint>
#include <vector>

#include "costmodel/comm_model.h"
#include "costmodel/eval_cache.h"
#include "costmodel/kernel_model.h"
#include "model/llm.h"
#include "parallel/plan.h"

namespace hetis::engine {

/// Per-stage timing breakdown of one iteration.
struct StageTime {
  Seconds dense = 0;      // QKV + OutProj + MLP (+ TP collectives)
  Seconds attention = 0;  // self-attention for the stage's layers
  Seconds comm_out = 0;   // hidden-state handoff to the next stage

  Seconds total() const { return dense + attention + comm_out; }
};

struct IterationTime {
  std::vector<StageTime> stages;

  /// End-to-end latency of the iteration through the pipeline.
  Seconds latency() const;
  /// Steady-state issue interval under pipelining (slowest stage).
  Seconds interval() const;
  /// Paper §7.3 module metric: max per-stage module time x #stages.
  Seconds mlp_module_latency() const;
  Seconds attn_module_latency() const;
};

class ExecModel {
 public:
  ExecModel(const hw::Cluster& cluster, const model::ModelSpec& model)
      : cluster_(&cluster), model_(&model), comm_(cluster) {}

  /// Dense time of `tokens` tokens through one stage (all its layers),
  /// including per-layer TP all-reduces (2 per layer: after attention
  /// projection and after MLP).
  Seconds stage_dense_time(const parallel::StageConfig& stage, std::int64_t tokens) const;

  /// The stage's effective speed under the cluster's degradation overlay:
  /// a TP group advances in lock-step, so the slowest member gates every
  /// collective and the whole stage runs at min(device_speed) of its
  /// members.  1.0 on healthy clusters (the common fast path).
  double stage_speed(const parallel::StageConfig& stage) const;

  /// Stage-local attention: each TP member computes heads/tp query heads
  /// for every sequence.  Decode attention is linear in context with
  /// integer coefficients (KernelModel::decode_attention_total), so a
  /// batch of `n` sequences is priced exactly from its context total
  /// `ctx_sum`.
  Seconds stage_attention_decode(const parallel::StageConfig& stage, std::int64_t n,
                                 std::int64_t ctx_sum, int heads) const;
  Seconds stage_attention_prefill(const parallel::StageConfig& stage,
                                  const std::vector<std::int64_t>& lens, int heads) const;

  /// Hidden-state transfer between consecutive stages for `tokens` tokens.
  Seconds interstage_comm(const parallel::StageConfig& from, const parallel::StageConfig& to,
                          std::int64_t tokens) const;

  /// Full prefill iteration through an instance pipeline over prompts of
  /// `lens` tokens (tokens = sum of lens).  Fills `out` in place, reusing
  /// its stages capacity across calls.
  void prefill_iteration_time(const parallel::InstanceConfig& inst,
                              const std::vector<std::int64_t>& lens, IterationTime& out) const;
  IterationTime prefill_iteration_time(const parallel::InstanceConfig& inst,
                                       const std::vector<std::int64_t>& lens) const;

  /// Full decode iteration through an instance pipeline: `n` sequences,
  /// one token each, whose cached contexts sum to `ctx_sum`.  O(stages):
  /// callers keep the two totals as running integers.
  void decode_iteration_time(const parallel::InstanceConfig& inst, std::int64_t n,
                             std::int64_t ctx_sum, IterationTime& out) const;
  IterationTime decode_iteration_time(const parallel::InstanceConfig& inst, std::int64_t n,
                                      std::int64_t ctx_sum) const;

  /// Per-sequence form kept for perfbench's `costmodel.iteration_ns`
  /// replay: forwards to prefill_iteration_time, or sums `lens` into
  /// decode_iteration_time.
  void iteration_time(const parallel::InstanceConfig& inst,
                      const std::vector<std::int64_t>& lens, bool prefill,
                      IterationTime& out) const;

  const costmodel::KernelModel& kernel() const { return kernel_; }
  const costmodel::CommModel& comm() const { return comm_; }
  const model::ModelSpec& model_spec() const { return *model_; }
  const hw::Cluster& cluster() const { return *cluster_; }

  /// Dense-stage memo hits, the only cost-model memo (decode attention is
  /// closed-form); feeds the `costmodel_hits` bench/telemetry counter.
  std::uint64_t cost_cache_hits() const { return dense_cache_.hits(); }

  /// Differential-test hook: with caching off every query recomputes from
  /// scratch.  Results must be byte-identical either way (the table stores
  /// exact outputs of the same code path); tests/test_hotpath_cache.cc
  /// flips this to prove it.  Toggling clears the table.
  void set_cost_cache_enabled(bool enabled) {
    cache_enabled_ = enabled;
    dense_cache_.clear();
  }
  bool cost_cache_enabled() const { return cache_enabled_; }

 private:
  /// Dense-stage memo key: exact (device set, layers, tokens) tuple.
  /// Padding-free: 8 + 10 x 4 = 48 bytes.  Stages wider than
  /// kMaxCachedStageWidth devices bypass the cache (none of the shipped
  /// presets produce one, and correctness never depends on a hit).
  static constexpr std::size_t kMaxCachedStageWidth = 8;
  struct DenseStageKey {
    std::int64_t tokens = 0;
    std::int32_t layers = 0;
    std::int32_t ndev = 0;
    std::int32_t devices[kMaxCachedStageWidth] = {};
  };

  Seconds stage_dense_time_uncached(const parallel::StageConfig& stage,
                                    std::int64_t tokens) const;

  /// Drops dense-stage entries when the cluster's condition overlay moved
  /// (cached times embed device speeds and link scales).
  void refresh_cache_epoch() const {
    const std::uint64_t e = cluster_->condition_epoch();
    if (e != cache_epoch_) {
      dense_cache_.clear();
      cache_epoch_ = e;
    }
  }

  const hw::Cluster* cluster_;
  const model::ModelSpec* model_;
  costmodel::KernelModel kernel_;
  costmodel::CommModel comm_;
  bool cache_enabled_ = true;
  mutable std::uint64_t cache_epoch_ = 0;
  // 4k slots (0.33 MB once filled): the key space (distinct token counts x
  // stage shapes) runs to thousands of entries per run.  On perfbench
  // rate_sweep, 1024 slots lost 8% of HexGen's hits and 4096 lost 0.01%;
  // a larger table only costs zero-fill in every engine and plan evaluator.
  mutable costmodel::EvalCache<DenseStageKey, Seconds> dense_cache_{1 << 12};
};

/// KV-cache budget of a device after reserving parameters + activations.
/// `param_bytes_on_device` is the model shard resident there.
Bytes kv_budget(const hw::GpuSpec& gpu, Bytes param_bytes_on_device);

}  // namespace hetis::engine
