// The Parallelizer (paper §4.1): primary-worker parallelism search.
//
// Hierarchical process, exactly as Fig. 4 describes:
//   1. Device grouping: enumerate data-parallel instance counts d that
//      divide every GPU type's count evenly; each instance receives an
//      equal per-type share.
//   2. Per-type unified pipeline stages, ordered high-end -> low-end, with
//      a balanced layer partition minimizing C_p = max stage cost under
//      perfect latency scaling (no comm).
//   3. Pruning heuristic: remove GPUs kappa one at a time, lowest- to
//      highest-end, while C_p(sigma - kappa) / C_p(sigma) <= 1 + Delta
//      (Delta = 0.05).  Removed GPUs become Attention workers.
//   4. Intra-stage TP x PP enumeration (evaluated in parallel on the
//      thread pool) with the full C_comm + C_comp cost model.
//   5. Configurations whose KV capacity cannot host the workload's decode
//      set are filtered out; the best-scoring surviving configuration wins.
//
// Candidates are priced by the PlanEvaluator (parallel/evaluator.h) and
// ranked by a pluggable PlanObjective (parallel/objective.h).  The default
// "throughput" objective scores the paper's iteration cost and follows the
// Delta-pruning frontier exactly, reproducing the legacy plans byte for
// byte.  Objectives that explore depth ("latency", "goodput_per_device")
// additionally enumerate every pruning depth -- and, per depth, both
// keeping the removed GPUs as Attention workers and dropping them from the
// deployment entirely -- so a latency-optimal search can land on e.g. the
// 4xA100-only plan that beats the full 12-device pipeline on TTFT.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/exec.h"
#include "hw/topology.h"
#include "model/llm.h"
#include "parallel/evaluator.h"
#include "parallel/objective.h"
#include "parallel/plan.h"

namespace hetis::parallel {

/// The request-distribution summary R the search optimizes for.
struct WorkloadProfile {
  std::int64_t prefill_tokens = 4096;  // tokens per prefill iteration
  std::int64_t decode_batch = 64;      // concurrent sequences per instance
  std::int64_t mean_context = 512;     // average KV length during decode
  double decode_weight = 256;          // decode iterations per prefill
                                       // (roughly the mean output length)
  Bytes min_kv_bytes = 0;              // feasibility floor for filtering
};

struct ParallelizerOptions {
  double delta = 0.05;          // pruning tolerance (paper default)
  bool enable_pruning = true;   // ablation switch
  bool allow_dp = true;         // consider multi-instance groupings
  std::size_t search_threads = 0;  // 0 = hardware concurrency
  /// What the search optimizes (parallel/objective.h).  The default
  /// "throughput" spec keeps the legacy cheapest-cost plans byte-identical.
  ObjectiveSpec objective;
  /// Which placement tier produces the plan (planner/planner.h):
  ///   "exhaustive" -- the hierarchical search below, always
  ///   "flow"       -- the LP/flow planner (datacenter scale)
  ///   "auto"       -- exhaustive up to planner::kAutoExhaustiveMaxDevices
  ///                   devices, flow beyond (default; keeps small-cluster
  ///                   plans byte-identical)
  std::string planner = "auto";
};

struct SearchDiagnostics {
  std::string planner = "exhaustive";    // tier that produced the plan
  std::string objective = "throughput";  // objective the search ranked by
  int configurations_evaluated = 0;
  int instances_considered = 0;
  int pruned_devices = 0;
  double best_cost = 0;  // best objective score (negative for maximizing
                         // objectives like goodput_per_device)
  Seconds wall_time = 0;
  // Flow-planner extras (zero / empty on the exhaustive path).
  std::size_t lp_solves = 0;    // relaxed primaries solves, one per ladder rung
  double relaxation_gap = 0;    // (exact iteration cost - C*) / C*
  std::string fallback_reason;  // why flow deferred to the oracle ("" = it didn't)
};

class Parallelizer {
 public:
  Parallelizer(const hw::Cluster& cluster, const model::ModelSpec& model,
               ParallelizerOptions opts = {});

  /// Runs the full hierarchical search under the options' objective.
  ParallelPlan plan(const WorkloadProfile& profile);
  /// Same search ranked by a caller-supplied objective (pluggable policies
  /// beyond the make_objective built-ins).
  ParallelPlan plan(const WorkloadProfile& profile, const PlanObjective& objective);

  const SearchDiagnostics& diagnostics() const { return diag_; }
  const PlanEvaluator& evaluator() const { return evaluator_; }

  /// C_p: max per-stage cost under perfect scaling for a per-type device
  /// allocation (counts per GpuType) -- the pruning-phase cost (§4.1).
  double perfect_scaling_cost(const std::vector<std::pair<hw::GpuType, int>>& stage_devices,
                              const WorkloadProfile& profile) const;

 private:
  struct TypeShare {
    hw::GpuType type;
    std::vector<int> device_ids;  // share for one instance
  };

  /// Layer counts proportional to stage speed (balanced partition).
  std::vector<int> balance_layers(const std::vector<double>& per_layer_cost) const;

  /// Builds the best intra-stage TP/PP layout for one instance under
  /// `objective` (scored on the d-wide estimate, priced by `evaluator`);
  /// writes the winning score and plan-level estimate through the out
  /// parameters.  With
  /// `require_hosts_model`, layouts whose devices cannot hold their
  /// parameter shard are discarded (the depth-explored candidate space
  /// contains such configs; the legacy Delta frontier keeps its historical
  /// semantics).
  InstanceConfig best_instance_config(const PlanEvaluator& evaluator,
                                      const std::vector<TypeShare>& shares,
                                      const std::vector<int>& pruned, bool drop_pruned,
                                      bool require_hosts_model, const WorkloadProfile& profile,
                                      int d, const PlanObjective& objective, double* score_out,
                                      PlanEstimate* estimate_out) const;

  /// Per-layer dense+attention cost of one token batch on `count` devices
  /// of `type` under perfect scaling.
  double per_layer_cost_perfect(hw::GpuType type, int count,
                                const WorkloadProfile& profile) const;

  const hw::Cluster* cluster_;
  const model::ModelSpec* model_;
  ParallelizerOptions opts_;
  engine::ExecModel exec_;
  PlanEvaluator evaluator_;
  SearchDiagnostics diag_;
};

}  // namespace hetis::parallel
