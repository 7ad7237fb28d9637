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
//   4. Intra-stage TP x PP enumeration with the full C_comm + C_comp cost
//      model.
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
//
// The search is one serial loop over the groupings, priced by the
// Parallelizer's own evaluator.  Its steps are the free functions below the
// class; the flow tier (planner/flow_planner.h) proposes its candidates on
// the same steps, so each is defined once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
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
  // Ignored: the search is serial.  Kept only because perfbench still
  // assigns it; the field goes with perfbench's pin (ROADMAP scoreboard
  // item (c)).
  std::size_t search_threads = 0;
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

/// One GPU type's devices: the whole cluster's (devices_by_type) or one
/// instance's share of them (instance_share).
struct TypeShare {
  hw::GpuType type;
  std::vector<int> device_ids;
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
  /// Builds the best intra-stage TP/PP layout for one instance whose
  /// per-type primary counts are `primaries` under `objective` (scored on
  /// the d-wide estimate); writes the winning score and plan-level estimate
  /// through the out parameters.  The demoted devices become Attention
  /// workers unless `drop_pruned`.  With `require_hosts_model`, layouts
  /// whose devices cannot hold their parameter shard are discarded (the
  /// depth-explored candidate space contains such configs; the legacy
  /// Delta frontier keeps its historical semantics).
  InstanceConfig best_instance_config(const std::vector<TypeShare>& share,
                                      const std::vector<int>& primaries, bool drop_pruned,
                                      bool require_hosts_model, const WorkloadProfile& profile,
                                      int d, const PlanObjective& objective,
                                      double* score_out, PlanEstimate* estimate_out) const;

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

// --- Search steps shared by the exhaustive and flow tiers ---------------
// A share's per-type primary counts f keep the LAST f_t ids of each type:
// pruning demotes from the front of a share, low-end types first.

/// The cluster's devices by type, high-end -> low-end.  Within a type,
/// degraded devices (condition overlay, hw/topology.h) sort first, so a
/// straggler is the first of its type to be demoted to an Attention worker;
/// the sort is stable, so a healthy cluster keeps id order.
std::vector<TypeShare> devices_by_type(const hw::Cluster& cluster);

/// Data-parallel instance counts: 1, and with `allow_dp` every d that
/// divides every type's device count.
std::vector<int> dp_groupings(const std::vector<TypeShare>& by_type, bool allow_dp);

/// Instance 0's share of a d-way grouping: the first count/d devices of
/// each type (the other instances are symmetric).
std::vector<TypeShare> instance_share(const std::vector<TypeShare>& by_type, int d);

/// The workload one of d instances serves: a 1/d share of the prefill
/// tokens and of the decode batch (at least 1 each).
WorkloadProfile instance_profile(const WorkloadProfile& profile, int d);

/// Per-type counts after removing `depth` devices, low-end types first.
std::vector<int> prune_depth(std::vector<int> counts, int depth);

/// The devices counts `primaries` demote, in removal order.
std::vector<int> demoted_devices(const std::vector<TypeShare>& share,
                                 const std::vector<int>& primaries);

/// Largest-remainder layer split proportional to stage speed (1 / per-layer
/// cost); a stage left at zero layers takes one from the largest stage.
std::vector<int> balance_layers(int layers, const std::vector<double>& per_layer_cost);

/// The paper's Delta walk: from the lowest-end type up, remove one device
/// at a time while the perfect-scaling cost C_p grows by at most `delta`
/// over the last accepted removal, keeping at least one primary.  The
/// first removal that costs more ends the walk within that type only; the
/// walk goes on with the next type up.  Returns the per-type primary
/// counts; `probes` (may be null) is incremented once per C_p probe.
std::vector<int> delta_walk(const Parallelizer& search, const std::vector<TypeShare>& share,
                            const WorkloadProfile& profile, double delta, int* probes);

/// The (tp, pp) layouts of each unified stage: tp * pp == its device count
/// and no sub-stage without layers (tp = all devices when none qualifies).
std::vector<std::vector<std::pair<int, int>>> stage_layouts(
    const std::vector<StageConfig>& unified);

/// Unified stages expanded by `choice` (an index into each stage's
/// layouts): pp sub-stages of tp consecutive devices, layers split as
/// evenly as the integer division allows.  No Attention workers.
InstanceConfig expand_layouts(const std::vector<StageConfig>& unified,
                              const std::vector<std::vector<std::pair<int, int>>>& layouts,
                              const std::vector<std::size_t>& choice);

/// Advances `choice` through the layouts' cross product (mixed radix);
/// false once every combination has been visited.
bool next_layout(std::vector<std::size_t>& choice,
                 const std::vector<std::vector<std::pair<int, int>>>& layouts);

/// Index of the winning grouping by score (+inf = no plan): a later
/// grouping must beat the incumbent by more than 0.1% so near-ties keep the
/// earlier, narrower one.  scores.size() when nothing is finite.
std::size_t pick_grouping(const std::vector<double>& scores);

/// Instance 0's config replicated across the d instances of a grouping:
/// every device id shifts by rep * count/d within its type.
ParallelPlan replicate_instance(const InstanceConfig& inst, const hw::Cluster& cluster,
                                const std::vector<TypeShare>& by_type, int d);

}  // namespace hetis::parallel
