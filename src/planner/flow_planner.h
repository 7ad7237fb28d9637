// FlowPlanner: datacenter-scale placement via a closed-form relaxation +
// exact re-scoring.
//
// The exhaustive search's cost is a product over device-grouping, pruning
// depth and per-stage TP x PP choices -- fine at testbed scale, hopeless at
// hundreds of GPUs.  Helix's observation (PAPERS.md) is that heterogeneous
// placement is a max-flow problem over *device types*: what matters is how
// many primaries of each type serve a pipeline and how many layers they
// carry, not which identical GPU gets which slot.  The flow planner adopts
// that framing against our own cost model:
//
//   1. Aggregate: per GPU type t, a per-instance share of n_t devices, a
//      profiled per-layer cost tau_t (one device, prefill + weighted
//      decode -- the same perfect-scaling cost the exhaustive pruning phase
//      uses) and a per-device parameter budget.
//   2. Bound the bottleneck stage cost C.  For a given C, type t needs
//      k_t = max(tau_t / C, 1 / m_t) devices per layer (perfect scaling,
//      and m_t = mem_t / layer_bytes layers fit on one device), so the
//      relaxed optimum C* is the least C whose n_t devices cover L layers:
//      sum_t n_t * min(C / tau_t, m_t) >= L, found by one scan of the T
//      breakpoints tau_t * m_t (`min_bottleneck_cost`).  The primaries f_t
//      at a cost C >= C* minimize sum tau_t * f_t so slow types are shed
//      first (the relaxed analogue of the paper's Delta-pruning, which
//      demotes weak GPUs to Attention workers): a fractional knapsack on
//      the per-layer cost tau_t * k_t, or, when that knapsack needs less
//      than one device, the cheapest one- or two-type mix of exactly one
//      device (`cheapest_primaries`).
//      Both are O(T log T) in the number of GPU types, independent of
//      #devices.
//   3. Round a ladder of relaxed solutions -- C* relaxed by 0%..100% -- into
//      integer per-type primary counts; each in two placements (demoted
//      devices kept as Attention workers, or dropped from the deployment).
//      Two oracle-anchor candidates (all primaries; the paper's Delta walk)
//      keep the small-cluster behaviour honest.
//   4. Score every candidate EXACTLY through the PlanEvaluator under the
//      configured PlanObjective, with the same KV-capacity filter as the
//      exhaustive search; refine the per-grouping winner's TP x PP split.
//      The relaxation only proposes; measured cost disposes.
//
// The groupings, the Delta walk, the layer split, the TP x PP layouts, the
// grouping tie band and the replica mapping are the exhaustive tier's own
// steps (parallel/parallelizer.h); only the candidate proposer differs.
// When no candidate survives, the planner falls back to the exhaustive
// oracle and records why in SearchDiagnostics::fallback_reason.
#pragma once

#include <vector>

#include "planner/planner.h"

namespace hetis::planner {

/// One GPU type of an instance's device share, as the relaxation sees it.
struct TypeAggregate {
  int count = 0;     // n_t: devices of the type in the share
  double tau = 0;    // tau_t: per-layer cost of one device (> 0; +inf = unusable)
  double room = 0;   // m_t: layers one device's parameter budget holds
};

/// C*: the least bottleneck cost C with sum_t count_t * min(C / tau_t,
/// room_t) >= layers, or +inf when the types' memory cannot hold the model.
double min_bottleneck_cost(const std::vector<TypeAggregate>& types, int layers);

/// Fewest-cost relaxed primaries at bottleneck cost C: minimizes
/// sum_t tau_t * f_t subject to sum_t f_t * min(C / tau_t, room_t) >= layers,
/// 0 <= f_t <= count_t and sum_t f_t >= 1.  Empty when C cannot host the
/// layers (C < C*, beyond a 1e-12 relative shortfall in covered layers).
std::vector<double> cheapest_primaries(const std::vector<TypeAggregate>& types, int layers,
                                       double cost);

class FlowPlanner : public Planner {
 public:
  FlowPlanner(const hw::Cluster& cluster, const model::ModelSpec& model,
              parallel::ParallelizerOptions opts);

  parallel::ParallelPlan plan(const parallel::WorkloadProfile& profile) override;
  const parallel::SearchDiagnostics& diagnostics() const override { return diag_; }
  std::string name() const override { return "flow"; }

 private:
  const hw::Cluster* cluster_;
  const model::ModelSpec* model_;
  parallel::ParallelizerOptions opts_;
  // Shares the cost model (perfect_scaling_cost, PlanEvaluator) and serves
  // as the fallback oracle.
  parallel::Parallelizer oracle_;
  parallel::SearchDiagnostics diag_;
};

}  // namespace hetis::planner
