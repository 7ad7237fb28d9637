// Placement planners: interchangeable tiers that turn (cluster, model,
// workload) into a ParallelPlan.
//
//   "exhaustive" -- the paper's hierarchical search (parallel/parallelizer.h)
//                   wrapped as a Planner.  Optimal within the paper's
//                   candidate space; its grouping x pruning x TP/PP
//                   enumeration is priced per candidate, which is fine for
//                   testbed-sized clusters and hopeless for datacenters.
//   "flow"       -- LP relaxation over the same cost model
//                   (planner/flow_planner.h): aggregates devices by type,
//                   solves for the least bottleneck stage cost and the
//                   cheapest primaries in closed form, rounds a ladder of
//                   relaxed solutions into concrete candidates and
//                   re-scores them EXACTLY through the PlanEvaluator, so
//                   the LP only decides what to look at, never what wins.  Planning cost grows with
//                   the number of GPU *types*, not GPUs.
//   "auto"       -- exhaustive up to kAutoExhaustiveMaxDevices devices
//                   (keeping small-cluster plans byte-identical to the
//                   legacy search), flow beyond.
//
// Every planner ranks candidates with the same pluggable PlanObjective and
// reports how it searched through SearchDiagnostics, so the engine, the
// control plane and the harness treat the tiers interchangeably.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/topology.h"
#include "model/llm.h"
#include "parallel/parallelizer.h"

namespace hetis::planner {

/// Device count at or below which "auto" keeps the exhaustive oracle.
inline constexpr int kAutoExhaustiveMaxDevices = 16;

class Planner {
 public:
  virtual ~Planner() = default;

  /// Produces a plan for `profile`; diagnostics() describes the search
  /// afterwards.  Throws std::runtime_error when no feasible configuration
  /// exists (mirrors Parallelizer::plan).
  virtual parallel::ParallelPlan plan(const parallel::WorkloadProfile& profile) = 0;

  /// Diagnostics of the most recent plan() call.
  virtual const parallel::SearchDiagnostics& diagnostics() const = 0;

  virtual std::string name() const = 0;
};

/// The exhaustive hierarchical search as a Planner: the small-cluster
/// oracle the flow tier is validated against (tests/test_planner.cc).
class ExhaustivePlanner : public Planner {
 public:
  ExhaustivePlanner(const hw::Cluster& cluster, const model::ModelSpec& model,
                    parallel::ParallelizerOptions opts);

  parallel::ParallelPlan plan(const parallel::WorkloadProfile& profile) override;
  const parallel::SearchDiagnostics& diagnostics() const override {
    return search_.diagnostics();
  }
  std::string name() const override { return "exhaustive"; }

 private:
  parallel::Parallelizer search_;
};

/// Builds a planner by name ("exhaustive" | "flow" | "auto"; "" counts as
/// "auto", the ParallelizerOptions default).  Throws std::invalid_argument
/// listing the known names otherwise.  `cluster` and `model` must outlive
/// the planner.
std::unique_ptr<Planner> make(const std::string& name, const hw::Cluster& cluster,
                              const model::ModelSpec& model,
                              const parallel::ParallelizerOptions& opts);

/// Names accepted by make(), sorted.
std::vector<std::string> planner_names();

/// Validates a planner name without building one (config paths fail fast on
/// typos, before any replan fires).  Throws std::invalid_argument like make().
void validate(const std::string& name);

}  // namespace hetis::planner
