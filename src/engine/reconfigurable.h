// Online reconfiguration interface for the elastic control plane (§5.3).
//
// An engine that implements Reconfigurable can be re-deployed onto a new
// active device set MID-RUN: the control plane (src/control/) calls
// `reconfigure` when a GPU joins or leaves, or when a scale policy decides
// to grow/shrink the deployment.  The semantics of the transition are the
// engine's own -- and that asymmetry is the point of the benchmark:
//
//   * HetisEngine re-runs the Parallelizer over the new device set and
//     LIVE-MIGRATES prefilled requests: their KV caches move through the
//     Hauler and decoding resumes where it left off (dynamic parallelism,
//     §5.3).  Requests that do not fit the new deployment fall back to
//     recompute.  Device removals are graceful drains (see
//     control::ClusterEventKind) -- KV on a leaving device is still
//     readable during the migration; hard failures would force recompute
//     and are future work.
//   * Splitwise / HexGen implement checkpoint-and-restart: the deployment
//     is torn down, the model is re-loaded onto the new set (a dead window
//     of param_bytes / LAN bandwidth), and every in-flight request
//     re-prefills from scratch -- the cost of static parallelism.
//
// Implementations must keep MetricsCollector invariants intact: every
// arrival still finishes exactly once, restarted progress is surfaced as
// on_preempt, and on_prefill_done never fires twice for the same request.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "parallel/objective.h"
#include "sim/simulation.h"

namespace hetis::parallel {
struct SearchDiagnostics;
}

namespace hetis::engine {

/// Cumulative reconfiguration accounting, reported by bench_elastic.
struct ReconfigStats {
  int reconfigurations = 0;    // applied device-set changes
  int migrated_requests = 0;   // live-migrated with decode progress intact
  int restarted_requests = 0;  // lost their progress (checkpoint-restart or
                               // no room in the new deployment)
  Bytes migrated_kv_bytes = 0; // KV moved by live migrations
  Seconds restart_dead_time = 0;  // total serving gap paid for re-deploys
  int plan_searches = 0;       // replans that ran a plan search or replayed
                               // one (last_search_diagnostics describes the
                               // latest); construction's search excluded
};

class Reconfigurable {
 public:
  virtual ~Reconfigurable() = default;

  /// Device ids (of the construction cluster) currently serving.
  virtual std::vector<int> active_devices() const = 0;

  /// Re-deploys the engine onto `devices` (a non-empty subset of the
  /// construction cluster's ids) at sim.now().  In-flight requests are
  /// carried over per the engine's semantics (see file header); no arrival
  /// may be lost or double-finished.  Throws std::invalid_argument when the
  /// device set cannot host the model at all.
  virtual void reconfigure(sim::Simulation& sim, const std::vector<int>& devices) = 0;

  /// Selects the plan objective subsequent `reconfigure` calls (and any
  /// other replanning) optimize for -- the control plane passes e.g. the
  /// latency objective when its SLO-attainment policy replans under churn.
  /// Engines without a planner (the checkpoint-restart baselines' fixed
  /// layouts) ignore it, hence the default no-op.
  virtual void set_plan_objective(const parallel::ObjectiveSpec& objective) {
    (void)objective;
  }

  /// Selects the placement tier subsequent replans run through (a
  /// planner::make name: "exhaustive" | "flow" | "auto").  The control
  /// plane sets this when churn pushes the surviving cluster past the
  /// scale the exhaustive search handles.  Default no-op for engines
  /// without a planner.
  virtual void set_planner(const std::string& planner) { (void)planner; }

  /// The cluster's degradation overlay changed materially (a device
  /// crossed the controller's straggler threshold, in either direction).
  /// HetisEngine replans over its CURRENT device set -- the cost model now
  /// prices the degraded hardware, so the search may DEMOTE a straggling
  /// primary to an Attention worker -- and re-deploys only when the plan
  /// actually changes.  The checkpoint-restart baselines keep the default
  /// no-op: they serve on (and suffer) the degraded hardware as-is, which
  /// is the "degrade naively" half of the benchmark's asymmetry.
  virtual void on_degradation(sim::Simulation& sim) { (void)sim; }

  /// Advance warning: `device` will be reclaimed at `leave_time` (a
  /// kPreemptNotice event; the kGpuLeave itself arrives separately).
  /// HetisEngine uses the lead time to re-deploy WITHOUT the doomed device
  /// and pre-migrate its KV through the Hauler while the device is still
  /// up; engines that cannot act early keep the default no-op and pay the
  /// full restart at the actual leave.
  virtual void on_preempt_notice(sim::Simulation& sim, int device, Seconds leave_time) {
    (void)sim;
    (void)device;
    (void)leave_time;
  }

  virtual const ReconfigStats& reconfig_stats() const = 0;

  /// Diagnostics of the most recent plan search (tier, configurations
  /// evaluated, LP solves, wall time), or nullptr for engines that never
  /// replan.  The control plane copies these into an audit record when the
  /// decision's action advanced ReconfigStats::plan_searches, so every
  /// replan record names the planner tier that produced it and a decision
  /// that searched nothing carries no stale diagnostics.
  virtual const parallel::SearchDiagnostics* last_search_diagnostics() const { return nullptr; }

  /// One-line fingerprint of the current deployment plan ("" when the
  /// engine has none), e.g. "hetis:3inst[pp2,tp1+2attn,...]".  The audit
  /// trail stores the digest before/after each action as the plan diff --
  /// human-scannable, not parseable.
  virtual std::string plan_digest() const { return ""; }
};

}  // namespace hetis::engine
