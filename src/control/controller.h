// The elastic control plane: a Controller that lives inside a simulated
// run, watches the live metric stream, replays a cluster churn script and
// re-deploys the engine online.
//
// Wiring (all per run, so parallel sweeps stay deterministic):
//
//   ControlSpec spec;                       // churn script + policy + knobs
//   control::Controller ctl(spec, cluster);
//   engine::RunOptions run;
//   run.on_start = ctl.starter();           // schedules events + ticks
//   engine::run_trace(*eng, trace, run);
//
// At attach time the Controller subscribes to the engine's run-event bus
// (engine::MetricsCollector::attach), schedules the ChurnSpec's
// ClusterEvents and a periodic policy tick (sim::Simulation::every), and
// from then on:
//
//   * gpu_leave / gpu_join events update device availability and FORCE a
//     re-deploy through engine::Reconfigurable when the active set must
//     change (a vanished device cannot keep serving);
//   * each tick refreshes ControlSignals (queue depth, in-flight count,
//     SLO-attainment EWMA, KV pressure, device counts) and asks the
//     ScalePolicy for a target device count; ELECTIVE changes respect the
//     cooldown;
//   * the active set is always the `target` highest-power available
//     devices, never below min_devices;
//   * every applied decision is published on the bus as an on_decision
//     AuditRecord (a telemetry session appends it to its audit trail).
//
// How the engine reacts is the engine's own Reconfigurable contract:
// HetisEngine replans and live-migrates, the baselines checkpoint-and-
// restart -- which is exactly the asymmetry bench_elastic measures.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "control/events.h"
#include "control/policy.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/reconfigurable.h"
#include "hw/topology.h"
#include "sim/simulation.h"

namespace hetis::control {

/// Declarative configuration of one controlled run; carried by
/// harness::ExperimentSpec::control so every sweep cell builds its own
/// Controller.
struct ControlSpec {
  ChurnSpec churn;                // device availability script
  std::string policy = "static";  // make_policy name
  Seconds tick = 0.5;             // signal refresh + policy period
  Seconds cooldown = 2.0;         // min gap between ELECTIVE re-deploys
  Seconds horizon = 60.0;         // stop ticking after this sim time
  int min_devices = 2;            // elastic floor for any decision
  int initial_devices = 0;        // 0 = start on every cluster device
  engine::SloSpec slo;            // targets behind the attainment signal
  ThresholdPolicyConfig threshold;
  SloPolicyConfig slo_policy;
  double signal_alpha = 0.3;      // EWMA weight of the newest sample
  /// Plan objective replanning engines use for every re-deploy this
  /// controller triggers (parallel/objective.h; the spec's `slo` targets
  /// ride along).  Empty keeps the engine's configured objective -- except
  /// under the "slo" policy, which defaults to "latency": a controller
  /// scaling FOR SLO attainment should not replan FOR raw throughput.
  std::string replan_objective;
  /// Placement tier replanning engines use for controller-triggered
  /// re-deploys (planner::make name: "exhaustive" | "flow" | "auto").
  /// Empty keeps the engine's configured planner.  Validated at
  /// construction so typos fail before any churn fires.
  std::string replan_planner;
  /// A device whose speed ratio or link scale crosses BELOW this counts as
  /// degraded (Hetu's straggler_threshold): crossing it -- in either
  /// direction -- notifies the engine through Reconfigurable::
  /// on_degradation so it may replan on the measured hardware.  Sub-
  /// threshold wobble (0.9 -> 0.95) never triggers a replan storm.
  double straggler_threshold = 0.85;
};

struct ControllerStats {
  int forced_reconfigs = 0;    // churn-driven device-set changes
  int elective_reconfigs = 0;  // policy-driven device-set changes
  int ticks = 0;
  int peak_active = 0;
  int min_active = 0;
  int degradation_events = 0;  // kDeviceSlow + kLinkDegrade applied
  int preempt_notices = 0;     // kPreemptNotice forwarded to the engine
};

class Controller final : public engine::RunObserver {
 public:
  /// `cluster` must be the cluster the engine was built on (the event
  /// script and device ranking are resolved against it) and must outlive
  /// the controller.  This overload cannot replay degradation events
  /// (kDeviceSlow / kLinkDegrade mutate the cluster's condition overlay):
  /// a script containing any throws std::invalid_argument at construction.
  Controller(ControlSpec spec, const hw::Cluster& cluster);

  /// Mutable-cluster overload: additionally replays degradation events by
  /// updating `cluster`'s speed/link overlay live, so the engine's cost
  /// model (which shares the cluster) immediately serves at measured
  /// speed, and notifies the engine via Reconfigurable::on_degradation
  /// when a device crosses the straggler threshold.
  Controller(ControlSpec spec, hw::Cluster& cluster);

  /// RunOptions::on_start adapter; keeps `this` alive only by reference,
  /// so the Controller must outlive the run_trace call.
  std::function<void(sim::Simulation&, engine::Engine&)> starter();

  /// Schedules the churn script + policy tick on `sim`, subscribes this
  /// controller to the engine's run-event bus, and applies
  /// `initial_devices` (re-deploying immediately when it shrinks the
  /// deployment).  Throws std::invalid_argument when the engine does not
  /// implement engine::Reconfigurable but the spec demands changes.
  void attach(sim::Simulation& sim, engine::Engine& engine);

  const ControllerStats& stats() const { return stats_; }
  const ControlSignals& signals() const { return signals_; }
  const std::string& policy_name() const { return policy_name_; }
  /// The objective this controller instructs replanning engines to use
  /// ("" when the engine keeps its own; see ControlSpec::replan_objective).
  const std::string& replan_objective() const { return replan_objective_; }
  /// The placement tier this controller instructs replanning engines to use
  /// ("" when the engine keeps its own; see ControlSpec::replan_planner).
  const std::string& replan_planner() const { return spec_.replan_planner; }
  /// Integral of the assigned device count over sim time [0, until] --
  /// the device-seconds this deployment occupied, the denominator of the
  /// harness's cost-efficiency columns.  `until` is typically the run's
  /// makespan; segments are closed by each re-deploy.
  double device_seconds(Seconds until) const;
  /// The generated churn script (for logging / tests).
  const std::vector<ClusterEvent>& events() const { return events_; }

  // Run-event bus sink: counts requests into and out of the queue and
  // grades finishes into the SLO-attainment EWMA.
  void on_arrival(const workload::Request& r) override;
  void on_prefill_done(workload::RequestId id, Seconds t) override;
  void on_reprefill_done(workload::RequestId id, Seconds t) override;
  void on_finish(workload::RequestId id, Seconds t) override;
  void on_preempt(workload::RequestId id, Seconds t) override;

 private:
  /// Shared constructor; `mutable_cluster` is null for the const overload.
  Controller(ControlSpec spec, const hw::Cluster& cluster, hw::Cluster* mutable_cluster);

  void handle_event(sim::Simulation& sim, const ClusterEvent& ev);
  /// One policy tick; returns whether another tick fits before the horizon.
  bool tick(sim::Simulation& sim);
  /// Re-deploys onto the target active set when it differs from the
  /// current one, auditing it as fired by `trigger` on `device` (-1 when
  /// no device is involved).  Returns true when a reconfiguration was
  /// applied.
  bool apply_target(sim::Simulation& sim, bool forced, const char* trigger, int device = -1);
  /// The `target_count_` highest-power available devices (>= min floor).
  std::vector<int> pick_active() const;
  int clamp_target(int target) const;

  /// Count of devices currently below the straggler threshold (speed or
  /// link), feeding ControlSignals::degraded_devices.
  int count_degraded() const;

  /// Writes the counted signals (queue depth, in-flight, KV pressure,
  /// device counts) into `s` as of now, with `active` assigned devices.
  void refresh(ControlSignals& s, Seconds now, int active) const;

  /// Applies one decision and publishes its AuditRecord on the engine's
  /// run-event bus: captures the engine's plan digest and search count
  /// (ReconfigStats::plan_searches), runs `act`, which returns the device
  /// set after the action, and audits `action`, fired by `trigger` on
  /// `device`.  The counted signals are refreshed at DECISION time -- a
  /// forced churn re-deploy between ticks must not audit half-a-tick-old
  /// values -- while the SLO EWMA carries its latest state as-is.  The
  /// record carries search diagnostics only when `act` searched.
  void decide(sim::Simulation& sim, const char* trigger, int device, const char* action,
              bool forced, std::vector<int> devices_before,
              const std::function<std::vector<int>()>& act);

  ControlSpec spec_;
  const hw::Cluster* cluster_;
  hw::Cluster* mutable_cluster_ = nullptr;  // non-null: may replay degradation
  std::unique_ptr<ScalePolicy> policy_;
  std::string policy_name_;
  std::vector<ClusterEvent> events_;

  engine::Engine* engine_ = nullptr;
  engine::Reconfigurable* reconfigurable_ = nullptr;
  std::string replan_objective_;
  sim::PeriodicTask ticking_;

  std::set<int> available_;     // device ids currently usable
  std::vector<int> active_;     // sorted; devices assigned to the engine
  // (time, assigned-device count) step function behind device_seconds().
  std::vector<std::pair<Seconds, int>> active_history_;
  int target_count_ = 0;
  Seconds last_elective_ = -1;  // cooldown reference

  // Signal state.
  ControlSignals signals_;
  ControllerStats stats_;
  std::size_t arrived_ = 0, prefilled_ = 0, finished_ = 0;
  /// Requests preempted after their first prefill completed and not yet
  /// re-prefilled: back in the admission queue, so they count toward
  /// queue_depth beside arrived_ - prefilled_.
  std::unordered_set<workload::RequestId> reprefilling_;
  bool slo_seeded_ = false;
};

}  // namespace hetis::control
