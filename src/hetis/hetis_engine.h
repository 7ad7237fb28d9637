// HetisEngine: the paper's system (§3-§6) assembled on the simulation
// substrate.
//
// Pipeline: Profiler fits Eq. 3/4 per device -> Parallelizer (§4.1) selects
// primary stages + Attention workers -> each instance runs continuous
// batching where decode Attention is placed per request, at head
// granularity, by the Dispatcher's LP (§5.2), re-balanced online (§5.3),
// with KV movement executed by the Hauler on a low-priority channel (§6).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "costmodel/profiler.h"
#include "dispatch/dispatcher.h"
#include "engine/batching.h"
#include "engine/engine.h"
#include "engine/exec.h"
#include "engine/options.h"
#include "engine/reconfigurable.h"
#include "hauler/hauler.h"
#include "parallel/parallelizer.h"

namespace hetis::core {

/// Hetis's knobs live in engine/options.h so the registry front-end can
/// carry them without including this header; the historical name remains.
using HetisOptions = engine::HetisConfig;

class HetisInstance;

class HetisEngine : public engine::Engine, public engine::Reconfigurable {
 public:
  /// Serves on `opts.plan` when set, else on the plan the Parallelizer finds.
  HetisEngine(const hw::Cluster& cluster, const model::ModelSpec& model, HetisOptions opts = {});
  ~HetisEngine() override;

  std::string name() const override { return "Hetis"; }
  void start(sim::Simulation& sim) override;
  void submit(sim::Simulation& sim, const workload::Request& r) override;
  Bytes usable_kv_capacity() const override;
  double kv_fill_fraction() const override;
  /// Sums solver-workspace stats over live AND retired instances (a
  /// reconfigure must not zero the cumulative counters) plus the shared
  /// cost-model caches.
  engine::PerfCounters perf_counters() const override;

  /// Per-tenant admission priorities (engine/options.h); call before the
  /// first submit.  Survives reconfiguration.
  void set_tenant_priorities(std::vector<int> priorities);

  // Reconfigurable: dynamic parallelism (§5.3) applied to cluster churn --
  // the Parallelizer re-plans over the new device set and prefilled
  // requests LIVE-MIGRATE: their KV moves through the Hauler and decoding
  // resumes with progress intact (no dead window, no recompute unless the
  // new deployment cannot host them).
  std::vector<int> active_devices() const override;
  void reconfigure(sim::Simulation& sim, const std::vector<int>& devices) override;
  /// Subsequent replans (and only replans -- the running deployment is not
  /// torn down) search under this objective; the control plane's
  /// SLO-attainment policy passes the latency objective here.
  void set_plan_objective(const parallel::ObjectiveSpec& objective) override;
  /// Selects the placement tier ("exhaustive" | "flow" | "auto") subsequent
  /// replans run through.  Validates eagerly: a typo fails here, not
  /// mid-churn on a replan.
  void set_planner(const std::string& planner) override;
  /// Degradation response (§4.1's Delta-pruning applied online): replan
  /// over the CURRENT device set -- the shared cluster's condition overlay
  /// makes the cost model price measured hardware -- and re-deploy only if
  /// the layout changed.  A straggling primary is typically DEMOTED to an
  /// Attention worker (memory-bound attention tolerates a slow device far
  /// better than the dense pipeline does), never dropped.
  void on_degradation(sim::Simulation& sim) override;
  /// Preemption warning: re-deploys without the doomed device while its KV
  /// is still readable, so the Hauler pre-migrates during the lead window
  /// and the actual gpu_leave finds nothing left to rescue.
  void on_preempt_notice(sim::Simulation& sim, int device, Seconds leave_time) override;
  const engine::ReconfigStats& reconfig_stats() const override { return stats_; }
  const parallel::SearchDiagnostics* last_search_diagnostics() const override {
    return &search_diag_;
  }
  /// "hetis:<n>inst[pp<stages>/dev<count>+<w>aw,...]" -- the audit trail's
  /// plan diff.
  std::string plan_digest() const override;

  const parallel::ParallelPlan& plan() const { return plan_; }
  /// The objective the next plan search would use (construction value until
  /// set_plan_objective overrides it).
  const parallel::ObjectiveSpec& plan_objective() const { return opts_.search.objective; }
  /// Diagnostics of the most recent plan search (whichever planner tier ran
  /// it); default-constructed when the engine serves on an externally
  /// pinned plan.
  const parallel::SearchDiagnostics& search_diagnostics() const { return search_diag_; }
  const costmodel::ProfileResult& profile() const { return profile_; }
  Bytes migrated_bytes() const { return hauler_.total_bytes(); }
  std::int64_t migrations() const { return hauler_.total_migrations(); }
  /// §5.3 re-dispatch counts summed over live AND retired instances, so
  /// they stay cumulative across reconfigurations like perf_counters().
  int rescue_redispatches() const;
  int balance_redispatches() const;

 private:
  void build_instances();
  /// Least-filled-instance routing shared by submit and re-admission.
  HetisInstance* least_filled();
  /// Runs the configured planner tier over the subcluster of `devices` and
  /// remaps the result back onto construction-cluster ids, or returns the
  /// plan_table_ entry of an earlier identical search.  Pure planning:
  /// does not touch the running deployment (so on_degradation can compare
  /// before committing).
  parallel::ParallelPlan compute_plan(const std::vector<int>& devices);
  /// Tears down the current instances, installs `plan`, live-migrates what
  /// it can (see reconfigure's contract).
  void apply_plan(sim::Simulation& sim, parallel::ParallelPlan plan);

  HetisOptions opts_;
  engine::ExecModel exec_;
  parallel::ParallelPlan plan_;
  parallel::SearchDiagnostics search_diag_;
  // compute_plan's results by device list.  The search is a pure function
  // of (devices, condition epoch, objective, planner tier), so the table is
  // cleared whenever the epoch, the objective or the tier changes.
  struct PlannedSet {
    parallel::ParallelPlan plan;
    parallel::SearchDiagnostics diag;
  };
  std::map<std::vector<int>, PlannedSet> plan_table_;
  std::uint64_t plan_table_epoch_ = 0;
  costmodel::ProfileResult profile_;
  hauler::Hauler hauler_;
  std::vector<int> tenant_priorities_;
  std::vector<std::unique_ptr<HetisInstance>> instances_;
  // Instances retired by reconfigure stay alive until the engine dies so
  // their still-scheduled simulation events remain safe no-ops.
  std::vector<std::unique_ptr<HetisInstance>> retired_;
  engine::ReconfigStats stats_;
  sim::PeriodicTask usage_sampling_;  // Fig. 14 sampler (see start())
};

/// One Hetis serving instance (primary pipeline + attention-worker pool) on
/// the shared continuous-batching loop: admission dispatches each request's
/// heads through the Dispatcher's LP, and decode attention is priced at the
/// placement it chose.
class HetisInstance final : public engine::BatchingLoop {
 public:
  HetisInstance(const engine::ExecModel& exec, const parallel::InstanceConfig& cfg,
                const costmodel::ProfileResult& profile, engine::MetricsCollector& metrics,
                hauler::Hauler& hauler, const HetisOptions& opts);

  void sample_usage(sim::Simulation& sim);

  /// Adopts a prefilled request with decode progress intact (elastic live
  /// migration): its heads are dispatched into this instance, its `kv`
  /// bytes are booked on the Hauler from `src_device`, and decoding stays
  /// suspended until they land.  Returns the landing time, or nullopt --
  /// nothing dispatched or booked -- when the dispatcher cannot host it.
  std::optional<Seconds> adopt(sim::Simulation& sim, const engine::LiveRequest& lr,
                               int src_device, Bytes kv);

  /// Recompute-preempts running request `id` (§5.3.2's last resort): frees
  /// its heads and re-queues it at the front, unprefilled.  No-op when `id`
  /// is not running.  A decode iteration already in flight skips it.
  void preempt(sim::Simulation& sim, workload::RequestId id);

  /// Representative primary device (Hauler endpoint for migrations).
  int primary_device() const { return cfg_.stages.front().devices.front(); }

  /// Fill fraction for routing (max over logical devices).
  double fill_fraction() const;
  Bytes kv_capacity() const;

  int rescue_redispatches() const { return rescue_count_; }
  int balance_redispatches() const { return balance_count_; }
  const dispatch::Dispatcher& dispatcher() const { return dispatcher_; }

 private:
  bool admit(sim::Simulation& sim, const engine::LiveRequest& lr) override;
  std::size_t running() const override { return running_.size(); }
  bool plan_decode(sim::Simulation& sim, DecodeStep& step) override;
  void finish_decode_batch(sim::Simulation& sim) override;
  void prefilled(sim::Simulation& sim, engine::LiveRequest& lr) override;
  void drain_running(std::vector<engine::LiveRequest>& live) override;

  void resolve_memory_pressure(sim::Simulation& sim);
  void maybe_rebalance(sim::Simulation& sim);
  /// Iterator to the first running request with id >= `id`.
  std::vector<engine::LiveRequest>::iterator running_lower_bound(workload::RequestId id);
  /// Inserts (or replaces) `lr` in running_, keeping the id order.
  void insert_running(engine::LiveRequest lr);
  /// Post-prefill: ship offloaded heads' prompt KV to workers; returns the
  /// completion time (== now when nothing is offloaded).
  Seconds ship_offloaded_kv(sim::Simulation& sim, workload::RequestId id);
  /// Executes a planned rebalance: apply + migrate + suspend the victim.
  void execute_rebalance(sim::Simulation& sim, const dispatch::Rebalance& rb);

  dispatch::DispatcherConfig make_dispatcher_config(const costmodel::ProfileResult& profile,
                                                    const HetisOptions& opts) const;

  hauler::Hauler* hauler_;
  HetisOptions opts_;

  dispatch::Dispatcher dispatcher_;
  // Sorted by request id: the decode loop walks it in id order (the same
  // order the historical std::map storage iterated), finish_decode_batch
  // merge-walks it against the id-ascending batch, and the batch is
  // bounded by max_batch so binary-search + shifting beats node churn for
  // single inserts and preemptions.
  std::vector<engine::LiveRequest> running_;
  // The ids the in-flight decode iteration covers (at most one decode is in
  // flight), ascending; their running_ entries may be preempted meanwhile.
  std::vector<workload::RequestId> decoding_;
  std::map<workload::RequestId, Seconds> suspended_until_;
  bool wake_scheduled_ = false;
  std::int64_t decode_iterations_ = 0;
  int rescue_count_ = 0;
  int balance_count_ = 0;
};

}  // namespace hetis::core
