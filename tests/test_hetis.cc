// Unit + behavioural tests: the full Hetis engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "control/controller.h"
#include "control/events.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "hauler/hauler.h"
#include "hetis/hetis_engine.h"
#include "model/llm.h"
#include "planner/planner.h"
#include "telemetry/audit.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis::core {
namespace {

std::vector<workload::Request> small_trace(double rate, double horizon, std::uint64_t seed = 3,
                                           workload::Dataset ds = workload::Dataset::kShareGPT) {
  workload::TraceOptions opts;
  opts.dataset = ds;
  opts.rate = rate;
  opts.horizon = horizon;
  opts.seed = seed;
  return workload::build_trace(opts);
}

HetisOptions default_opts() {
  HetisOptions opts;
  opts.workload.decode_batch = 64;
  return opts;
}

TEST(HetisEngine, ServesTraceToCompletion) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_13b(), default_opts());
  auto trace = small_trace(3.0, 15.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GT(rep.norm_latency_mean, 0);
}

// Regression: a rescue redispatch could suspend a request that was still
// mid-prefill.  If that request then finished at prefill (output_len <= 1),
// its suspended_until_ entry was orphaned; once the decode set drained the
// pump rescheduled itself at the orphan's (past, clamped-to-now) wake time
// every event, and the simulation never terminated.  ctest's timeout is the
// failure detector should the leak ever come back.  The original trace
// (8500 requests at 2 req/s, 16 rescues) provokes none once admission
// solves Eq. 7 exactly; this denser one drives the engine through ~200.
TEST(HetisEngine, RescueOfPrefillOnlyRequestTerminates) {
  const double rate = 40.0;
  const std::size_t n = 1000;
  const Seconds horizon =
      (static_cast<double>(n) + 6.0 * std::sqrt(static_cast<double>(n))) / rate;
  workload::ScenarioSpec spec =
      workload::scenario_preset(workload::Scenario::kPoisson, rate, horizon, /*seed=*/10);
  std::vector<workload::Request> trace = workload::generate_scenario(spec);
  ASSERT_GE(trace.size(), n);
  trace.resize(n);
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisOptions opts = default_opts();
  opts.workload.mean_context = 512;
  HetisEngine eng(cluster, model::llama_13b(), opts);
  engine::RunReport rep = engine::run_trace(eng, trace, engine::RunOptions(600.0));
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GT(eng.rescue_redispatches(), 0);
}

TEST(HetisEngine, PlanAssignsP100sAsAttentionWorkers) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_70b(), default_opts());
  int workers = 0;
  for (const auto& inst : eng.plan().instances) {
    for (int dev : inst.attention_workers) {
      EXPECT_EQ(cluster.device(dev).type, hw::GpuType::kP100);
      ++workers;
    }
  }
  EXPECT_EQ(workers, 4);
}

TEST(HetisEngine, GqaModelServed) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_70b(), default_opts());
  auto trace = small_trace(0.5, 20.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
}

TEST(HetisEngine, UsableKvIsFullBudget) {
  // Head-wise placement makes every pool byte usable; Hetis's capacity
  // must dominate both baselines' (Fig. 11).
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_13b(), default_opts());
  EXPECT_GT(to_gib(eng.usable_kv_capacity()), 300.0);
}

TEST(HetisEngine, ProfileErrorDegradesGracefully) {
  // Fig. 16(b): +-20% coefficient error must not break serving.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  auto trace = small_trace(3.0, 12.0);
  HetisOptions exact = default_opts();
  HetisOptions erred = default_opts();
  erred.profile_error = 0.20;
  HetisEngine e1(cluster, model::llama_13b(), exact);
  HetisEngine e2(cluster, model::llama_13b(), erred);
  engine::RunReport r1 = engine::run_trace(e1, trace);
  engine::RunReport r2 = engine::run_trace(e2, trace);
  EXPECT_EQ(r2.finished, trace.size());
  // Paper: only up to ~6.9% latency degradation; allow a loose band.
  EXPECT_LT(r2.norm_latency_mean, r1.norm_latency_mean * 1.4);
}

TEST(HetisEngine, RedispatchAblationStillCompletes) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisOptions no_rd = default_opts();
  no_rd.enable_redispatch = false;
  HetisEngine eng(cluster, model::llama_13b(), no_rd);
  auto trace = small_trace(4.0, 12.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_EQ(eng.rescue_redispatches(), 0);
  EXPECT_EQ(eng.balance_redispatches(), 0);
}

TEST(HetisEngine, GreedyDispatchAblation) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisOptions greedy = default_opts();
  greedy.use_lp = false;
  HetisEngine eng(cluster, model::llama_13b(), greedy);
  auto trace = small_trace(4.0, 12.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
}

TEST(HetisEngine, ThetaExtremesServeCorrectly) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  auto trace = small_trace(3.0, 10.0);
  for (double theta : {0.1, 0.9}) {
    HetisOptions opts = default_opts();
    opts.theta = theta;
    HetisEngine eng(cluster, model::llama_13b(), opts);
    engine::RunReport rep = engine::run_trace(eng, trace);
    EXPECT_EQ(rep.finished, trace.size()) << "theta " << theta;
  }
}

TEST(HetisEngine, UsageSamplingProducesSeries) {
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  HetisOptions opts = default_opts();
  opts.sample_interval = 0.5;
  opts.sample_horizon = 10.0;
  opts.workload.decode_batch = 16;
  HetisEngine eng(cluster, model::llama_13b(), opts);
  auto trace = small_trace(2.0, 8.0);
  engine::run_trace(eng, trace);
  const auto& usage = eng.metrics().usage_series();
  EXPECT_GT(usage.size(), 10u);
  for (const auto& s : usage) {
    EXPECT_GE(s.cache_used_fraction, 0.0);
    EXPECT_LE(s.cache_used_fraction, 1.0);
    EXPECT_GE(s.heads, 0.0);
  }
}

TEST(HetisEngine, UsageSamplingStopsWhenTheEngineDies) {
  // A queued sampling firing must not run its body once the engine is gone
  // (a use-after-free under ASan otherwise).
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  HetisOptions opts = default_opts();
  opts.sample_interval = 0.5;
  sim::Simulation sim;
  auto eng = std::make_unique<HetisEngine>(cluster, model::llama_13b(), opts);
  eng->start(sim);
  sim.run_until(1.0);
  EXPECT_FALSE(eng->metrics().usage_series().empty());
  eng.reset();
  EXPECT_EQ(sim.run_until(10.0), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(HetisEngine, FixedPlanConstructor) {
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  // A100 primary, both 3090s as attention workers.
  parallel::ParallelPlan plan;
  parallel::InstanceConfig inst;
  parallel::StageConfig s;
  s.devices = {0};
  s.layers = model::llama_13b().layers;
  inst.stages = {s};
  inst.attention_workers = {1, 2};
  plan.instances.push_back(inst);
  HetisOptions opts = default_opts();
  opts.plan = plan;
  HetisEngine eng(cluster, model::llama_13b(), opts);
  auto trace = small_trace(1.0, 10.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
}

TEST(HetisEngine, MemoryPressureTriggersRescueOrPreemption) {
  // Tiny cluster + long-context workload: the §5.3.2 path must engage and
  // the system must still drain.
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  HetisOptions opts = default_opts();
  opts.workload.decode_batch = 16;
  HetisEngine eng(cluster, model::llama_13b(), opts);
  auto trace = small_trace(1.2, 25.0, 5, workload::Dataset::kLongBench);
  engine::RunReport rep = engine::run_trace(eng, trace, engine::RunOptions(2400.0));
  EXPECT_EQ(rep.finished, trace.size());
}

/// A replan target: every active device but the highest-numbered, so the
/// engine searches a subcluster instead of reusing its construction plan.
std::vector<int> all_but_last(const HetisEngine& eng) {
  std::vector<int> devices = eng.active_devices();
  devices.pop_back();
  return devices;
}

// The §5.3 re-dispatch counters are cumulative: a reconfigure retires the
// instances that counted the run so far, and their counts must still show.
TEST(HetisEngine, RedispatchCountsSurviveReconfigure) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisOptions opts = default_opts();
  opts.theta = 0.05;  // a low trigger makes §5.3 rebalances frequent
  HetisEngine eng(cluster, model::llama_13b(), opts);
  sim::Simulation sim;
  eng.start(sim);
  const auto trace = small_trace(3.0, 20.0);
  for (const auto& r : trace) {
    sim.schedule_at(r.arrival, [&eng, &sim, r] { eng.submit(sim, r); });
  }
  sim.run_until(10.0);
  const int rescues = eng.rescue_redispatches();
  const int rebalances = eng.balance_redispatches();
  ASSERT_GT(rebalances, 0);

  eng.reconfigure(sim, all_but_last(eng));
  EXPECT_GE(eng.rescue_redispatches(), rescues);
  EXPECT_GE(eng.balance_redispatches(), rebalances);
  sim.run_until(1e6);
  EXPECT_GE(eng.rescue_redispatches(), rescues);
  EXPECT_GE(eng.balance_redispatches(), rebalances);
}

// A shrinking re-deploy whose new instance cannot host every carried
// request: the ones it rejects restart from scratch, so the Hauler must
// carry (and count) only the transfers of the requests it adopted.  A
// transfer booked for a rejected request would hold its channel and delay
// every later migration on it.
TEST(HetisEngine, ReconfigureBooksTransfersOnlyForAdoptedRequests) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_13b(), default_opts());
  sim::Simulation sim;
  eng.start(sim);
  const auto trace = small_trace(8.0, 40.0, 3, workload::Dataset::kLongBench);
  for (const auto& r : trace) {
    sim.schedule_at(r.arrival, [&eng, &sim, r] { eng.submit(sim, r); });
  }
  sim.run_until(30.0);
  const engine::ReconfigStats before = eng.reconfig_stats();
  const std::int64_t transfers = eng.migrations();
  const Bytes bytes = eng.migrated_bytes();

  eng.reconfigure(sim, {0});
  const engine::ReconfigStats& after = eng.reconfig_stats();
  // The shrink really rejected some carried requests and adopted others.
  EXPECT_GT(after.restarted_requests, before.restarted_requests);
  EXPECT_GT(after.migrated_requests, before.migrated_requests);
  EXPECT_LE(eng.migrations() - transfers, after.migrated_requests - before.migrated_requests);
  EXPECT_LE(eng.migrated_bytes() - bytes, after.migrated_kv_bytes - before.migrated_kv_bytes);
  sim.run_until(1e6);
  EXPECT_EQ(eng.metrics().finished(), trace.size());
}

TEST(HetisEngine, DeterministicAcrossRuns) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  auto trace = small_trace(3.0, 10.0);
  HetisEngine e1(cluster, model::llama_13b(), default_opts());
  HetisEngine e2(cluster, model::llama_13b(), default_opts());
  engine::RunReport r1 = engine::run_trace(e1, trace);
  engine::RunReport r2 = engine::run_trace(e2, trace);
  EXPECT_DOUBLE_EQ(r1.norm_latency_mean, r2.norm_latency_mean);
  EXPECT_DOUBLE_EQ(r1.ttft_p95, r2.ttft_p95);
}

TEST(HetisEngine, ProfilerAccuraciesSurface) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HetisEngine eng(cluster, model::llama_13b(), default_opts());
  for (const auto& [dev, prof] : eng.profile().devices) {
    EXPECT_GT(prof.attn_accuracy, 0.8) << "device " << dev;
  }
}

/// Per-request finish counts and the last decode token count each request
/// reported; `on_decoded` fires once, on `watch`'s first decode token.
struct LifecycleLog : engine::RunObserver {
  std::map<workload::RequestId, int> finishes;
  std::map<workload::RequestId, std::int64_t> last_generated;
  workload::RequestId watch = -1;
  std::function<void()> on_decoded;

  void on_token(workload::RequestId id, Seconds, std::int64_t generated) override {
    last_generated[id] = generated;
    if (id == watch && on_decoded) std::exchange(on_decoded, nullptr)();
  }
  void on_finish(workload::RequestId id, Seconds) override { ++finishes[id]; }
};

// The decode-iteration bookkeeping is one merge walk of the in-flight batch
// against the running set.  While an iteration is in flight, one of its
// requests is preempted and a request with a lower id than every running
// one is adopted: the walk must skip the first and carry the second past
// the iteration untouched, and every request still finishes exactly once
// with its full output.
TEST(HetisInstance, BatchChangesWhileADecodeIsInFlight) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec m = model::llama_13b();
  const HetisOptions opts = default_opts();
  HetisEngine planned(cluster, m, opts);  // supplies the plan and profile
  engine::ExecModel exec(cluster, m);
  engine::MetricsCollector metrics;
  hauler::Hauler hauler(cluster);
  HetisInstance inst(exec, planned.plan().instances.front(), planned.profile(), metrics, hauler,
                     opts);
  LifecycleLog log;
  metrics.attach(&log);
  sim::Simulation sim;

  std::vector<workload::Request> reqs;
  for (workload::RequestId id = 10; id < 18; ++id) {
    workload::Request r;
    r.id = id;
    r.prompt_len = 200 + 10 * id;
    r.output_len = 30 + id;
    reqs.push_back(r);
  }
  workload::Request adoptee;
  adoptee.id = 3;
  adoptee.prompt_len = 150;
  adoptee.output_len = 25;
  const workload::RequestId victim = 13;

  bool changed = false;
  log.watch = victim;
  log.on_decoded = [&] {
    // Still inside finish_decode: the next iteration is issued when it
    // returns, so act from a zero-delay event, with that iteration in flight.
    sim.schedule_at(sim.now(), [&] {
      ASSERT_TRUE(inst.dispatcher().contains(victim));
      inst.preempt(sim, victim);
      EXPECT_FALSE(inst.dispatcher().contains(victim));
      engine::LiveRequest lr;
      lr.req = adoptee;
      lr.prefilled = true;
      lr.generated = 5;
      metrics.on_arrival(adoptee);
      ASSERT_TRUE(inst.adopt(sim, lr, inst.primary_device(), 0).has_value());
      changed = true;
    });
  };
  for (const auto& r : reqs) {
    metrics.on_arrival(r);
    inst.submit(sim, r);
  }
  sim.run_until(1e6);

  ASSERT_TRUE(changed);
  reqs.push_back(adoptee);
  EXPECT_EQ(metrics.finished(), reqs.size());
  for (const auto& r : reqs) {
    EXPECT_EQ(log.finishes[r.id], 1) << "request " << r.id;
    EXPECT_EQ(log.last_generated[r.id], r.output_len) << "request " << r.id;
  }
  EXPECT_EQ(inst.dispatcher().size(), 0u);
}

// ---------------------------------------------------------------------------
// Plan table: a replan that repeats an earlier search must return exactly
// what a fresh search returns, diagnostics included.
// ---------------------------------------------------------------------------

struct Search {
  parallel::ParallelPlan plan;
  parallel::SearchDiagnostics diag;
};

/// A fresh search over `devices` of `cluster` under `search`, remapped onto
/// `cluster`'s ids -- what HetisEngine::compute_plan runs on a table miss.
Search fresh_search(const hw::Cluster& cluster, const model::ModelSpec& m,
                    const HetisOptions& opts, const parallel::ParallelizerOptions& search,
                    const std::vector<int>& devices) {
  std::vector<int> original_ids;
  hw::Cluster sub = cluster.subcluster(devices, &original_ids);
  auto planner = planner::make(search.planner, sub, m, search);
  Search out{planner->plan(opts.workload), planner->diagnostics()};
  parallel::remap_device_ids(out.plan, original_ids);
  return out;
}

/// The engine's current plan and diagnostics equal `want` (host wall time
/// aside).
void expect_serves(const HetisEngine& eng, const Search& want) {
  EXPECT_TRUE(eng.plan() == want.plan);
  const parallel::SearchDiagnostics& got = *eng.last_search_diagnostics();
  EXPECT_EQ(got.planner, want.diag.planner);
  EXPECT_EQ(got.objective, want.diag.objective);
  EXPECT_EQ(got.configurations_evaluated, want.diag.configurations_evaluated);
  EXPECT_EQ(got.instances_considered, want.diag.instances_considered);
  EXPECT_EQ(got.pruned_devices, want.diag.pruned_devices);
  EXPECT_EQ(got.best_cost, want.diag.best_cost);
  EXPECT_EQ(got.lp_solves, want.diag.lp_solves);
  EXPECT_EQ(got.relaxation_gap, want.diag.relaxation_gap);
  EXPECT_EQ(got.fallback_reason, want.diag.fallback_reason);
}

/// Replays every controlled replan against a fresh search over the device
/// list the engine searched, reconstructed from the audit record.
class FreshSearchCheck : public engine::RunObserver {
 public:
  FreshSearchCheck(const hw::Cluster& cluster, const model::ModelSpec& m, const HetisOptions& opts,
                   const HetisEngine& eng)
      : cluster_(cluster), model_(m), opts_(opts), eng_(eng) {}

  void on_decision(const telemetry::AuditRecord& rec) override {
    std::vector<int> searched;
    if (rec.action == "redeploy") {
      searched = rec.devices_after;
    } else if (rec.action == "replan_in_place") {
      searched = rec.devices_before;
    } else {  // "evacuate": on_preempt_notice replans only off a serving device
      searched = rec.devices_before;
      auto it = std::find(searched.begin(), searched.end(), rec.device);
      if (it == searched.end() || searched.size() <= 1) return;
      searched.erase(it);
    }
    parallel::ParallelizerOptions search = opts_.search;
    search.objective = eng_.plan_objective();
    SCOPED_TRACE(rec.trigger + " at t=" + std::to_string(rec.time));
    expect_serves(eng_, fresh_search(cluster_, model_, opts_, search, searched));
    repeats += !searched_.insert(searched).second;
    ++checked;
  }

  int checked = 0;
  int repeats = 0;  // replans whose device list an earlier one searched

 private:
  const hw::Cluster& cluster_;
  const model::ModelSpec& model_;
  const HetisOptions& opts_;
  const HetisEngine& eng_;
  std::set<std::vector<int>> searched_;
};

TEST(HetisPlanTable, ChurnReplansMatchFreshSearches) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec m = model::llama_13b();
  const HetisOptions opts = default_opts();
  HetisEngine eng(cluster, m, opts);

  control::ControlSpec cs;
  cs.policy = "static";
  cs.min_devices = 4;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, 60.0, 11);
  cs.replan_objective = "latency";
  cs.horizon = 90.0;
  control::Controller ctl(cs, cluster);
  FreshSearchCheck check(cluster, m, opts, eng);
  engine::RunOptions run(900.0);
  run.on_start = ctl.starter();
  run.observer = &check;
  const auto trace = small_trace(3.0, 60.0);
  engine::RunReport rep = engine::run_trace(eng, trace, run);

  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GE(eng.reconfig_stats().reconfigurations, 4);
  EXPECT_GE(check.checked, eng.reconfig_stats().reconfigurations);
  // Churn revisits device sets: some replans must have been table hits.
  EXPECT_GT(check.repeats, 0);
}

TEST(HetisPlanTable, ConditionChangeOnTheSameDevicesSearchesAfresh) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec m = model::llama_13b();
  const HetisOptions opts = default_opts();
  HetisEngine eng(cluster, m, opts);
  sim::Simulation sim;
  const std::vector<int> devices = all_but_last(eng);

  eng.reconfigure(sim, devices);
  expect_serves(eng, fresh_search(cluster, m, opts, opts.search, devices));
  const parallel::ParallelPlan healthy = eng.plan();

  cluster.set_device_speed(devices.front(), 0.2);  // a straggling primary
  eng.reconfigure(sim, devices);
  EXPECT_FALSE(eng.plan() == healthy);
  expect_serves(eng, fresh_search(cluster, m, opts, opts.search, devices));

  cluster.set_device_speed(devices.front(), 1.0);  // recovered: a new epoch again
  eng.reconfigure(sim, devices);
  EXPECT_TRUE(eng.plan() == healthy);
  expect_serves(eng, fresh_search(cluster, m, opts, opts.search, devices));
}

TEST(HetisPlanTable, ObjectiveSwitchOnTheSameDevicesSearchesAfresh) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec m = model::llama_13b();
  const HetisOptions opts = default_opts();
  HetisEngine eng(cluster, m, opts);
  sim::Simulation sim;
  const std::vector<int> devices = all_but_last(eng);
  parallel::ParallelizerOptions search = opts.search;

  for (const char* objective : {"throughput", "latency", "throughput"}) {
    SCOPED_TRACE(objective);
    search.objective.name = objective;
    eng.set_plan_objective(search.objective);
    eng.reconfigure(sim, devices);
    expect_serves(eng, fresh_search(cluster, m, opts, search, devices));
  }
}

TEST(HetisPlanTable, PlannerSwitchOnTheSameDevicesSearchesAfresh) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec m = model::llama_13b();
  const HetisOptions opts = default_opts();
  HetisEngine eng(cluster, m, opts);
  sim::Simulation sim;
  const std::vector<int> devices = all_but_last(eng);
  parallel::ParallelizerOptions search = opts.search;

  for (const char* tier : {"exhaustive", "flow", "exhaustive"}) {
    SCOPED_TRACE(tier);
    search.planner = tier;
    eng.set_planner(tier);
    eng.reconfigure(sim, devices);
    expect_serves(eng, fresh_search(cluster, m, opts, search, devices));
  }
}

}  // namespace
}  // namespace hetis::core
