// Unit + behavioural tests: the full Hetis engine.
#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.h"
#include "hetis/hetis_engine.h"
#include "model/llm.h"
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
// every event, and the simulation never terminated.  This trace drives the
// engine through 16 rescues and wedged it before the fix -- ctest's timeout
// is the failure detector should the leak ever come back.
TEST(HetisEngine, RescueOfPrefillOnlyRequestTerminates) {
  const double rate = 2.0;
  const std::size_t n = 8500;
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
  HetisEngine eng(cluster, model::llama_13b(), default_opts(), plan);
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

}  // namespace
}  // namespace hetis::core
