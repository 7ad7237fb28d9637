// Unit tests: pluggable plan objectives and the PlanEvaluator layer
// (parallel/objective.h, parallel/evaluator.h) plus their wiring through
// the engine, the control plane and the harness.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "control/controller.h"
#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "hetis/hetis_engine.h"
#include "model/llm.h"
#include "parallel/evaluator.h"
#include "parallel/objective.h"
#include "parallel/parallelizer.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis {
namespace {

parallel::WorkloadProfile default_profile() {
  parallel::WorkloadProfile p;
  p.prefill_tokens = 4096;
  p.decode_batch = 64;
  p.mean_context = 512;
  p.decode_weight = 256;
  return p;
}

bool plans_equal(const parallel::ParallelPlan& a, const parallel::ParallelPlan& b) {
  if (a.instances.size() != b.instances.size()) return false;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const auto& ia = a.instances[i];
    const auto& ib = b.instances[i];
    if (ia.attention_workers != ib.attention_workers) return false;
    if (ia.stages.size() != ib.stages.size()) return false;
    for (std::size_t k = 0; k < ia.stages.size(); ++k) {
      if (ia.stages[k].devices != ib.stages[k].devices) return false;
      if (ia.stages[k].layers != ib.stages[k].layers) return false;
    }
  }
  return true;
}

// --- Factory ----------------------------------------------------------------

TEST(Objective, FactoryKnowsAllNames) {
  const std::vector<std::string> names = parallel::objective_names();
  for (const std::string& name : names) {
    auto obj = parallel::make_objective(name);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->name(), name);
  }
  EXPECT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Objective, UnknownNameThrowsListingKnown) {
  try {
    parallel::make_objective("oracle");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("oracle"), std::string::npos);
    EXPECT_NE(msg.find("latency"), std::string::npos);
    EXPECT_NE(msg.find("throughput"), std::string::npos);
  }
}

TEST(Objective, ThroughputScoresIterationCost) {
  parallel::PlanEstimate e;
  e.ttft = 0.5;
  e.tpot = 0.01;
  e.decode_weight = 256;
  auto obj = parallel::make_objective("throughput");
  EXPECT_DOUBLE_EQ(obj->score(e), 0.5 + 256 * 0.01);
  EXPECT_FALSE(obj->explores_depth());
}

TEST(Objective, LatencyIsSloAware) {
  parallel::PlanEstimate fast_ttft_bad_tpot;
  fast_ttft_bad_tpot.ttft = 0.2;
  fast_ttft_bad_tpot.tpot = 0.4;  // blows a 0.1s TPOT target 4x
  parallel::PlanEstimate balanced;
  balanced.ttft = 0.3;
  balanced.tpot = 0.05;

  auto plain = parallel::make_objective("latency");
  EXPECT_LT(plain->score(fast_ttft_bad_tpot), plain->score(balanced));

  engine::SloSpec slo;
  slo.tpot = 0.1;
  auto slo_aware = parallel::make_objective("latency", slo);
  // The TPOT overshoot penalty flips the ordering.
  EXPECT_GT(slo_aware->score(fast_ttft_bad_tpot), slo_aware->score(balanced));
  EXPECT_TRUE(slo_aware->explores_depth());
}

TEST(Objective, GoodputPerDevicePrefersLeanerPlans) {
  parallel::PlanEstimate wide;
  wide.throughput = 10;
  wide.device_count = 12;
  parallel::PlanEstimate lean;
  lean.throughput = 5;
  lean.device_count = 2;
  auto obj = parallel::make_objective("goodput_per_device");
  // 5/2 req per device-second beats 10/12; lower score wins.
  EXPECT_LT(obj->score(lean), obj->score(wide));
  EXPECT_LT(obj->score(lean), 0) << "maximizing objectives score negative";
}

// --- PlanEvaluator ----------------------------------------------------------

TEST(PlanEvaluator, EstimatesArePhysical) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  const parallel::ParallelizerOptions par_opts;
  parallel::Parallelizer par(cluster, model, par_opts);
  parallel::ParallelPlan plan = par.plan(default_profile());

  parallel::PlanEvaluator evaluator(cluster, model);
  parallel::PlanEstimate e = evaluator.evaluate(plan, default_profile());
  EXPECT_GT(e.ttft, 0);
  EXPECT_GT(e.tpot, 0);
  EXPECT_GT(e.throughput, 0);
  EXPECT_GT(e.kv_capacity, 0);
  EXPECT_EQ(e.instances, static_cast<int>(plan.instances.size()));
  int devices = 0;
  for (const auto& inst : plan.instances) {
    devices += static_cast<int>(inst.primary_devices().size() + inst.attention_workers.size());
  }
  EXPECT_EQ(e.device_count, devices);
  EXPECT_DOUBLE_EQ(e.decode_weight, default_profile().decode_weight);
}

TEST(PlanEvaluator, BorrowingAndOwningAgree) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  engine::ExecModel exec(cluster, model);
  parallel::PlanEvaluator borrowing(exec);
  parallel::PlanEvaluator owning(cluster, model);
  const parallel::ParallelizerOptions par_opts;
  parallel::Parallelizer par(cluster, model, par_opts);
  parallel::ParallelPlan plan = par.plan(default_profile());
  const auto& inst = plan.instances.front();
  parallel::PlanEstimate a = borrowing.evaluate(inst, default_profile());
  parallel::PlanEstimate b = owning.evaluate(inst, default_profile());
  EXPECT_DOUBLE_EQ(a.ttft, b.ttft);
  EXPECT_DOUBLE_EQ(a.tpot, b.tpot);
  EXPECT_EQ(a.kv_capacity, b.kv_capacity);
}

TEST(PlanEvaluator, ReplicateScalesAggregates) {
  parallel::PlanEstimate e;
  e.ttft = 0.5;
  e.tpot = 0.02;
  e.throughput = 3;
  e.kv_capacity = 100;
  e.device_count = 4;
  parallel::PlanEstimate r = parallel::replicate_estimate(e, 3);
  EXPECT_DOUBLE_EQ(r.ttft, 0.5);   // latencies carry over
  EXPECT_DOUBLE_EQ(r.tpot, 0.02);
  EXPECT_DOUBLE_EQ(r.throughput, 9);
  EXPECT_EQ(r.kv_capacity, 300);
  EXPECT_EQ(r.device_count, 12);
  EXPECT_EQ(r.instances, 3);
}

// --- Search under objectives ------------------------------------------------

TEST(ObjectiveSearch, DefaultEqualsExplicitThroughput) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const parallel::ParallelizerOptions par_default_opts;
  parallel::Parallelizer par_default(cluster, model::llama_13b(), par_default_opts);
  parallel::ParallelizerOptions opts;
  opts.objective.name = "throughput";
  parallel::Parallelizer par_explicit(cluster, model::llama_13b(), opts);
  EXPECT_TRUE(plans_equal(par_default.plan(default_profile()),
                          par_explicit.plan(default_profile())));
  EXPECT_EQ(par_default.diagnostics().objective, "throughput");
}

// The ROADMAP-flagged regression (fig8-style mixed cluster, Llama-13B):
// the throughput search keeps the full 12-device deployment, which beats
// the 4xA100 plan on throughput but LOSES on TTFT.  Under the latency
// objective the planner must instead keep only the A100s as primaries --
// and its estimated TTFT must be no worse than the throughput plan's.
TEST(ObjectiveSearch, LatencyPrefersA100PrimariesOnFig8Cluster) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  parallel::WorkloadProfile profile = default_profile();

  const parallel::ParallelizerOptions throughput_par_opts;
  parallel::Parallelizer throughput_par(cluster, model, throughput_par_opts);
  parallel::ParallelPlan throughput_plan = throughput_par.plan(profile);

  parallel::ParallelizerOptions lat_opts;
  lat_opts.objective.name = "latency";
  parallel::Parallelizer latency_par(cluster, model, lat_opts);
  parallel::ParallelPlan latency_plan = latency_par.plan(profile);

  // Throughput keeps non-A100 primaries (the 12-device pipeline)...
  std::set<hw::GpuType> throughput_primary_types;
  for (const auto& inst : throughput_plan.instances) {
    for (int dev : inst.primary_devices()) {
      throughput_primary_types.insert(cluster.device(dev).type);
    }
  }
  EXPECT_GT(throughput_primary_types.size(), 1u);

  // ...while the latency objective serves primaries on A100s only.
  for (const auto& inst : latency_plan.instances) {
    for (int dev : inst.primary_devices()) {
      EXPECT_EQ(cluster.device(dev).type, hw::GpuType::kA100_80G);
    }
  }

  parallel::PlanEvaluator evaluator(cluster, model);
  const double latency_ttft = evaluator.evaluate(latency_plan, profile).ttft;
  const double throughput_ttft = evaluator.evaluate(throughput_plan, profile).ttft;
  EXPECT_LE(latency_ttft, throughput_ttft);
  EXPECT_EQ(latency_par.diagnostics().objective, "latency");
}

TEST(ObjectiveSearch, DepthExplorationNeverPicksParamInfeasiblePlans) {
  // Llama-70B (140 GB FP16) cannot live on one A100; the depth-explored
  // candidate space contains exactly such configs (all layers on the last
  // surviving primary) and their latency arithmetic can look excellent.
  // Every plan a depth-exploring objective returns must still host its
  // parameter shards with KV room to spare on every stage device.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_70b();
  parallel::PlanEvaluator evaluator(cluster, model);
  for (const char* name : {"latency", "goodput_per_device"}) {
    parallel::ParallelizerOptions opts;
    opts.objective.name = name;
    parallel::Parallelizer par(cluster, model, opts);
    parallel::ParallelPlan plan = par.plan(default_profile());
    for (const auto& inst : plan.instances) {
      EXPECT_TRUE(evaluator.hosts_model(inst)) << name;
    }
    EXPECT_GT(evaluator.evaluate(plan, default_profile()).kv_capacity, 0) << name;
  }
}

TEST(ObjectiveSearch, GoodputPerDeviceShedsDevices) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  parallel::WorkloadProfile profile = default_profile();

  const parallel::ParallelizerOptions thr_opts;
  parallel::Parallelizer thr(cluster, model, thr_opts);
  parallel::ParallelizerOptions opts;
  opts.objective.name = "goodput_per_device";
  parallel::Parallelizer gpd(cluster, model, opts);

  parallel::PlanEvaluator evaluator(cluster, model);
  parallel::PlanEstimate thr_est = evaluator.evaluate(thr.plan(profile), profile);
  parallel::PlanEstimate gpd_est = evaluator.evaluate(gpd.plan(profile), profile);
  EXPECT_LT(gpd_est.device_count, thr_est.device_count);
  EXPECT_GT(gpd_est.throughput / gpd_est.device_count,
            thr_est.throughput / thr_est.device_count);
  EXPECT_LT(gpd.diagnostics().best_cost, 0) << "goodput scores are negated";
}

TEST(ObjectiveSearch, CustomObjectivePluggable) {
  // A caller-supplied objective (not in the factory) drives the same
  // search: maximize KV capacity, i.e. the plan must keep every device.
  class MaxKv final : public parallel::PlanObjective {
   public:
    std::string name() const override { return "max_kv"; }
    double score(const parallel::PlanEstimate& e) const override {
      return -static_cast<double>(e.kv_capacity);
    }
  };
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const parallel::ParallelizerOptions par_opts;
  parallel::Parallelizer par(cluster, model::llama_13b(), par_opts);
  MaxKv objective;
  parallel::ParallelPlan plan = par.plan(default_profile(), objective);
  int devices = 0;
  for (const auto& inst : plan.instances) {
    devices += static_cast<int>(inst.primary_devices().size() + inst.attention_workers.size());
  }
  EXPECT_EQ(devices, cluster.num_devices());
  EXPECT_EQ(par.diagnostics().objective, "max_kv");
}

TEST(ObjectiveSearch, ToStringSurfacesDiagnostics) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  parallel::ParallelizerOptions opts;
  opts.objective.name = "latency";
  parallel::Parallelizer par(cluster, model::llama_13b(), opts);
  parallel::ParallelPlan plan = par.plan(default_profile());
  const std::string s = plan.to_string(cluster, &par.diagnostics());
  EXPECT_NE(s.find("objective=latency"), std::string::npos);
  EXPECT_NE(s.find("evaluated="), std::string::npos);
  EXPECT_NE(s.find("best_score="), std::string::npos);
  EXPECT_NE(s.find("wall="), std::string::npos);
  // Without diagnostics the string stays the legacy layout-only form.
  EXPECT_EQ(plan.to_string(cluster).find("search{"), std::string::npos);
}

// --- Engine + control-plane wiring -----------------------------------------

TEST(ObjectiveWiring, EngineDeploysOnObjectiveChosenPlan) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  engine::HetisConfig cfg;
  cfg.workload = default_profile();
  cfg.search.objective.name = "latency";
  auto eng = engine::make("hetis", cluster, model, cfg);
  auto* hetis = dynamic_cast<core::HetisEngine*>(eng.get());
  ASSERT_NE(hetis, nullptr);
  EXPECT_EQ(hetis->plan_objective().name, "latency");
  EXPECT_EQ(hetis->search_diagnostics().objective, "latency");
  for (const auto& inst : hetis->plan().instances) {
    for (int dev : inst.primary_devices()) {
      EXPECT_EQ(cluster.device(dev).type, hw::GpuType::kA100_80G);
    }
  }
}

TEST(ObjectiveWiring, SetPlanObjectiveValidatesEagerly) {
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  const core::HetisOptions eng_opts;
  core::HetisEngine eng(cluster, model::llama_13b(), eng_opts);
  EXPECT_THROW(eng.set_plan_objective({"oracle", {}}), std::out_of_range);
  eng.set_plan_objective({"latency", {}});
  EXPECT_EQ(eng.plan_objective().name, "latency");
}

TEST(ObjectiveWiring, ReconfigureReplansUnderNewObjective) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  const core::HetisOptions eng_opts;
  core::HetisEngine eng(cluster, model, eng_opts);
  sim::Simulation sim;
  eng.start(sim);
  eng.set_plan_objective({"latency", {}});
  std::vector<int> all(static_cast<std::size_t>(cluster.num_devices()));
  for (int i = 0; i < cluster.num_devices(); ++i) all[static_cast<std::size_t>(i)] = i;
  eng.reconfigure(sim, all);
  EXPECT_EQ(eng.search_diagnostics().objective, "latency");
  for (const auto& inst : eng.plan().instances) {
    for (int dev : inst.primary_devices()) {
      EXPECT_EQ(cluster.device(dev).type, hw::GpuType::kA100_80G);
    }
  }
}

TEST(ObjectiveWiring, SloPolicyControllerReplansForLatency) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  const model::ModelSpec& model = model::llama_13b();
  const core::HetisOptions eng_opts;
  core::HetisEngine eng(cluster, model, eng_opts);

  control::ControlSpec cs;
  cs.policy = "slo";
  cs.horizon = 2.0;
  control::Controller ctl(cs, cluster);
  sim::Simulation sim;
  ctl.attach(sim, eng);
  EXPECT_EQ(ctl.replan_objective(), "latency");
  EXPECT_EQ(eng.plan_objective().name, "latency");

  // A pinned replan objective wins over the policy default.
  control::ControlSpec pinned = cs;
  pinned.replan_objective = "goodput_per_device";
  const core::HetisOptions eng2_opts;
  core::HetisEngine eng2(cluster, model, eng2_opts);
  control::Controller ctl2(pinned, cluster);
  sim::Simulation sim2;
  ctl2.attach(sim2, eng2);
  EXPECT_EQ(eng2.plan_objective().name, "goodput_per_device");

  // Unknown names fail at spec time, before any run.
  control::ControlSpec bad = cs;
  bad.replan_objective = "oracle";
  EXPECT_THROW(control::Controller(bad, cluster), std::out_of_range);
}

TEST(ObjectiveWiring, ControllerTracksDeviceSeconds) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ControlSpec cs;
  cs.policy = "static";
  cs.initial_devices = 4;
  cs.min_devices = 2;
  cs.tick = 0;  // no periodic ticks; only the attach-time shrink
  control::Controller ctl(cs, cluster);
  const core::HetisOptions eng_opts;
  core::HetisEngine eng(cluster, model::llama_13b(), eng_opts);
  sim::Simulation sim;
  ctl.attach(sim, eng);
  // Shrunk to 4 devices at t=0: 4 dev * 10 s.
  EXPECT_DOUBLE_EQ(ctl.device_seconds(10.0), 40.0);
  EXPECT_DOUBLE_EQ(ctl.device_seconds(0.0), 0.0);
}

// --- Harness sweep over objectives ------------------------------------------

harness::ExperimentSpec objective_spec() {
  harness::ExperimentSpec spec;
  spec.name = "objective_sweep";
  spec.engines = {"hetis"};
  spec.models = {"Llama-13B"};
  spec.cluster = "ablation";
  spec.horizon = 4.0;
  spec.run = engine::RunOptions(120.0);
  engine::SloSpec slo;
  slo.ttft = 2.0;
  slo.tpot = 0.2;
  spec.run.slo = slo;
  spec.workloads.push_back(harness::WorkloadPoint(workload::Dataset::kShareGPT, 1.5));
  return spec;
}

TEST(ObjectiveSweep, RowsCarryObjectiveAndCostColumns) {
  harness::ExperimentSpec spec = objective_spec();
  spec.objectives = {"throughput", "latency", "goodput_per_device"};
  const auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].objective, "throughput");
  EXPECT_EQ(rows[1].objective, "latency");
  EXPECT_EQ(rows[2].objective, "goodput_per_device");
  for (const auto& row : rows) {
    EXPECT_GT(row.device_seconds, 0) << row.objective;
    if (row.report.slo_attainment > 0) {
      EXPECT_GT(row.device_seconds_per_slo_request, 0) << row.objective;
    }
  }
  // The lean goodput plan occupies fewer device-seconds than the full
  // deployment serving the identical trace.
  EXPECT_LT(rows[2].device_seconds, rows[0].device_seconds);
}

TEST(ObjectiveSweep, DefaultObjectiveKeepsHistoricalCells) {
  harness::ExperimentSpec spec = objective_spec();
  const auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].objective, "default");
  EXPECT_GT(rows[0].device_seconds, 0);
}

TEST(ObjectiveSweep, ParallelRowsByteIdentical) {
  harness::ExperimentSpec spec = objective_spec();
  spec.objectives = {"throughput", "latency"};
  std::ostringstream serial, parallel_csv;
  harness::write_csv(serial, harness::run_sweep(spec));
  spec.jobs = 4;
  harness::write_csv(parallel_csv, harness::run_sweep(spec));
  EXPECT_EQ(serial.str(), parallel_csv.str());
}

TEST(ObjectiveSweep, CsvRoundTripsAllColumns) {
  harness::ExperimentSpec spec = objective_spec();
  spec.objectives = {"latency"};
  const auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);
  const std::string serialized = harness::to_csv_row(rows[0]);
  // The row ends with the objective and its two cost cells, the doubles in
  // a form that reads back exactly.
  std::vector<std::string> tail;
  std::istringstream cells(serialized);
  for (std::string cell; std::getline(cells, cell, ',');) tail.push_back(cell);
  ASSERT_GE(tail.size(), 3u);
  EXPECT_EQ(tail[tail.size() - 3], "latency");
  EXPECT_EQ(std::stod(tail[tail.size() - 2]), rows[0].device_seconds);
  EXPECT_EQ(std::stod(tail[tail.size() - 1]), rows[0].device_seconds_per_slo_request);

  // The header advertises exactly the columns a row serializes.
  const std::string header = harness::sweep_csv_header();
  EXPECT_NE(header.find(",objective,device_seconds,device_seconds_per_slo_request"),
            std::string::npos);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(serialized.begin(), serialized.end(), ','));
}

}  // namespace
}  // namespace hetis
