// Unit tests: the Parallelizer (§4.1 hierarchical search).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "model/llm.h"
#include "parallel/parallelizer.h"

namespace hetis::model {

// Parameterized suites print their `const ModelSpec*` param by model name,
// not by address, so test names are the same in every build.
void PrintTo(const ModelSpec* m, std::ostream* os) { *os << m->name; }

}  // namespace hetis::model

namespace hetis::parallel {
namespace {

WorkloadProfile default_profile() {
  WorkloadProfile p;
  p.prefill_tokens = 4096;
  p.decode_batch = 64;
  p.mean_context = 512;
  p.decode_weight = 256;
  return p;
}

void check_plan_wellformed(const ParallelPlan& plan, const hw::Cluster& cluster, int layers) {
  ASSERT_FALSE(plan.instances.empty());
  std::set<int> seen;
  for (const auto& inst : plan.instances) {
    EXPECT_EQ(inst.total_layers(), layers);
    for (const auto& s : inst.stages) {
      EXPECT_FALSE(s.devices.empty());
      EXPECT_GT(s.layers, 0);
      for (int dev : s.devices) {
        EXPECT_TRUE(seen.insert(dev).second) << "device " << dev << " used twice";
        EXPECT_LT(dev, cluster.num_devices());
      }
      // TP groups are homogeneous.
      for (int dev : s.devices) {
        EXPECT_EQ(cluster.device(dev).type, cluster.device(s.devices.front()).type);
      }
    }
    for (int dev : inst.attention_workers) {
      EXPECT_TRUE(seen.insert(dev).second) << "worker " << dev << " used twice";
    }
  }
}

TEST(Parallelizer, PaperClusterLlama70bRoles) {
  // The paper's §7.2 deployment: A100 + 3090 primaries, P100s dedicated to
  // Attention-worker roles.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, model::llama_70b());
  ParallelPlan plan = par.plan(default_profile());
  check_plan_wellformed(plan, cluster, 80);
  int p100_workers = 0, p100_primary = 0;
  for (const auto& inst : plan.instances) {
    for (int dev : inst.attention_workers) {
      if (cluster.device(dev).type == hw::GpuType::kP100) ++p100_workers;
    }
    for (const auto& s : inst.stages) {
      for (int dev : s.devices) {
        if (cluster.device(dev).type == hw::GpuType::kP100) ++p100_primary;
      }
    }
  }
  EXPECT_EQ(p100_workers, 4);
  EXPECT_EQ(p100_primary, 0);
}

TEST(Parallelizer, A100sAlwaysPrimary) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  for (const auto* m : {&model::llama_13b(), &model::opt_30b(), &model::llama_70b()}) {
    Parallelizer par(cluster, *m);
    ParallelPlan plan = par.plan(default_profile());
    for (const auto& inst : plan.instances) {
      for (int dev : inst.attention_workers) {
        EXPECT_NE(cluster.device(dev).type, hw::GpuType::kA100_80G) << m->name;
      }
    }
  }
}

class PlanAllModels : public ::testing::TestWithParam<const model::ModelSpec*> {};

TEST_P(PlanAllModels, WellFormedPlans) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, *GetParam());
  ParallelPlan plan = par.plan(default_profile());
  check_plan_wellformed(plan, cluster, GetParam()->layers);
}

INSTANTIATE_TEST_SUITE_P(Models, PlanAllModels,
                         ::testing::Values(&model::llama_13b(), &model::opt_30b(),
                                           &model::llama_70b(), &model::llama2_7b()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

TEST(Parallelizer, PruningDisabledKeepsAllDevices) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  ParallelizerOptions opts;
  opts.enable_pruning = false;
  Parallelizer par(cluster, model::llama_70b(), opts);
  ParallelPlan plan = par.plan(default_profile());
  for (const auto& inst : plan.instances) {
    EXPECT_TRUE(inst.attention_workers.empty());
  }
  EXPECT_EQ(par.diagnostics().pruned_devices, 0);
}

TEST(Parallelizer, DeltaZeroPrunesNothing) {
  // With Delta = 0 any removal that increases C_p at all is rejected.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  ParallelizerOptions opts;
  opts.delta = 0.0;
  Parallelizer par(cluster, model::llama_70b(), opts);
  ParallelPlan plan = par.plan(default_profile());
  EXPECT_EQ(par.diagnostics().pruned_devices, 0);
}

TEST(Parallelizer, LargeDeltaPrunesAggressively) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  ParallelizerOptions small, large;
  small.delta = 0.02;
  large.delta = 0.5;
  Parallelizer par_small(cluster, model::llama_70b(), small);
  Parallelizer par_large(cluster, model::llama_70b(), large);
  par_small.plan(default_profile());
  par_large.plan(default_profile());
  EXPECT_GE(par_large.diagnostics().pruned_devices,
            par_small.diagnostics().pruned_devices);
}

TEST(Parallelizer, PerfectScalingCostMonotoneInDevices) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, model::llama_70b());
  WorkloadProfile prof = default_profile();
  double c4 = par.perfect_scaling_cost({{hw::GpuType::kA100_80G, 4}}, prof);
  double c2 = par.perfect_scaling_cost({{hw::GpuType::kA100_80G, 2}}, prof);
  EXPECT_LT(c4, c2);
  double with_3090 = par.perfect_scaling_cost(
      {{hw::GpuType::kA100_80G, 4}, {hw::GpuType::kRTX3090, 4}}, prof);
  EXPECT_LT(with_3090, c4);
}

TEST(Parallelizer, DiagnosticsPopulated) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, model::llama_13b());
  par.plan(default_profile());
  const SearchDiagnostics& d = par.diagnostics();
  EXPECT_GT(d.configurations_evaluated, 0);
  EXPECT_GE(d.instances_considered, 1);
  EXPECT_GT(d.best_cost, 0);
  EXPECT_GT(d.wall_time, 0);
}

TEST(Parallelizer, SearchIsFast) {
  // §7.4: the paper's search takes seconds; ours should be well under one.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, model::llama_70b());
  par.plan(default_profile());
  EXPECT_LT(par.diagnostics().wall_time, 5.0);
}

TEST(Parallelizer, SyntheticLargeClusterCompletes) {
  // §7.4's scale test shape: 5 GPU types x 32 devices.
  hw::Cluster cluster = hw::Cluster::synthetic_cluster(
      {hw::GpuType::kH100_80G, hw::GpuType::kA100_80G, hw::GpuType::kV100_32G,
       hw::GpuType::kL4, hw::GpuType::kT4},
      8);  // 8 per type keeps the test quick; the bench uses 32
  Parallelizer par(cluster, model::llama_70b());
  ParallelPlan plan = par.plan(default_profile());
  check_plan_wellformed(plan, cluster, 80);
}

TEST(Parallelizer, InfeasibleKvFloorThrows) {
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  Parallelizer par(cluster, model::llama_13b());
  WorkloadProfile prof = default_profile();
  prof.min_kv_bytes = 100ll * 1024 * GiB;  // impossible
  EXPECT_THROW(par.plan(prof), std::runtime_error);
}

TEST(Parallelizer, DpDisabledSingleInstance) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  ParallelizerOptions opts;
  opts.allow_dp = false;
  Parallelizer par(cluster, model::llama_13b(), opts);
  ParallelPlan plan = par.plan(default_profile());
  EXPECT_EQ(plan.instances.size(), 1u);
}

TEST(Parallelizer, PruningAblationEquivalence) {
  // enable_pruning=false and Delta=0 must land on the SAME plan: Delta=0
  // rejects every removal, so both searches see the identical (unpruned)
  // candidate set.  Guards the ablation switch against drifting from a
  // "no device ever pruned" search.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  ParallelizerOptions no_pruning;
  no_pruning.enable_pruning = false;
  ParallelizerOptions delta_zero;
  delta_zero.delta = 0.0;
  for (const auto* m : {&model::llama_13b(), &model::llama_70b()}) {
    Parallelizer a(cluster, *m, no_pruning);
    Parallelizer b(cluster, *m, delta_zero);
    ParallelPlan pa = a.plan(default_profile());
    ParallelPlan pb = b.plan(default_profile());
    ASSERT_EQ(pa.instances.size(), pb.instances.size()) << m->name;
    for (std::size_t i = 0; i < pa.instances.size(); ++i) {
      EXPECT_EQ(pa.instances[i].attention_workers, pb.instances[i].attention_workers);
      ASSERT_EQ(pa.instances[i].stages.size(), pb.instances[i].stages.size()) << m->name;
      for (std::size_t k = 0; k < pa.instances[i].stages.size(); ++k) {
        EXPECT_EQ(pa.instances[i].stages[k].devices, pb.instances[i].stages[k].devices);
        EXPECT_EQ(pa.instances[i].stages[k].layers, pb.instances[i].stages[k].layers);
      }
    }
    EXPECT_EQ(a.diagnostics().pruned_devices, 0) << m->name;
    EXPECT_EQ(b.diagnostics().pruned_devices, 0) << m->name;
  }
}

TEST(RemapDeviceIds, RemapsThroughMapping) {
  StageConfig stage;
  stage.devices = {0, 2};
  remap_device_ids(stage, {7, 5, 3});
  EXPECT_EQ(stage.devices, (std::vector<int>{7, 3}));

  InstanceConfig cfg;
  cfg.stages.push_back(StageConfig{{1}, 4, 0});
  cfg.attention_workers = {0};
  remap_device_ids(cfg, {9, 8});
  EXPECT_EQ(cfg.stages[0].devices, (std::vector<int>{8}));
  EXPECT_EQ(cfg.attention_workers, (std::vector<int>{9}));
}

TEST(RemapDeviceIds, OutOfRangeThrowsWithContext) {
  StageConfig stage;
  stage.devices = {3};
  try {
    remap_device_ids(stage, {10, 11});  // id 3 outside [0, 2)
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("remap_device_ids"), std::string::npos);
    EXPECT_NE(msg.find("3"), std::string::npos) << "offending id spelled out";
    EXPECT_NE(msg.find("[0, 2)"), std::string::npos) << "mapping range spelled out";
  }

  // Negative ids (a corrupted plan) are rejected the same way, not used to
  // index the mapping.
  InstanceConfig cfg;
  cfg.attention_workers = {-1};
  EXPECT_THROW(remap_device_ids(cfg, {0, 1}), std::out_of_range);

  // A whole-plan remap through an empty mapping names the empty range.
  ParallelPlan plan;
  plan.instances.push_back(cfg);
  EXPECT_THROW(remap_device_ids(plan, {}), std::out_of_range);
}

TEST(RemapDeviceIds, FailedRemapLeavesEarlierStagesRewritten) {
  // Documented sharp edge: remapping is in-place, so a throw mid-plan can
  // leave a partially rewritten config.  Callers treat the plan as dead on
  // failure (the control plane replans from scratch); this test pins the
  // exception, not torn-state recovery.
  InstanceConfig cfg;
  cfg.stages.push_back(StageConfig{{0}, 4, 0});
  cfg.stages.push_back(StageConfig{{5}, 4, 0});
  EXPECT_THROW(remap_device_ids(cfg, {2}), std::out_of_range);
  EXPECT_EQ(cfg.stages[0].devices.front(), 2) << "first stage already rewritten";
}

TEST(SearchSteps, PickGroupingKeepsTheEarlierGroupingWithinTheBand) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pick_grouping({10.0, 9.995}), 0u);  // 0.05% better: a tie
  EXPECT_EQ(pick_grouping({10.0, 9.995, 9.0, inf}), 2u);
  EXPECT_EQ(pick_grouping({-10.0, -10.005}), 0u);  // maximizing scores too
  EXPECT_EQ(pick_grouping({-10.0, -10.02}), 1u);
  EXPECT_EQ(pick_grouping({inf, 3.0}), 1u);
  EXPECT_EQ(pick_grouping({inf, std::nan("")}), 2u);  // nothing finite
}

TEST(SearchSteps, PruningFollowsTheWalkOrder) {
  // Low-end types go first, and within a type the front of the share.
  const std::vector<TypeShare> share = {{hw::GpuType::kA100_80G, {0, 1}},
                                        {hw::GpuType::kP100, {2, 3, 4}}};
  EXPECT_EQ(prune_depth({2, 3}, 0), (std::vector<int>{2, 3}));
  EXPECT_EQ(prune_depth({2, 3}, 2), (std::vector<int>{2, 1}));
  EXPECT_EQ(prune_depth({2, 3}, 4), (std::vector<int>{1, 0}));
  EXPECT_EQ(demoted_devices(share, {1, 0}), (std::vector<int>{2, 3, 4, 0}));
  EXPECT_EQ(demoted_devices(share, {2, 3}), std::vector<int>{});
}

TEST(Parallelizer, PlanToStringReadable) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  Parallelizer par(cluster, model::llama_70b());
  ParallelPlan plan = par.plan(default_profile());
  std::string s = plan.to_string(cluster);
  EXPECT_NE(s.find("A100"), std::string::npos);
  EXPECT_NE(s.find("attn["), std::string::npos);
}

}  // namespace
}  // namespace hetis::parallel
