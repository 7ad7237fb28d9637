// Engine registry: construction by name, unknown-name errors, and the
// tagged EngineOptions plumbing.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/registry.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "workload/trace.h"

namespace hetis {
namespace {

std::vector<workload::Request> small_trace(double rate = 2.0, Seconds horizon = 5.0) {
  workload::TraceOptions opts;
  opts.dataset = workload::Dataset::kShareGPT;
  opts.rate = rate;
  opts.horizon = horizon;
  opts.seed = 99;
  return workload::build_trace(opts);
}

TEST(Registry, ListsAllBuiltinEngines) {
  auto names = engine::engine_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "hetis");
  EXPECT_EQ(names[1], "hexgen");
  EXPECT_EQ(names[2], "splitwise");
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  for (const auto& n : names) EXPECT_NE(engine::make(n, cluster, m), nullptr) << n;
}

TEST(Registry, ConstructsEveryEngineByName) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  const std::vector<std::pair<std::string, std::string>> expected{
      {"hetis", "Hetis"}, {"splitwise", "Splitwise"}, {"hexgen", "Hexgen"}};
  for (const auto& [key, display] : expected) {
    auto eng = engine::make(key, cluster, m);
    ASSERT_NE(eng, nullptr) << key;
    EXPECT_EQ(eng->name(), display);
    EXPECT_GT(eng->usable_kv_capacity(), 0) << key;
  }
}

TEST(Registry, NamesAreCaseInsensitive) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto eng = engine::make("Hexgen", cluster, m);
  EXPECT_EQ(eng->name(), "Hexgen");
}

TEST(Registry, UnknownNameThrowsWithKnownNames) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  try {
    engine::make("vllm", cluster, m);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unknown engine 'vllm'"), std::string::npos) << msg;
    // The error must teach the caller the valid names.
    EXPECT_NE(msg.find("hetis"), std::string::npos) << msg;
    EXPECT_NE(msg.find("splitwise"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hexgen"), std::string::npos) << msg;
  }
}

TEST(Registry, MismatchedOptionsTagThrows) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  const engine::HetisConfig hetis_cfg;
  engine::EngineOptions hetis_opts{hetis_cfg};
  EXPECT_THROW(engine::make("splitwise", cluster, m, hetis_opts), std::invalid_argument);
  EXPECT_THROW(engine::make("hexgen", cluster, m, hetis_opts), std::invalid_argument);
  // Default-tagged options work everywhere.
  EXPECT_NO_THROW(engine::make("splitwise", cluster, m, engine::EngineOptions{}));
}

TEST(Registry, HetisOptionsCarryThroughTheFactory) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  engine::HetisConfig cfg;
  cfg.workload.decode_batch = 64;
  auto eng = engine::make("hetis", cluster, m, cfg);
  auto rep = engine::run_trace(*eng, small_trace(), engine::RunOptions(600.0));
  EXPECT_EQ(rep.engine, "Hetis");
  EXPECT_EQ(rep.finished, rep.arrived);
  EXPECT_FALSE(rep.drain_timeout_hit);
}

TEST(Registry, FixedPlanViaOptionsSkipsTheSearch) {
  // Pin the Fig. 14 ablation layout (A100 primary, two 3090 attention
  // workers) through EngineOptions and serve on it.
  hw::Cluster cluster = harness::cluster_by_name("ablation");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  parallel::ParallelPlan plan;
  parallel::InstanceConfig inst;
  parallel::StageConfig stage;
  stage.devices = {0};
  stage.layers = m.layers;
  inst.stages = {stage};
  inst.attention_workers = {1, 2};
  plan.instances.push_back(inst);

  engine::HetisConfig cfg;
  cfg.plan = plan;
  auto eng = engine::make("hetis", cluster, m, cfg);
  auto rep = engine::run_trace(*eng, small_trace(1.0, 5.0), engine::RunOptions(900.0));
  EXPECT_GT(rep.finished, 0u);
}

TEST(Registry, ClusterPresetUnknownNameThrows) {
  const auto names = harness::cluster_preset_names();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* dc : {"dc64", "dc128", "dc256"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), dc), names.end()) << dc;
  }
  // The unknown-name error names every preset, sorted, so the datacenter
  // additions surface in the message a typo provokes.
  try {
    harness::cluster_by_name("nonexistent");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'nonexistent'"), std::string::npos) << msg;
    for (const std::string& name : names) {
      EXPECT_NE(msg.find("'" + name + "'"), std::string::npos) << msg;
    }
  }
  // Every advertised preset must actually build.
  for (const std::string& name : names) {
    EXPECT_GT(harness::cluster_by_name(name).num_devices(), 0) << name;
  }
  EXPECT_EQ(harness::cluster_by_name("dc64").num_devices(), 64);
  EXPECT_EQ(harness::cluster_by_name("dc128").num_devices(), 128);
  EXPECT_EQ(harness::cluster_by_name("dc256").num_devices(), 256);
}

}  // namespace
}  // namespace hetis
