// Unit tests: HexGen and Splitwise baselines.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "baselines/hexgen.h"
#include "baselines/restart.h"
#include "baselines/splitwise.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "model/llm.h"
#include "workload/trace.h"

namespace hetis::model {

// Parameterized suites print their `const ModelSpec*` param by model name,
// not by address, so test names are the same in every build.
void PrintTo(const ModelSpec* m, std::ostream* os) { *os << m->name; }

}  // namespace hetis::model

namespace hetis::baselines {
namespace {

std::vector<workload::Request> small_trace(double rate, double horizon,
                                           workload::Dataset ds = workload::Dataset::kShareGPT) {
  workload::TraceOptions opts;
  opts.dataset = ds;
  opts.rate = rate;
  opts.horizon = horizon;
  opts.seed = 11;
  return workload::build_trace(opts);
}

// --- HexGen plan ---

class HexgenPlanModels : public ::testing::TestWithParam<const model::ModelSpec*> {};

TEST_P(HexgenPlanModels, StagesAreHomogeneousPerHostAndCoverModel) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  parallel::ParallelPlan plan = hexgen_plan(cluster, *GetParam());
  ASSERT_EQ(plan.instances.size(), 1u);
  const auto& inst = plan.instances[0];
  // Paper setup: four stages (A100x4, 3090x2, 3090x2, P100x4).
  EXPECT_EQ(inst.stages.size(), 4u);
  EXPECT_EQ(inst.total_layers(), GetParam()->layers);
  for (const auto& s : inst.stages) {
    for (int dev : s.devices) {
      EXPECT_EQ(cluster.device(dev).type, cluster.device(s.devices.front()).type);
      EXPECT_EQ(cluster.device(dev).host, cluster.device(s.devices.front()).host);
    }
    EXPECT_GT(s.layers, 0);
  }
  EXPECT_TRUE(inst.attention_workers.empty());
}

TEST_P(HexgenPlanModels, AsymmetricSplitFavoursFastStages) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  parallel::ParallelPlan plan = hexgen_plan(cluster, *GetParam());
  const auto& stages = plan.instances[0].stages;
  // First stage (A100s) gets the most layers; last (P100s) the fewest.
  EXPECT_GT(stages.front().layers, stages.back().layers);
}

INSTANTIATE_TEST_SUITE_P(Models, HexgenPlanModels,
                         ::testing::Values(&model::llama_13b(), &model::opt_30b(),
                                           &model::llama_70b()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

TEST(HexgenPlan, ParamShardsFitDeviceMemory) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  for (const auto* m : {&model::llama_13b(), &model::opt_30b(), &model::llama_70b()}) {
    parallel::ParallelPlan plan = hexgen_plan(cluster, *m);
    const auto& stages = plan.instances[0].stages;
    for (std::size_t k = 0; k < stages.size(); ++k) {
      Bytes shard = engine::stage_param_bytes_per_device(*m, stages[k], k == 0,
                                                         k + 1 == stages.size());
      for (int dev : stages[k].devices) {
        EXPECT_LT(shard, cluster.device(dev).spec().memory)
            << m->name << " stage " << k << " dev " << dev;
      }
    }
  }
}

TEST(HexgenEngine, ServesTraceToCompletion) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HexgenEngine eng(cluster, model::llama_13b());
  auto trace = small_trace(2.0, 15.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GT(rep.norm_latency_mean, 0);
  EXPECT_GT(rep.tpot_p95, 0);
}

TEST(HexgenEngine, UsableKvBelowRawCapacity) {
  // The parameter-split memory inefficiency (Fig. 1b): effective cache is
  // bounded by the tightest stage.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  HexgenEngine eng(cluster, model::llama_70b());
  Bytes usable = eng.usable_kv_capacity();
  EXPECT_GT(usable, 0);
  EXPECT_LT(usable, cluster.total_memory());
}

// --- Splitwise plan ---

TEST(SplitwisePlan, PrefillPoolIsHighestEndFullModel) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwisePlan plan = splitwise_default_plan(cluster, model::llama_13b());
  ASSERT_EQ(plan.prefill.stages.size(), 1u);
  const auto& s = plan.prefill.stages[0];
  EXPECT_EQ(s.layers, model::llama_13b().layers);
  for (int dev : s.devices) {
    EXPECT_EQ(cluster.device(dev).type, hw::GpuType::kA100_80G);
  }
}

TEST(SplitwisePlan, TwoDecodePipelinesForSmallModels) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwisePlan plan = splitwise_default_plan(cluster, model::llama_13b());
  // Paper: two [3090-TP2 -> P100-TP2] pipelines.
  EXPECT_EQ(plan.decode.size(), 2u);
  for (const auto& d : plan.decode) {
    EXPECT_EQ(d.total_layers(), model::llama_13b().layers);
    EXPECT_EQ(d.stages.size(), 2u);
  }
}

TEST(SplitwisePlan, DecodeShardsFitMemory) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  for (const auto* m : {&model::llama_13b(), &model::opt_30b(), &model::llama_70b()}) {
    SplitwisePlan plan = splitwise_default_plan(cluster, *m);
    for (const auto& d : plan.decode) {
      EXPECT_EQ(d.total_layers(), m->layers) << m->name;
      for (std::size_t k = 0; k < d.stages.size(); ++k) {
        Bytes shard = engine::stage_param_bytes_per_device(*m, d.stages[k], k == 0,
                                                           k + 1 == d.stages.size()) +
                      d.stages[k].extra_reserved;
        for (int dev : d.stages[k].devices) {
          EXPECT_LE(shard, cluster.device(dev).spec().memory)
              << m->name << " decode stage " << k;
        }
      }
    }
  }
}

TEST(SplitwisePlan, Llama70bBorrowsPrefillDevices) {
  // 70B cannot fit on the low-end pools alone; the plan must borrow a
  // leading decode stage from the A100s and account the duplicate copy.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwisePlan plan = splitwise_default_plan(cluster, model::llama_70b());
  ASSERT_EQ(plan.decode.size(), 1u);
  const auto& first = plan.decode[0].stages.front();
  EXPECT_EQ(cluster.device(first.devices.front()).type, hw::GpuType::kA100_80G);
  EXPECT_GT(first.extra_reserved, 0);
  EXPECT_GT(plan.prefill.stages.front().extra_reserved, 0);
}

TEST(SplitwisePlan, SingleTypeClusterSplitsPool) {
  hw::Cluster c;
  c.add_host("h0", hw::GpuType::kA100_80G, 4);
  SplitwisePlan plan = splitwise_default_plan(c, model::llama_13b());
  EXPECT_EQ(plan.prefill.stages.front().devices.size(), 2u);
  ASSERT_EQ(plan.decode.size(), 1u);
  EXPECT_EQ(plan.decode[0].stages.front().devices.size(), 2u);
}

TEST(SplitwiseEngine, ServesTraceToCompletion) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwiseEngine eng(cluster, model::llama_13b());
  auto trace = small_trace(2.0, 15.0);
  engine::RunReport rep = engine::run_trace(eng, trace);
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GT(eng.migrated_bytes(), 0);  // every request's KV moved
}

TEST(SplitwiseEngine, TtftIncludesMigration) {
  // First token is only recorded decode-side, so TTFT must exceed the pure
  // prefill compute time for every request with output > 1.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwiseEngine eng(cluster, model::llama_13b());
  auto trace = small_trace(1.0, 10.0);
  engine::run_trace(eng, trace);
  for (const auto& rec : eng.metrics().records()) {
    if (rec.output_len > 1 && rec.finished()) {
      EXPECT_GT(rec.ttft(), 0.0);
    }
  }
}

TEST(SplitwiseEngine, DuplicateParametersShrinkUsableKv) {
  // Fig. 11: Splitwise's usable cache trails a single-copy deployment.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwiseEngine sw(cluster, model::opt_30b());
  HexgenEngine hex(cluster, model::opt_30b());
  // OPT-30B: both fit, but Splitwise pays for two copies; its usable
  // KV should not exceed HexGen's by much and typically trails it.
  EXPECT_LT(sw.usable_kv_capacity(), cluster.total_memory());
  EXPECT_GT(sw.usable_kv_capacity(), 0);
  EXPECT_GT(hex.usable_kv_capacity(), 0);
}

TEST(SplitwiseEngine, LongBenchStressWithBackpressure) {
  // Long prompts make migrations heavy; the engine must remain live and
  // eventually drain.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  SplitwiseEngine eng(cluster, model::llama_13b());
  auto trace = small_trace(1.0, 10.0, workload::Dataset::kLongBench);
  engine::RunReport rep = engine::run_trace(eng, trace, engine::RunOptions(1200.0));
  EXPECT_EQ(rep.finished, trace.size());
}

// --- Checkpoint-restart backlog ---

engine::LiveRequest drained_request(engine::MetricsCollector& metrics, workload::RequestId id,
                                    std::int64_t generated) {
  engine::LiveRequest lr;
  lr.req.id = id;
  lr.req.prompt_len = 16;
  lr.req.output_len = 8;
  lr.prefilled = generated > 0;
  lr.generated = generated;
  metrics.on_arrival(lr.req);
  return lr;
}

// The backlog is parked unordered and sorted once, by id, when the reload
// lands: drains parked out of id order and an arrival inside the window
// are each resubmitted exactly once, in arrival order.  A restart inside
// an open window supersedes the older flush and is charged only the
// extension of the pause.
TEST(CheckpointRestart, FlushResubmitsTheBacklogOnceInIdOrder) {
  engine::MetricsCollector metrics;
  sim::Simulation sim;
  CheckpointRestart restart;
  std::vector<workload::RequestId> first_flush;
  std::vector<workload::RequestId> second_flush;

  restart.park(sim, metrics, {drained_request(metrics, 5, 3), drained_request(metrics, 2, 0)});
  restart.begin_restart(sim, 2.0, [&](sim::Simulation&, const workload::Request& r) {
    first_flush.push_back(r.id);
  });
  EXPECT_EQ(restart.stats().restart_dead_time, 2.0);
  sim.schedule_at(1.0, [&] {
    restart.park(sim, metrics, {drained_request(metrics, 4, 1), drained_request(metrics, 1, 0)});
    restart.begin_restart(sim, 2.0, [&](sim::Simulation&, const workload::Request& r) {
      second_flush.push_back(r.id);
    });
  });
  sim.schedule_at(1.5, [&] {
    workload::Request arrival;
    arrival.id = 3;
    EXPECT_TRUE(restart.park_arrival(sim, arrival));
  });
  sim.run_until(10.0);

  EXPECT_TRUE(first_flush.empty());
  EXPECT_EQ(second_flush, (std::vector<workload::RequestId>{1, 2, 3, 4, 5}));
  // Only the two requests with progress lost it.
  EXPECT_EQ(metrics.total_preemptions(), 2);
  EXPECT_EQ(restart.stats().restarted_requests, 2);
  EXPECT_EQ(restart.stats().reconfigurations, 2);
  // Windows [0, 2) and [1, 3) overlap: 3 s of pause, not 4.
  EXPECT_DOUBLE_EQ(restart.stats().restart_dead_time, 3.0);
  // Serving has resumed: a new arrival is served, not parked.
  workload::Request late;
  late.id = 6;
  EXPECT_FALSE(restart.park_arrival(sim, late));
}

}  // namespace
}  // namespace hetis::baselines
