// Unit tests: metrics, exec model, pipeline instance.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/exec.h"
#include "engine/instance.h"
#include "engine/metrics.h"
#include "hw/topology.h"
#include "model/llm.h"

namespace hetis::engine {
namespace {

workload::Request make_req(workload::RequestId id, Seconds arrival, std::int64_t prompt,
                           std::int64_t output) {
  workload::Request r;
  r.id = id;
  r.arrival = arrival;
  r.prompt_len = prompt;
  r.output_len = output;
  return r;
}

// --- Metrics ---

TEST(Metrics, RequestLifecycleDerivedQuantities) {
  MetricsCollector m;
  m.on_arrival(make_req(1, 10.0, 100, 11));
  m.on_first_token(1, 10.5);
  m.on_finish(1, 12.5);
  const RequestRecord& rec = m.record(1);
  EXPECT_DOUBLE_EQ(rec.ttft(), 0.5);
  EXPECT_DOUBLE_EQ(rec.tpot(), 0.2);            // 2.0s / 10 remaining tokens
  EXPECT_DOUBLE_EQ(rec.norm_latency(), 2.5 / 11.0);
  EXPECT_EQ(m.finished(), 1u);
}

TEST(Metrics, DuplicateArrivalThrows) {
  MetricsCollector m;
  m.on_arrival(make_req(1, 0, 1, 1));
  EXPECT_THROW(m.on_arrival(make_req(1, 0, 1, 1)), std::logic_error);
}

TEST(Metrics, UnknownRequestThrows) {
  MetricsCollector m;
  EXPECT_THROW(m.on_first_token(9, 1.0), std::out_of_range);
  EXPECT_THROW(m.on_finish(9, 1.0), std::out_of_range);
  EXPECT_THROW(m.on_preemption(9, 1.0), std::out_of_range);
}

TEST(Metrics, PreemptionKeepsOriginalFirstToken) {
  MetricsCollector m;
  m.on_arrival(make_req(1, 0.0, 10, 5));
  m.on_first_token(1, 1.0);
  m.on_preemption(1, 2.0);
  m.on_first_token(1, 3.0);  // re-prefill after preemption
  EXPECT_DOUBLE_EQ(m.record(1).ttft(), 1.0);
  EXPECT_EQ(m.total_preemptions(), 1);
}

TEST(Metrics, SummariesSkipUnfinished) {
  MetricsCollector m;
  m.on_arrival(make_req(1, 0.0, 10, 10));
  m.on_arrival(make_req(2, 0.0, 10, 10));
  m.on_first_token(1, 0.1);
  m.on_finish(1, 1.0);
  EXPECT_EQ(m.finished(), 1u);
  EXPECT_EQ(m.norm_latency().count(), 1u);
  EXPECT_EQ(m.ttft().count(), 1u);  // only recorded first tokens
}

TEST(Metrics, ModuleSamples) {
  MetricsCollector m;
  m.add_decode_module_sample(1e-3, 2e-3);
  m.add_decode_module_sample(3e-3, 4e-3);
  EXPECT_DOUBLE_EQ(m.mlp_module_time().mean(), 2e-3);
  EXPECT_DOUBLE_EQ(m.attn_module_time().max(), 4e-3);
}

// --- Run-event sinks ---

// Appends one tag per event to a log shared by every sink, so the test can
// read both the per-sink event order and the fan-out order across sinks.
struct LoggingSink : RunObserver {
  LoggingSink(std::string tag, std::vector<std::string>* log) : tag(std::move(tag)), log(log) {}
  std::string tag;
  std::vector<std::string>* log;
  void note(const char* ev, workload::RequestId id) {
    log->push_back(tag + ":" + ev + ":" + std::to_string(id));
  }
  void on_arrival(const workload::Request& r) override { note("arrive", r.id); }
  void on_prefill_done(workload::RequestId id, Seconds) override { note("prefill", id); }
  void on_reprefill_done(workload::RequestId id, Seconds) override { note("reprefill", id); }
  void on_preempt(workload::RequestId id, Seconds) override { note("preempt", id); }
  void on_finish(workload::RequestId id, Seconds) override { note("finish", id); }
};

TEST(Metrics, SinksSeeEventsInEmissionAndAttachOrder) {
  // Every lifecycle event reaches every sink before the collector call
  // returns, in emission order, fanned out in attach order; a re-prefill
  // after a preemption signals on_reprefill_done, never a second
  // on_prefill_done.
  MetricsCollector m;
  std::vector<std::string> log;
  LoggingSink a("a", &log), b("b", &log);
  m.attach(&a);
  m.attach(&b);
  m.on_arrival(make_req(1, 0.0, 10, 5));
  m.on_first_token(1, 1.0);
  EXPECT_EQ(log.size(), 4u);  // streamed on the spot, nothing deferred
  m.on_preemption(1, 2.0);
  m.on_first_token(1, 3.0);
  m.on_finish(1, 4.0);
  EXPECT_EQ(log, (std::vector<std::string>{"a:arrive:1", "b:arrive:1", "a:prefill:1",
                                           "b:prefill:1", "a:preempt:1", "b:preempt:1",
                                           "a:reprefill:1", "b:reprefill:1", "a:finish:1",
                                           "b:finish:1"}));
  EXPECT_DOUBLE_EQ(m.record(1).ttft(), 1.0);  // original prefill kept
  m.detach_all();
}

// --- ExecModel ---

class ExecFixture : public ::testing::Test {
 protected:
  ExecFixture()
      : cluster_(hw::Cluster::paper_cluster()), exec_(cluster_, model::llama_13b()) {
    // Two-stage instance: A100 TP2 (30L) -> 3090 TP2 (10L).
    parallel::StageConfig s0;
    s0.devices = {0, 1};
    s0.layers = 30;
    parallel::StageConfig s1;
    s1.devices = {4, 5};
    s1.layers = 10;
    inst_.stages = {s0, s1};
  }
  hw::Cluster cluster_;
  ExecModel exec_;
  parallel::InstanceConfig inst_;
};

TEST_F(ExecFixture, StageDenseScalesWithLayers) {
  parallel::StageConfig s = inst_.stages[0];
  Seconds t30 = exec_.stage_dense_time(s, 64);
  s.layers = 15;
  Seconds t15 = exec_.stage_dense_time(s, 64);
  EXPECT_NEAR(t30 / t15, 2.0, 1e-9);
}

TEST_F(ExecFixture, IterationLatencyIsSumOfStages) {
  IterationTime it = exec_.decode_iteration_time(inst_, 16, 16 * 500);
  ASSERT_EQ(it.stages.size(), 2u);
  EXPECT_NEAR(it.latency(), it.stages[0].total() + it.stages[1].total(), 1e-12);
  EXPECT_DOUBLE_EQ(it.interval(), std::max(it.stages[0].total(), it.stages[1].total()));
}

TEST_F(ExecFixture, ModuleLatencyMetricMatchesPaperDefinition) {
  // §7.3: max per-stage module time x number of stages.
  IterationTime it = exec_.decode_iteration_time(inst_, 16, 16 * 500);
  double worst_dense = std::max(it.stages[0].dense, it.stages[1].dense);
  EXPECT_DOUBLE_EQ(it.mlp_module_latency(), worst_dense * 2);
}

TEST_F(ExecFixture, PrefillCostsMoreThanDecode) {
  std::vector<std::int64_t> lens(4, 512);
  Seconds prefill = exec_.prefill_iteration_time(inst_, lens).latency();
  Seconds decode = exec_.decode_iteration_time(inst_, 4, 4 * 512).latency();
  EXPECT_GT(prefill, 5 * decode);
}

TEST_F(ExecFixture, InterstageCommPositiveAcrossHosts) {
  Seconds t = exec_.interstage_comm(inst_.stages[0], inst_.stages[1], 64);
  EXPECT_GT(t, 20e-6);  // at least the LAN latency
}

TEST_F(ExecFixture, AttentionStageTimes) {
  std::vector<std::int64_t> ctxs(8, 1000);
  Seconds decode = exec_.stage_attention_decode(inst_.stages[0], 8, 8 * 1000, 40);
  EXPECT_GT(decode, 0);
  Seconds prefill = exec_.stage_attention_prefill(inst_.stages[0], ctxs, 40);
  EXPECT_GT(prefill, decode);  // quadratic beats linear at length 1000
}

TEST(ExecHelpers, KvBudgetSubtractsParamsAndReserve) {
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);
  Bytes b0 = kv_budget(gpu, 0);
  Bytes b10 = kv_budget(gpu, 10 * GiB);
  EXPECT_EQ(b0 - b10, 10 * GiB);
  EXPECT_LT(b0, gpu.memory);
  // A device fully packed with params has no KV budget (never negative).
  EXPECT_EQ(kv_budget(gpu, gpu.memory), 0);
}

TEST(ExecHelpers, StageParamBytes) {
  const auto& m = model::llama_13b();
  parallel::StageConfig s;
  s.devices = {0, 1};
  s.layers = 20;
  Bytes mid = stage_param_bytes_per_device(m, s, false, false);
  EXPECT_EQ(mid, m.layer_param_bytes() * 20 / 2);
  Bytes first = stage_param_bytes_per_device(m, s, true, false);
  EXPECT_GT(first, mid);  // embedding share
}

// --- PipelineInstance ---

class InstanceFixture : public ::testing::Test {
 protected:
  InstanceFixture()
      : cluster_(hw::Cluster::paper_cluster()), exec_(cluster_, model::llama_13b()) {
    parallel::StageConfig s0;
    s0.devices = {0, 1, 2, 3};
    s0.layers = 40;
    cfg_.stages = {s0};
  }
  hw::Cluster cluster_;
  ExecModel exec_;
  parallel::InstanceConfig cfg_;
  MetricsCollector metrics_;
};

TEST_F(InstanceFixture, SingleRequestLifecycle) {
  PipelineInstance inst(exec_, cfg_, metrics_, InstanceOptions{});
  sim::Simulation sim;
  workload::Request r = make_req(0, 0.0, 128, 8);
  metrics_.on_arrival(r);
  inst.submit(sim, r);
  sim.run_until(60.0);
  EXPECT_EQ(metrics_.finished(), 1u);
  EXPECT_TRUE(inst.idle());
  const RequestRecord& rec = metrics_.record(0);
  EXPECT_GT(rec.ttft(), 0);
  EXPECT_GT(rec.finish, rec.first_token);
  // All memory released.
  EXPECT_EQ(inst.kv_used(), 0);
}

TEST_F(InstanceFixture, ManyRequestsAllFinish) {
  PipelineInstance inst(exec_, cfg_, metrics_, InstanceOptions{});
  sim::Simulation sim;
  for (int i = 0; i < 20; ++i) {
    workload::Request r = make_req(i, 0.05 * i, 100 + 10 * i, 5 + i);
    metrics_.on_arrival(r);
    sim.schedule_at(r.arrival, [&inst, &sim, r] { inst.submit(sim, r); });
  }
  sim.run_until(300.0);
  EXPECT_EQ(metrics_.finished(), 20u);
  EXPECT_EQ(inst.kv_used(), 0);
}

TEST_F(InstanceFixture, SingleTokenOutputFinishesAtPrefill) {
  PipelineInstance inst(exec_, cfg_, metrics_, InstanceOptions{});
  sim::Simulation sim;
  workload::Request r = make_req(0, 0.0, 64, 1);
  metrics_.on_arrival(r);
  inst.submit(sim, r);
  sim.run_until(30.0);
  const RequestRecord& rec = metrics_.record(0);
  EXPECT_EQ(metrics_.finished(), 1u);
  EXPECT_DOUBLE_EQ(rec.first_token, rec.finish);
}

TEST_F(InstanceFixture, PreemptionUnderTinyMemory) {
  // Stage on a single P100 (12 GB) with a full model copy: tiny KV space
  // forces LIFO preemption under concurrent long generations.
  parallel::InstanceConfig small;
  parallel::StageConfig s;
  s.devices = {8};  // one P100
  s.layers = 40;
  // Llama-13B won't fit on a P100; use a fake tighter config through
  // extra_reserved on an A100 instead.
  s.devices = {0};
  // The full 13B copy (~26 GB) + reserve (~6 GB) + this leaves ~3 GB of KV.
  s.extra_reserved = 47 * GiB;
  small.stages = {s};
  PipelineInstance inst(exec_, small, metrics_, InstanceOptions{});
  sim::Simulation sim;
  for (int i = 0; i < 6; ++i) {
    workload::Request r = make_req(i, 0.0, 900, 600);
    metrics_.on_arrival(r);
    inst.submit(sim, r);
  }
  sim.run_until(2000.0);
  EXPECT_EQ(metrics_.finished(), 6u);  // everything eventually completes
  EXPECT_GT(metrics_.total_preemptions(), 0);
}

TEST_F(InstanceFixture, UsableCapacityBoundedByTightestStage) {
  // Two stages with very different KV budgets: usable capacity must be
  // bound by the tighter stage's token capacity.
  parallel::InstanceConfig two;
  parallel::StageConfig s0;
  s0.devices = {0};
  s0.layers = 20;
  parallel::StageConfig s1;
  s1.devices = {8};  // P100: 12 GB
  s1.layers = 20;
  two.stages = {s0, s1};
  PipelineInstance inst(exec_, two, metrics_, InstanceOptions{});
  EXPECT_LT(inst.usable_kv_capacity(), inst.kv_capacity());
}

TEST_F(InstanceFixture, HasRoomReflectsCapacity) {
  PipelineInstance inst(exec_, cfg_, metrics_, InstanceOptions{});
  EXPECT_TRUE(inst.has_room(1000));
  EXPECT_FALSE(inst.has_room(100'000'000));
}

// --- run_trace plumbing ---

class EchoEngine : public Engine {
 public:
  std::string name() const override { return "echo"; }
  void submit(sim::Simulation& sim, const workload::Request& r) override {
    metrics_.on_arrival(r);
    metrics_.on_first_token(r.id, sim.now() + 0.1);
    metrics_.on_finish(r.id, sim.now() + 0.1 + 0.01 * static_cast<double>(r.output_len));
  }
  Bytes usable_kv_capacity() const override { return 42; }
};

TEST(RunTrace, ReportAggregation) {
  EchoEngine eng;
  std::vector<workload::Request> trace;
  for (int i = 0; i < 10; ++i) trace.push_back(make_req(i, 0.5 * i, 10, 100));
  RunReport rep = run_trace(eng, trace, RunOptions(60.0));
  EXPECT_EQ(rep.engine, "echo");
  EXPECT_EQ(rep.arrived, 10u);
  EXPECT_EQ(rep.finished, 10u);
  EXPECT_EQ(rep.usable_kv, 42);
  EXPECT_NEAR(rep.norm_latency_mean, 1.1 / 100.0, 1e-9);
  EXPECT_GT(rep.throughput, 0);
}

}  // namespace
}  // namespace hetis::engine
