// Micro-benchmarks of the hot-path substrates: the exact one-request
// dispatch solve (run per admission, re-dispatch and rescue), the greedy
// waterfill, the event queue, the paged allocator, kernel-model
// evaluation, the report's percentile, and one plan search per placement
// tier (what every Hetis replan runs).  These justify solving Eq. 7 exactly on the serving path
// (§6 "Optimization problem solving").
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "harness.h"

#include "common/stats.h"
#include "costmodel/kernel_model.h"
#include "harness/presets.h"
#include "hw/gpu.h"
#include "kvcache/allocator.h"
#include "lp/minmax.h"
#include "model/llm.h"
#include "planner/planner.h"
#include "sim/event_queue.h"

namespace {

using namespace hetis;

lp::MinMaxProblem dispatch_problem(std::size_t requests) {
  lp::MinMaxProblem p;
  // One merged primary + 4 workers, Llama-70B-like geometry.
  p.base_time = {1e-3, 2e-4, 2e-4, 2e-4, 2e-4};
  p.head_cost = {5e-9, 1.4e-7, 1.4e-7, 1.5e-7, 1.5e-7};
  p.cache_cost = {9e-13, 3e-12, 3e-12, 3e-12, 3e-12};
  p.mem_free = {4e9, 2.5e8, 2.5e8, 2.5e8, 2.5e8};
  p.group_size = 8;
  for (std::size_t r = 0; r < requests; ++r) {
    p.demand.push_back(64);
    p.cache_per_head.push_back(64.0 * 512 * (1 + r % 5));
  }
  return p;
}

/// One request over dispatch_problem's merged primary and `devices - 1`
/// workers.
lp::MinMaxProblem admission_problem(std::size_t devices) {
  lp::MinMaxProblem p;
  p.group_size = 8;
  p.demand = {64};
  p.cache_per_head = {64.0 * 512};
  for (std::size_t i = 0; i < devices; ++i) {
    const bool primary = i == 0;
    p.base_time.push_back(primary ? 1e-3 : 2e-4 + 1e-6 * static_cast<double>(i));
    p.head_cost.push_back(primary ? 5e-9 : (i % 2 == 0 ? 1.4e-7 : 1.5e-7));
    p.cache_cost.push_back(primary ? 9e-13 : 3e-12);
    p.mem_free.push_back(primary ? 4e9 : 2.5e8);
  }
  return p;
}

void BM_DispatchLp(benchmark::State& state) {
  lp::MinMaxProblem p = admission_problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    lp::MinMaxSolution s = lp::solve_one(p);
    auto rounded = lp::round_to_groups(p, s);
    benchmark::DoNotOptimize(rounded.data());
  }
  state.SetLabel("exact one-request Eq. 7 + integral rounding");
}
BENCHMARK(BM_DispatchLp)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_DispatchGreedy(benchmark::State& state) {
  lp::MinMaxProblem p = dispatch_problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto heads = lp::greedy_dispatch(p);
    benchmark::DoNotOptimize(heads.size());
  }
  state.SetLabel("waterfilling fallback");
}
BENCHMARK(BM_DispatchGreedy)->Arg(1)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1024)->Arg(16384)->Unit(benchmark::kMicrosecond);

void BM_AllocatorChurn(benchmark::State& state) {
  kvcache::BlockAllocator alloc(1ll * GiB, 16 * 1024);
  std::vector<kvcache::BlockId> held;
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) held.push_back(*alloc.allocate());
    alloc.free_blocks(held);
    held.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_AllocatorChurn)->Unit(benchmark::kMicrosecond);

void BM_KernelModelDecodeIteration(benchmark::State& state) {
  costmodel::KernelModel kernel;
  const model::ModelSpec& m = model::llama_70b();
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);
  std::vector<std::int64_t> ctxs(256, 800);
  for (auto _ : state) {
    Seconds t = kernel.dense_layer_time(gpu, m, 256, 4) +
                kernel.decode_attention_time(gpu, m, ctxs, m.heads / 4);
    benchmark::DoNotOptimize(t);
  }
  state.SetLabel("one-layer decode cost, batch 256");
}
BENCHMARK(BM_KernelModelDecodeIteration)->Unit(benchmark::kMicrosecond);

void BM_SummaryPercentile(benchmark::State& state) {
  // About one Hetis spot_churn cell's per-iteration module series: 32k
  // decode-iteration times, many of them repeats of a batch's last value.
  std::mt19937_64 rng(20251116);
  std::lognormal_distribution<double> iteration(std::log(0.02), 0.4);
  Summary s;
  double t = iteration(rng);
  for (int i = 0; i < 32768; ++i) {
    if (rng() % 3 == 0) t = iteration(rng);
    s.add(t);
  }
  for (auto _ : state) benchmark::DoNotOptimize(s.p95());
  state.SetLabel("p95 of 32k samples (copy + select)");
}
BENCHMARK(BM_SummaryPercentile)->Unit(benchmark::kMicrosecond);

void BM_PlanSearch(benchmark::State& state) {
  // One replan as HetisEngine runs it: build the planner (and its cost
  // model) and search once, for Llama-70B under the default objective.
  struct Case {
    const char* tier;
    const char* cluster;
  };
  constexpr Case kCases[] = {{"exhaustive", "paper"}, {"flow", "dc64"}, {"flow", "dc256"}};
  const Case& c = kCases[state.range(0)];
  const hw::Cluster cluster = harness::cluster_by_name(c.cluster);
  const parallel::ParallelizerOptions opts;
  for (auto _ : state) {
    auto planner = planner::make(c.tier, cluster, model::llama_70b(), opts);
    benchmark::DoNotOptimize(planner->plan(parallel::WorkloadProfile{}));
  }
  state.SetLabel(std::string(c.tier) + " on " + c.cluster);
}
BENCHMARK(BM_PlanSearch)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

HETIS_BENCH_MAIN();
