// Fig. 14 reproduction: dynamic cache usage and head distribution on the
// ablation cluster (one A100 primary + two 3090 Attention workers,
// Llama-13B) under time-varying arrivals rps 5 -> 0 -> 2.5 -> 0.
//
// Expected shape: the A100 consistently carries more heads; cache fills
// toward 100% at peak and drains in the silent phases; the 3090s start
// taking load *later* than the A100 (the dispatcher avoids premature
// network offload at light load).
#include <cstdio>
#include <map>

// Not harness-migrated: this figure reads the engine's usage time series
// and migration counters, so it constructs the concrete engine directly.
#include "common/cli.h"
#include "engine/engine.h"
#include "hetis/hetis_engine.h"
#include "hw/topology.h"
#include "model/llm.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig14_dynamic_usage").parse(argc, argv);
  hw::Cluster cluster = hw::Cluster::ablation_cluster();
  const model::ModelSpec& m = model::llama_13b();

  // Fixed roles per the paper's ablation: A100 primary, both 3090s as
  // Attention workers.
  parallel::ParallelPlan plan;
  parallel::InstanceConfig inst;
  parallel::StageConfig stage;
  stage.devices = {0};
  stage.layers = m.layers;
  inst.stages = {stage};
  inst.attention_workers = {1, 2};
  plan.instances.push_back(inst);

  core::HetisOptions opts;
  opts.sample_interval = 1.0;
  opts.sample_horizon = 100.0;
  opts.workload.decode_batch = 32;
  opts.plan = plan;

  core::HetisEngine engine(cluster, m, opts);

  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kShareGPT;
  topts.seed = 14;
  topts.segments = {{25.0, 5.0}, {25.0, 0.0}, {25.0, 2.5}, {25.0, 0.0}};
  auto trace = workload::build_trace(topts);

  // 200 s covers the 100 s arrival schedule plus a full drain window.
  engine::run_trace(engine, trace, engine::RunOptions(200.0));

  std::printf("=== Fig. 14: dynamic resource usage, A100 + 2x3090, Llama-13B ===\n");
  std::printf("(arrivals: 5 rps for 25s, silence, 2.5 rps for 25s, silence)\n\n");
  std::printf("%8s | %12s %12s | %12s %12s\n", "time(s)", "A100 cache%", "3090 cache%",
              "A100 heads", "3090 heads");

  // Collate samples: device 0 = A100; devices 1,2 = 3090s (averaged).
  std::map<int, std::map<int, engine::UsageSample>> by_time;  // time -> dev -> sample
  for (const auto& s : engine.metrics().usage_series()) {
    by_time[static_cast<int>(s.time + 0.5)][s.device] = s;
  }
  for (const auto& [t, devs] : by_time) {
    if (t % 5 != 0) continue;  // print every 5 seconds
    if (!devs.count(0) || !devs.count(1) || !devs.count(2)) continue;
    double cache_3090 = (devs.at(1).cache_used_fraction + devs.at(2).cache_used_fraction) / 2;
    // Per-device heads: the paper's point is that the A100 consistently
    // carries more load than EACH 3090.
    double heads_3090 = (devs.at(1).heads + devs.at(2).heads) / 2;
    std::printf("%8d | %11.1f%% %11.1f%% | %12.0f %12.0f\n", t,
                devs.at(0).cache_used_fraction * 100, cache_3090 * 100, devs.at(0).heads,
                heads_3090);
  }
  std::printf("\nfinished %zu/%zu requests; %lld migrations (%.2f GB)\n",
              engine.metrics().finished(), trace.size(),
              static_cast<long long>(engine.migrations()), to_gb(engine.migrated_bytes()));
  return 0;
}
