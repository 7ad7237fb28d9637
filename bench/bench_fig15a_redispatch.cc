// Fig. 15(a) reproduction: benefit of re-dispatching vs plain LIFO
// preemption on per-token output latency.  The paper's experiment
// (ShareGPT, rate 5) exercises memory exhaustion; our substrate has more
// KV headroom at that setting, so the memory-pressure regime is recreated
// on the ablation cluster (A100 primary + 2x3090 Attention workers,
// Llama-13B) with the long-context workload -- the exact §5.3.2 scenario:
// uneven per-device memory where LIFO eviction wastes cluster-wide spare
// space that re-dispatching can exploit.
//
// Expected shape: re-dispatching improves mean and P95 output latency
// (paper: 1.06x / 1.14x) and converts full preemptions into cheap partial
// migrations.
#include <cstdio>

#include "common/cli.h"
#include "harness.h"
// Not harness-migrated: this ablation reads HetisEngine-specific re-dispatch
// counters, so it constructs the concrete engine directly.
#include "hetis/hetis_engine.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig15a_redispatch").parse(argc, argv);
  hw::Cluster cluster = harness::cluster_by_name("ablation");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");

  // Fixed roles: A100 primary, both 3090s pooled for Attention.
  parallel::ParallelPlan plan;
  parallel::InstanceConfig inst;
  parallel::StageConfig stage;
  stage.devices = {0};
  stage.layers = m.layers;
  inst.stages = {stage};
  inst.attention_workers = {1, 2};
  plan.instances.push_back(inst);

  auto trace = bench::make_trace(workload::Dataset::kLongBench, 2.5, 60.0);

  engine::RunReport with_rd, lifo;
  const engine::RunOptions ropts(1800.0);
  int rescues = 0, balances = 0;
  {
    core::HetisOptions opts = bench::hetis_options();
    opts.enable_redispatch = true;
    opts.plan = plan;
    core::HetisEngine eng(cluster, m, opts);
    with_rd = engine::run_trace(eng, trace, ropts);
    rescues = eng.rescue_redispatches();
    balances = eng.balance_redispatches();
  }
  {
    core::HetisOptions opts = bench::hetis_options();
    opts.enable_redispatch = false;  // plain LIFO preemption only
    opts.plan = plan;
    core::HetisEngine eng(cluster, m, opts);
    lifo = engine::run_trace(eng, trace, ropts);
  }

  std::printf("=== Fig. 15(a): re-dispatching vs LIFO (LongBench @2.5, Llama-13B, ");
  std::printf("A100 + 2x3090) ===\n\n");
  std::printf("%-14s %14s %14s %10s %10s\n", "variant", "mean (s/tok)", "p95 (s/tok)",
              "finished", "preempt");
  std::printf("%-14s %14.4f %14.4f %7zu/%-zu %10d\n", "Hetis", with_rd.norm_latency_mean,
              with_rd.norm_latency_p95, with_rd.finished, trace.size(), with_rd.preemptions);
  std::printf("%-14s %14.4f %14.4f %7zu/%-zu %10d\n", "LIFO", lifo.norm_latency_mean,
              lifo.norm_latency_p95, lifo.finished, trace.size(), lifo.preemptions);
  std::printf("\nimprovement: mean %.2fx, p95 %.2fx (paper: 1.06x / 1.14x)\n",
              lifo.norm_latency_mean / with_rd.norm_latency_mean,
              lifo.norm_latency_p95 / with_rd.norm_latency_p95);
  std::printf("re-dispatches executed: %d rescue, %d balance\n", rescues, balances);
  return 0;
}
