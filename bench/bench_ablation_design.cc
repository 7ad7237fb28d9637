// Design-choice ablations (DESIGN.md §3): each row disables one Hetis
// mechanism and reports normalized latency on a shared workload, isolating
// the contribution of:
//   * the exact one-request dispatch solve of Eq. 7 (vs greedy waterfilling)
//   * primary-worker pruning       (vs all devices in dense parallelism)
//   * online re-dispatching        (vs plain LIFO preemption)
//   * data-parallel grouping       (vs one big instance)
#include <cstdio>

#include "common/cli.h"
#include "harness.h"

namespace {

using namespace hetis;

engine::RunReport run_variant(const hw::Cluster& cluster, const model::ModelSpec& m,
                              const std::vector<workload::Request>& trace,
                              engine::HetisConfig opts) {
  auto eng = engine::make("hetis", cluster, m, std::move(opts));
  return engine::run_trace(*eng, trace, engine::RunOptions(bench::kDrain));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_ablation_design").parse(argc, argv);
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto trace = bench::make_trace(workload::Dataset::kShareGPT, 10.0);

  std::printf("=== Design ablations (ShareGPT @10, Llama-13B, paper cluster) ===\n\n");
  std::printf("%-24s %14s %14s %10s\n", "variant", "mean (s/tok)", "p95 (s/tok)", "vs full");

  engine::HetisConfig full = bench::hetis_options();
  engine::RunReport base = run_variant(cluster, m, trace, full);
  std::printf("%-24s %14.4f %14.4f %9.2fx\n", "Hetis (full)", base.norm_latency_mean,
              base.norm_latency_p95, 1.0);

  {
    engine::HetisConfig opts = bench::hetis_options();
    opts.use_lp = false;
    engine::RunReport r = run_variant(cluster, m, trace, opts);
    std::printf("%-24s %14.4f %14.4f %9.2fx\n", "greedy dispatch (no LP)", r.norm_latency_mean,
                r.norm_latency_p95, r.norm_latency_mean / base.norm_latency_mean);
  }
  {
    engine::HetisConfig opts = bench::hetis_options();
    opts.search.enable_pruning = false;  // P100s join dense parallelism
    engine::RunReport r = run_variant(cluster, m, trace, opts);
    std::printf("%-24s %14.4f %14.4f %9.2fx\n", "no pruning (O1 off)", r.norm_latency_mean,
                r.norm_latency_p95, r.norm_latency_mean / base.norm_latency_mean);
  }
  {
    engine::HetisConfig opts = bench::hetis_options();
    opts.enable_redispatch = false;
    engine::RunReport r = run_variant(cluster, m, trace, opts);
    std::printf("%-24s %14.4f %14.4f %9.2fx\n", "no re-dispatch (LIFO)", r.norm_latency_mean,
                r.norm_latency_p95, r.norm_latency_mean / base.norm_latency_mean);
  }
  {
    engine::HetisConfig opts = bench::hetis_options();
    opts.search.allow_dp = false;
    engine::RunReport r = run_variant(cluster, m, trace, opts);
    std::printf("%-24s %14.4f %14.4f %9.2fx\n", "single instance (no DP)", r.norm_latency_mean,
                r.norm_latency_p95, r.norm_latency_mean / base.norm_latency_mean);
  }
  return 0;
}
