// Fig. 13 reproduction: P95 per-token MLP and Attention module latency
// during decode for Llama-70B (module latency = max per-stage module time
// x number of stages, §7.3), normalized to Hetis.  Expected shape: Hetis
// reduces MLP by up to ~1.29x and decode Attention by up to ~1.49x.
#include <cstdio>

#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_fig13_module_latency")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .parse(argc, argv);
  harness::ExperimentSpec spec = bench::paper_spec("Fig. 13", "Llama-70B");
  spec.workloads = {{workload::Dataset::kShareGPT, 1.5},
                    {workload::Dataset::kHumanEval, 6.0},
                    {workload::Dataset::kLongBench, 0.8}};
  spec.jobs = args.jobs(1);

  const auto rows = harness::run_sweep(spec);
  bench::warn_truncated(rows);
  if (args.has("--csv")) {
    harness::write_csv(std::cout, rows);
    return 0;
  }

  std::printf("=== Fig. 13: P95 decode module latency, Llama-70B (normalized to Hetis) ===\n\n");
  std::printf("%-10s | %9s %9s %9s | %9s %9s %9s\n", "dataset", "MLP:SW", "MLP:HG", "MLP:HT",
              "Attn:SW", "Attn:HG", "Attn:HT");
  const std::size_t ne = spec.engines.size();
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& sw = bench::point_report(rows, i, ne, "Splitwise");
    const auto& hg = bench::point_report(rows, i, ne, "Hexgen");
    const auto& ht = bench::point_report(rows, i, ne, "Hetis");
    double m0 = ht.mlp_module_p95, a0 = ht.attn_module_p95;
    std::printf("%-10s | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n",
                workload::to_string(spec.workloads[i].dataset), sw.mlp_module_p95 / m0,
                hg.mlp_module_p95 / m0, 1.0, sw.attn_module_p95 / a0, hg.attn_module_p95 / a0,
                1.0);
    std::printf("%-10s | absolute Hetis: MLP %.3f ms, Attention %.3f ms\n", "", to_millis(m0),
                to_millis(a0));
  }
  return 0;
}
