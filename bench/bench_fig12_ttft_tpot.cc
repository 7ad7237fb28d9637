// Fig. 12 reproduction: P95 TTFT and TPOT for Llama-70B at the paper's
// unsaturated rates (ShareGPT 1.5, HumanEval 6, LongBench 0.8 req/s),
// normalized to Hetis.  Expected shape: Hetis best TPOT everywhere (paper:
// up to 1.39x); TTFT worst for HexGen (P100s in the prefill path), and
// Splitwise's migration-inclusive TTFT degrading on long-prompt datasets.
//
// Declarative harness sweep with an SLO attached, so each system also
// reports goodput under the latency targets.
#include <cstdio>

#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_fig12_ttft_tpot")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .parse(argc, argv);
  harness::ExperimentSpec spec = bench::paper_spec("Fig. 12", "Llama-70B");
  spec.workloads = {{workload::Dataset::kShareGPT, 1.5},
                    {workload::Dataset::kHumanEval, 6.0},
                    {workload::Dataset::kLongBench, 0.8}};
  engine::SloSpec slo;
  slo.ttft = 5.0;    // interactive-serving targets; reporting-only
  slo.tpot = 0.15;
  spec.run.slo = slo;
  spec.jobs = args.jobs(1);

  const auto rows = harness::run_sweep(spec);
  bench::warn_truncated(rows);
  if (args.has("--csv")) {
    harness::write_csv(std::cout, rows);
    return 0;
  }

  std::printf("=== Fig. 12: P95 TTFT / TPOT, Llama-70B (normalized to Hetis) ===\n\n");
  std::printf("%-10s %6s | %9s %9s %9s | %9s %9s %9s\n", "dataset", "rate", "TTFT:SW",
              "TTFT:HG", "TTFT:HT", "TPOT:SW", "TPOT:HG", "TPOT:HT");
  const std::size_t ne = spec.engines.size();
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& sw = bench::point_report(rows, i, ne, "Splitwise");
    const auto& hg = bench::point_report(rows, i, ne, "Hexgen");
    const auto& ht = bench::point_report(rows, i, ne, "Hetis");
    double t0 = ht.ttft_p95, p0 = ht.tpot_p95;
    std::printf("%-10s %6.1f | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n",
                workload::to_string(spec.workloads[i].dataset), spec.workloads[i].rate,
                sw.ttft_p95 / t0, hg.ttft_p95 / t0, 1.0, sw.tpot_p95 / p0, hg.tpot_p95 / p0,
                1.0);
    std::printf("%-10s %6s | absolute Hetis: TTFT %.3fs, TPOT %.4fs\n", "", "", t0, p0);
    std::printf("%-10s %6s | goodput @(TTFT<=%.1fs, TPOT<=%.2fs): SW %.2f HG %.2f HT %.2f "
                "req/s\n",
                "", "", slo.ttft, slo.tpot, sw.goodput, hg.goodput, ht.goodput);
  }
  return 0;
}
