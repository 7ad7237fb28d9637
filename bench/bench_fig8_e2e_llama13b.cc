// Fig. 8 reproduction: normalized end-to-end latency (s/token) vs request
// rate for Llama-13B on ShareGPT / HumanEval / LongBench, all three
// systems.  Expected shape: Hetis sustains the highest rate before the
// latency knee (paper: up to 2.25x Splitwise, 1.33x HexGen throughput).
#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_fig8_e2e_llama13b")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .flag("--progress", "per-cell completion lines on stderr")
          .parse(argc, argv);
  bench::run_e2e_figure("Fig. 8", "Llama-13B",
                        {{workload::Dataset::kShareGPT, {3, 6, 9, 12, 15}},
                         {workload::Dataset::kHumanEval, {15, 30, 45, 60, 75}},
                         {workload::Dataset::kLongBench, {3, 5, 7, 9}}},
                        args.has("--csv"), args.jobs(1), args.has("--progress"));
  return 0;
}
