// Fig. 10 reproduction: normalized end-to-end latency vs request rate for
// Llama-70B (GQA) across the three datasets and systems.
#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_fig10_e2e_llama70b")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .flag("--progress", "per-cell completion lines on stderr")
          .parse(argc, argv);
  bench::run_e2e_figure("Fig. 10", "Llama-70B",
                        {{workload::Dataset::kShareGPT, {1, 2, 3}},
                         {workload::Dataset::kHumanEval, {3, 6, 9, 12}},
                         {workload::Dataset::kLongBench, {0.4, 0.8, 1.2, 1.6}}},
                        args.has("--csv"), args.jobs(1), args.has("--progress"));
  return 0;
}
