// Fig. 9 reproduction: normalized end-to-end latency vs request rate for
// OPT-30B across the three datasets and systems.
#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_fig9_e2e_opt30b")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .flag("--progress", "per-cell completion lines on stderr")
          .parse(argc, argv);
  bench::run_e2e_figure("Fig. 9", "OPT-30B",
                        {{workload::Dataset::kShareGPT, {3, 6, 9, 12}},
                         {workload::Dataset::kHumanEval, {15, 30, 45}},
                         {workload::Dataset::kLongBench, {2, 4, 6}}},
                        args.has("--csv"), args.jobs(1), args.has("--progress"));
  return 0;
}
