// Fig. 16(b) reproduction: per-token latency under profiling error.  Each
// fitted coefficient family (a, b, c, gamma, beta) is perturbed by up to
// +-20% and the resulting latency is normalized to the error-free run.
// Expected shape: graceful degradation, <= ~7% latency growth at 20%
// error (the paper's resilience claim, §7.4).
#include <cstdio>

#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig16b_profiling_error").parse(argc, argv);
  using ET = engine::HetisConfig::ErrorTarget;
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto trace = bench::make_trace(workload::Dataset::kShareGPT, 6.0);
  const engine::RunOptions ropts(bench::kDrain);

  double base;
  {
    auto eng = engine::make("hetis", cluster, m, bench::hetis_options());
    base = engine::run_trace(*eng, trace, ropts).norm_latency_mean;
  }

  const std::vector<std::pair<const char*, ET>> targets{
      {"a", ET::kA}, {"b", ET::kB}, {"c", ET::kC}, {"gamma", ET::kGamma}, {"beta", ET::kBeta}};

  std::printf("=== Fig. 16(b): normalized latency under profiling error ===\n");
  std::printf("(ShareGPT @6, Llama-13B; 1.00 = error-free run)\n\n");
  std::printf("%8s", "error");
  for (const auto& [name, t] : targets) std::printf(" %8s", name);
  std::printf("\n");
  // Error signs are drawn per device/link; average over seeds so a single
  // unlucky sign pattern doesn't dominate (the paper reports averages).
  const std::vector<std::uint64_t> seeds{2025, 2026, 2027};
  for (double err : {0.05, 0.10, 0.15, 0.20}) {
    std::printf("%7.0f%%", err * 100);
    for (const auto& [name, target] : targets) {
      double acc = 0;
      for (std::uint64_t seed : seeds) {
        engine::HetisConfig opts = bench::hetis_options();
        opts.profile_error = err;
        opts.profile_error_target = target;
        opts.profile_seed = seed;
        auto eng = engine::make("hetis", cluster, m, opts);
        acc += engine::run_trace(*eng, trace, ropts).norm_latency_mean;
      }
      std::printf(" %8.3f", acc / static_cast<double>(seeds.size()) / base);
    }
    std::printf("\n");
  }
  return 0;
}
