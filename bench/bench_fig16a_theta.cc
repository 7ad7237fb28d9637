// Fig. 16(a) reproduction: sensitivity of per-token latency to the
// re-dispatch threshold Theta, reported as the latency ratio vs the
// default Theta = 0.5.  Expected shape: a shallow valley around 0.5 --
// small Theta migrates too eagerly, large Theta tolerates imbalance.
//
// Hetis is constructed by registry name with Theta carried in
// EngineOptions -- no concrete engine header.
#include <cstdio>

#include "common/cli.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig16a_theta").parse(argc, argv);
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  const std::vector<std::pair<workload::Dataset, double>> settings{
      {workload::Dataset::kShareGPT, 5.0},
      {workload::Dataset::kHumanEval, 25.0},
      {workload::Dataset::kLongBench, 3.0},
  };
  const std::vector<double> thetas{0.3, 0.4, 0.5, 0.6, 0.7};
  const engine::RunOptions ropts(bench::kDrain);

  auto run_at_theta = [&](workload::Dataset ds, double rate, double theta) {
    engine::HetisConfig cfg = bench::hetis_options();
    cfg.theta = theta;
    auto eng = engine::make("hetis", cluster, m, cfg);
    return engine::run_trace(*eng, bench::make_trace(ds, rate), ropts).norm_latency_mean;
  };

  std::printf("=== Fig. 16(a): latency ratio vs Theta (baseline Theta=0.5) ===\n\n");
  std::printf("%8s", "Theta");
  for (const auto& [ds, rate] : settings) std::printf(" %12s", workload::to_string(ds));
  std::printf("\n");

  // Baselines at theta = 0.5 per dataset.
  std::vector<double> base;
  for (const auto& [ds, rate] : settings) base.push_back(run_at_theta(ds, rate, 0.5));

  for (double theta : thetas) {
    std::printf("%8.1f", theta);
    for (std::size_t i = 0; i < settings.size(); ++i) {
      double lat = run_at_theta(settings[i].first, settings[i].second, theta);
      std::printf(" %12.3f", lat / base[i]);
    }
    std::printf("\n");
  }
  return 0;
}
