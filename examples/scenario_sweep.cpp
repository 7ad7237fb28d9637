// Scenario sweep example: pick workload generators by name and serve them
// with all three registered engines through the declarative harness.
//
//   scenario_sweep                                # all scenarios, table
//   scenario_sweep bursty multi_tenant --jobs 4   # two scenarios, 4 workers
//   scenario_sweep diurnal --rate 3 --csv         # machine-readable rows
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness/experiment.h"
#include "workload/scenarios.h"

int main(int argc, char** argv) {
  using namespace hetis;

  const cli::Args args =
      cli::Parser("scenario_sweep")
          .rest("scenario", "scenario names (default: all of them)")
          .option("--rate", "R", "base rate in req/s, > 0 (default 2)")
          .option("--horizon", "S", "arrival window in seconds, > 0 (default 10)")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 1)")
          .flag("--csv", "print the aligned sweep rows instead of the table")
          .flag("--json", "print the sweep rows as JSON instead of the table")
          .parse(argc, argv);
  const double rate = args.positive("--rate", 2.0);
  const Seconds horizon = args.positive("--horizon", 10.0);
  const int jobs = args.jobs(1);
  const bool csv = args.has("--csv"), json = args.has("--json");
  std::vector<std::string> names = args.rest();
  if (names.empty()) names = workload::scenario_names();

  harness::ExperimentSpec spec;
  spec.name = "scenario_sweep";
  spec.models = {"Llama-13B"};
  spec.horizon = horizon;
  spec.jobs = jobs;
  spec.run = engine::RunOptions(900.0);
  engine::SloSpec slo;
  slo.ttft = 5.0;
  slo.tpot = 0.15;
  spec.run.slo = slo;
  try {
    for (const std::string& name : names) {
      spec.add_scenario(workload::scenario_preset(workload::scenario_by_name(name), rate,
                                                  spec.horizon, spec.seed));
    }
  } catch (const std::out_of_range& e) {
    args.fail(e.what());
  }
  try {
    const auto rows = harness::run_sweep(spec);
    if (csv) {
      harness::write_csv(std::cout, rows);
      return 0;
    }
    if (json) {
      harness::write_json(std::cout, rows);
      return 0;
    }

    const std::size_t ne = spec.engines.size();
    std::printf("=== scenario sweep: %zu scenario(s) x %zu engines, %s ===\n\n",
                spec.workloads.size(), ne, spec.models[0].c_str());
    for (std::size_t pi = 0; pi < spec.workloads.size(); ++pi) {
      std::printf("--- %s ---\n", workload::describe(*spec.workloads[pi].scenario).c_str());
      for (std::size_t ei = 0; ei < ne; ++ei) {
        const auto& row = rows[pi * ne + ei];
        std::printf("  %-10s finished %zu/%zu  norm %.4f s/tok  ttft_p95 %.3fs  slo %.2f\n",
                    row.report.engine.c_str(), row.report.finished, row.trace_requests,
                    row.report.norm_latency_mean, row.report.ttft_p95,
                    row.report.slo_attainment);
        if (row.report.drain_timeout_hit) {
          std::printf("  WARNING: %s\n", row.report.warning().c_str());
        }
        for (const auto& t : row.tenants) {
          std::printf("    tenant %-8s %zu/%zu  slo %.2f  goodput %.2f req/s\n",
                      t.tenant.c_str(), t.finished, t.arrived, t.slo_attainment, t.goodput);
        }
      }
      std::printf("\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
