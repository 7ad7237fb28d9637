// Scenario sweep: every workload generator (poisson / bursty / diurnal /
// ramp / multi_tenant / long_context) served by all three registered
// engines on the paper cluster, with an interactive SLO attached.
//
// This is the workload-diversity counterpart of the per-figure benches: the
// paper's traces are stationary Poisson, while heterogeneous-cluster
// conclusions have to survive bursts, load swings and mixed tenants.  The
// run also writes BENCH_scenarios.json (rows + wall-clock + jobs) as the
// canonical artifact for the perf trajectory.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/cli.h"
#include "harness.h"
#include "workload/scenarios.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_scenarios")
          .flag("--csv", "dump the aligned sweep rows instead of the table")
          .flag("--csv-header", "print the sweep CSV header and exit")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 0)")
          .flag("--progress", "per-cell completion lines on stderr")
          .option("--out", "PATH", "JSON artifact path (default BENCH_scenarios.json; - disables)")
          .option("--rate", "R", "base aggregate rate in req/s (default 2)")
          .option("--horizon", "S", "arrival window in seconds (default 12)")
          .parse(argc, argv);
  if (args.has("--csv-header")) {
    std::printf("%s\n", harness::sweep_csv_header().c_str());
    return 0;
  }
  const double rate = args.positive("--rate", 2.0);
  const Seconds horizon = args.positive("--horizon", 12.0);
  const std::string out_path = args.text("--out", "BENCH_scenarios.json");
  const bool csv = args.has("--csv");
  const int jobs = args.jobs(0);

  harness::ExperimentSpec spec = bench::paper_spec("scenarios", "Llama-13B");
  spec.horizon = horizon;
  spec.jobs = jobs;
  engine::SloSpec slo;
  slo.ttft = 5.0;
  slo.tpot = 0.15;
  spec.run.slo = slo;
  for (const std::string& name : workload::scenario_names()) {
    spec.add_scenario(workload::scenario_preset(workload::scenario_by_name(name), rate,
                                                spec.horizon, spec.seed));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = harness::run_sweep(
      spec, args.has("--progress")
                ? bench::progress_printer(bench::cell_count(spec))
                : harness::RowCallback());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  bench::warn_truncated(rows);

  if (out_path != "-") {
    std::ostringstream rows_json;
    harness::write_json(rows_json, rows);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"scenarios\",\"model\":\"Llama-13B\",\"cluster\":\"paper\""
        << ",\"seed\":" << spec.seed << ",\"rate\":" << rate << ",\"horizon\":" << spec.horizon
        << ",\"jobs\":" << spec.jobs << ",\"wall_seconds\":" << wall
        << ",\"rows\":" << rows_json.str() << "}\n";
  }

  if (csv) {
    harness::write_csv(std::cout, rows);
    return 0;
  }

  std::printf("=== Scenario sweep: %zu generators x 3 engines, Llama-13B, paper cluster ===\n",
              spec.workloads.size());
  std::printf("(base rate %.1f req/s, horizon %.0fs, seed %llu, jobs %d, %.2fs wall)\n\n", rate,
              spec.horizon, static_cast<unsigned long long>(spec.seed), spec.jobs, wall);
  const std::size_t ne = spec.engines.size();
  for (std::size_t pi = 0; pi < spec.workloads.size(); ++pi) {
    const auto& point = spec.workloads[pi];
    std::printf("--- %s ---\n", workload::describe(*point.scenario).c_str());
    std::printf("%-10s %9s %10s %9s %9s %8s %8s\n", "engine", "finished", "norm(mean)",
                "ttft_p95", "tpot_p95", "slo_att", "goodput");
    for (std::size_t ei = 0; ei < ne; ++ei) {
      const auto& row = rows[pi * ne + ei];
      std::printf("%-10s %6zu/%-2zu %10.4f %9.3f %9.4f %8.2f %8.2f\n",
                  row.report.engine.c_str(), row.report.finished, row.trace_requests,
                  row.report.norm_latency_mean, row.report.ttft_p95, row.report.tpot_p95,
                  row.report.slo_attainment, row.report.goodput);
      for (const auto& t : row.tenants) {
        std::printf("  tenant %-8s %5zu/%-4zu ttft_p95=%.3fs tpot_p95=%.4fs slo=%.2f "
                    "goodput=%.2f\n",
                    t.tenant.c_str(), t.finished, t.arrived, t.ttft_p95, t.tpot_p95,
                    t.slo_attainment, t.goodput);
      }
    }
    std::printf("\n");
  }
  if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
