// Objective-driven planning: the three built-in plan objectives compared
// across cluster presets and workload scenarios.
//
// Two views, matching the two layers the objective threads through:
//
//  A. PLANNER -- for each cluster preset, run the Parallelizer once per
//     objective and price the winning plan with the PlanEvaluator.  The
//     table is the planner's own estimate space: TTFT / TPOT / throughput /
//     device footprint.  Invariant checked here (and by CI): the latency
//     objective's estimated TTFT never exceeds the throughput objective's
//     on any preset -- the ROADMAP-flagged regression where the 12-device
//     plan beat the 4xA100 plan on throughput but lost on TTFT.
//
//  B. SERVING -- a harness sweep (ExperimentSpec::objectives) serves the
//     same traces through HetisEngine deployed under each objective:
//     3 cluster presets x 2 scenarios x 3 objectives.  Rows carry the new
//     objective / device_seconds / device_seconds_per_slo_request columns,
//     so the cost-efficiency story (goodput per device-second) is measured,
//     not just estimated.
//
// Writes BENCH_objectives.json (planner estimates + sweep rows + the TTFT
// invariant verdict) as the canonical artifact; committed at the repo root.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/cli.h"
#include "harness.h"
#include "parallel/parallelizer.h"
#include "workload/scenarios.h"

namespace {

using namespace hetis;

const std::vector<std::string> kObjectives = {"throughput", "latency", "goodput_per_device"};
const std::vector<std::string> kClusters = {"paper", "ablation", "budget"};
// Aggregate request rates roughly matched to each preset's capacity.
const std::map<std::string, double> kRates = {{"paper", 10.0}, {"ablation", 3.0},
                                              {"budget", 4.0}};

struct PlannerCell {
  std::string cluster;
  std::string objective;
  parallel::PlanEstimate estimate;
  std::string plan;
  parallel::SearchDiagnostics diag;
};

std::vector<PlannerCell> plan_all(const engine::SloSpec& slo) {
  std::vector<PlannerCell> cells;
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  for (const std::string& cl : kClusters) {
    hw::Cluster cluster = harness::cluster_by_name(cl);
    for (const std::string& obj : kObjectives) {
      parallel::ParallelizerOptions opts;
      opts.objective.name = obj;
      opts.objective.slo = slo;
      parallel::Parallelizer planner(cluster, model, opts);
      parallel::WorkloadProfile profile = bench::hetis_options().workload;
      PlannerCell cell;
      cell.cluster = cl;
      cell.objective = obj;
      parallel::ParallelPlan plan = planner.plan(profile);
      cell.estimate = planner.evaluator().evaluate(plan, profile);
      cell.plan = plan.to_string(cluster);
      cell.diag = planner.diagnostics();
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

const PlannerCell& planner_cell(const std::vector<PlannerCell>& cells, const std::string& cl,
                                const std::string& obj) {
  for (const auto& c : cells) {
    if (c.cluster == cl && c.objective == obj) return c;
  }
  throw std::logic_error("no planner cell for " + cl + "/" + obj);
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args =
      cli::Parser("bench_objectives")
          .flag("--csv", "dump the aligned sweep rows instead of the tables")
          .flag("--csv-header", "print the sweep CSV header and exit")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 0)")
          .flag("--progress", "per-cell completion lines on stderr")
          .option("--out", "PATH", "JSON artifact path (default BENCH_objectives.json; - disables)")
          .option("--horizon", "S", "arrival window in seconds (default 16)")
          .parse(argc, argv);
  if (args.has("--csv-header")) {
    std::printf("%s\n", harness::sweep_csv_header().c_str());
    return 0;
  }
  const Seconds horizon = args.positive("--horizon", 16.0);
  const std::string out_path = args.text("--out", "BENCH_objectives.json");
  const bool csv = args.has("--csv");
  const bool progress = args.has("--progress");
  const int jobs = args.jobs(0);

  engine::SloSpec slo;
  slo.ttft = 2.0;
  slo.tpot = 0.15;

  const auto t0 = std::chrono::steady_clock::now();

  // --- Part A: planner-level estimates per (cluster, objective) ----------
  const std::vector<PlannerCell> planner_cells = plan_all(slo);
  bool ttft_ok = true;
  for (const std::string& cl : kClusters) {
    const auto& lat = planner_cell(planner_cells, cl, "latency");
    const auto& thr = planner_cell(planner_cells, cl, "throughput");
    if (lat.estimate.ttft > thr.estimate.ttft) ttft_ok = false;
  }

  // --- Part B: serving sweeps, one per cluster preset --------------------
  std::vector<harness::SweepRow> rows;
  for (const std::string& cl : kClusters) {
    harness::ExperimentSpec spec = bench::paper_spec("objectives", "Llama-13B");
    spec.cluster = cl;
    spec.engines = {"hetis"};
    spec.objectives = kObjectives;
    spec.horizon = horizon;
    spec.run.slo = slo;
    spec.jobs = jobs;
    const double rate = kRates.at(cl);
    spec.add_scenario(
        workload::scenario_preset(workload::Scenario::kBursty, rate, spec.horizon, spec.seed));
    spec.add_scenario(
        workload::scenario_preset(workload::Scenario::kDiurnal, rate, spec.horizon, spec.seed));
    auto part = harness::run_sweep(spec, progress
                                             ? bench::progress_printer(bench::cell_count(spec))
                                             : harness::RowCallback());
    bench::warn_truncated(part);
    for (auto& row : part) rows.push_back(std::move(row));
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (out_path != "-") {
    std::ostringstream rows_json;
    harness::write_json(rows_json, rows);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"objectives\",\"model\":\"Llama-13B\",\"slo_ttft\":" << slo.ttft
        << ",\"slo_tpot\":" << slo.tpot << ",\"horizon\":" << horizon << ",\"jobs\":" << jobs
        << ",\"wall_seconds\":" << wall
        << ",\"latency_ttft_never_worse\":" << (ttft_ok ? "true" : "false") << ",\"plans\":[";
    for (std::size_t i = 0; i < planner_cells.size(); ++i) {
      const PlannerCell& c = planner_cells[i];
      out << (i ? ",\n  " : "\n  ") << "{\"cluster\":\"" << c.cluster << "\",\"objective\":\""
          << c.objective << "\",\"ttft\":" << c.estimate.ttft << ",\"tpot\":" << c.estimate.tpot
          << ",\"throughput\":" << c.estimate.throughput
          << ",\"kv_capacity\":" << c.estimate.kv_capacity
          << ",\"device_count\":" << c.estimate.device_count
          << ",\"instances\":" << c.estimate.instances << ",\"best_score\":" << c.diag.best_cost
          << ",\"configurations_evaluated\":" << c.diag.configurations_evaluated
          << ",\"plan\":\"" << engine::json_escape(c.plan) << "\"}";
    }
    out << "\n],\"rows\":" << rows_json.str() << "}\n";
  }

  if (csv) {
    std::printf("%s\n", harness::sweep_csv_header().c_str());
    for (const auto& row : rows) std::printf("%s\n", harness::to_csv_row(row).c_str());
  } else {
    std::printf("=== Plan objectives: Llama-13B, %zu cluster presets x 2 scenarios "
                "(horizon %.0fs, jobs %d, %.2fs wall) ===\n\n",
                kClusters.size(), horizon, jobs, wall);
    std::printf("--- A. planner estimates (WorkloadProfile: 4096 prefill, batch 64) ---\n");
    std::printf("%-9s %-18s %8s %8s %8s %5s %4s  %s\n", "cluster", "objective", "ttft",
                "tpot", "req/s", "dev", "dp", "plan");
    for (const auto& c : planner_cells) {
      std::printf("%-9s %-18s %8.3f %8.4f %8.2f %5d %4d  %s\n", c.cluster.c_str(),
                  c.objective.c_str(), c.estimate.ttft, c.estimate.tpot, c.estimate.throughput,
                  c.estimate.device_count, c.estimate.instances, c.plan.c_str());
    }
    std::printf("\nlatency TTFT <= throughput TTFT on every preset: %s\n\n",
                ttft_ok ? "yes" : "NO (regression!)");
    std::printf("--- B. serving (SLO: TTFT %.1fs, TPOT %.2fs) ---\n", slo.ttft, slo.tpot);
    std::printf("%-9s %-10s %-18s %9s %8s %8s %8s %10s %12s\n", "cluster", "scenario",
                "objective", "finished", "ttft_p95", "slo_att", "goodput", "dev_s",
                "dev_s/slo_req");
    for (const auto& row : rows) {
      std::printf("%-9s %-10s %-18s %6zu/%-2zu %8.3f %8.2f %8.2f %10.1f %12.2f\n",
                  row.cluster.c_str(), row.scenario.c_str(), row.objective.c_str(),
                  row.report.finished, row.trace_requests, row.report.ttft_p95,
                  row.report.slo_attainment, row.report.goodput, row.device_seconds,
                  row.device_seconds_per_slo_request);
    }
    if (out_path != "-") std::printf("\nwrote %s\n", out_path.c_str());
  }
  // The ROADMAP-flagged invariant is this bench's contract; fail loudly so
  // CI catches an estimate-model change that re-breaks it.
  return ttft_ok ? 0 : 2;
}
