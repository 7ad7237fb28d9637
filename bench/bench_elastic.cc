// Elastic serving under cluster churn, autoscaling policies and degraded
// hardware.
//
// Three experiments, all on the paper cluster with an interactive SLO:
//
//  A. CHURN  -- all three engines serve the same bursty trace while a
//     gpu_leave + gpu_join script (dip: the lowest-power devices vanish
//     mid-run and return later) forces online re-deploys.  HetisEngine
//     replans and live-migrates KV through the Hauler (§5.3 dynamic
//     parallelism); Splitwise/HexGen checkpoint-and-restart.  The SLO
//     attainment gap is the cost of static parallelism under churn.
//
//  B. POLICY -- HetisEngine starts on a deliberately small deployment
//     (initial_devices) and each ScalePolicy (static / threshold / slo)
//     decides how to use the idle reserve as bursts arrive.  Reactive
//     scaling must beat the static posture on SLO attainment.
//
//  C. DEGRADED -- the devices never leave; they get WORSE.  Two scripts,
//     each served by all three engines:
//       straggler   -- an anchor A100 silently drops to 35% speed mid-run
//                      and recovers late.  Hetis crosses the controller's
//                      straggler threshold, replans on the measured
//                      hardware and DEMOTES the straggler to an Attention
//                      worker (§4.1's Delta-pruning applied online); the
//                      baselines keep their static layout and simply run
//                      slower.
//       spot_notice -- spot-style leaves announced `notice_lead` seconds
//                      ahead.  Hetis pre-migrates KV off the doomed device
//                      through the Hauler during the lead window (zero
//                      restarts); the baselines ignore the warning and
//                      checkpoint-restart when the device actually dies.
//
// Writes BENCH_elastic.json (all three row sets + wall clock) as the
// canonical artifact for the perf trajectory; committed at the repo root.
//
// --check is the degradation acceptance guard: it exits 2 unless, under
// BOTH Part C scripts, Hetis finishes every request (nothing dropped),
// reconfigures at least once, and beats both baselines on SLO attainment.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/cli.h"
#include "control/controller.h"
#include "harness.h"
#include "workload/scenarios.h"

namespace {

using namespace hetis;

harness::ExperimentSpec base_spec(const char* name, double rate, Seconds horizon) {
  harness::ExperimentSpec spec = bench::paper_spec(name, "Llama-13B");
  spec.horizon = horizon;
  engine::SloSpec slo;
  slo.ttft = 2.0;
  slo.tpot = 0.15;
  spec.run.slo = slo;
  spec.add_scenario(workload::scenario_preset(workload::Scenario::kBursty, rate, spec.horizon,
                                              spec.seed));
  return spec;
}

control::ControlSpec control_for(const std::string& policy, engine::SloSpec slo) {
  control::ControlSpec cs;
  cs.policy = policy;
  cs.slo = slo;
  cs.min_devices = 4;
  return cs;
}

std::string g_trace_dir;  // --trace DIR; empty = telemetry off

std::vector<harness::SweepRow> run_part(harness::ExperimentSpec& spec, int jobs, bool progress) {
  spec.jobs = jobs;
  spec.trace_dir = g_trace_dir;
  return harness::run_sweep(spec, progress ? bench::progress_printer(bench::cell_count(spec))
                                           : harness::RowCallback());
}

void print_rows(const std::vector<harness::SweepRow>& rows) {
  std::printf("%-10s %-10s %9s %9s %8s %8s %7s %6s %6s\n", "engine", "policy", "finished",
              "ttft_p95", "slo_att", "goodput", "reconf", "migr", "restart");
  for (const auto& row : rows) {
    std::printf("%-10s %-10s %6zu/%-2zu %9.3f %8.2f %8.2f %7d %6d %6d\n",
                row.report.engine.c_str(), row.policy.c_str(), row.report.finished,
                row.trace_requests, row.report.ttft_p95, row.report.slo_attainment,
                row.report.goodput, row.reconfigurations, row.migrated_requests,
                row.restarted_requests);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args =
      cli::Parser("bench_elastic")
          .flag("--csv", "dump the aligned sweep rows (A, B, then C) instead of the tables")
          .flag("--csv-header", "print the sweep CSV header and exit")
          .option("--jobs", "N", "sweep worker threads (0 = hardware concurrency; default 0)")
          .flag("--progress", "per-cell completion lines on stderr")
          .option("--out", "PATH", "JSON artifact path (default BENCH_elastic.json; - disables)")
          .option("--rate", "R", "base aggregate rate in req/s (default 18)")
          .option("--horizon", "S", "arrival window in seconds (default 24)")
          .option("--trace", "DIR", "write each cell's .trace.json, .metrics.csv, .audit.json here")
          .flag("--check", "degradation guard: exit 2 unless Hetis wins both part C scripts")
          .parse(argc, argv);
  if (args.has("--csv-header")) {
    std::printf("%s\n", harness::sweep_csv_header().c_str());
    return 0;
  }
  const double rate = args.positive("--rate", 18.0);
  const Seconds horizon = args.positive("--horizon", 24.0);
  const std::string out_path = args.text("--out", "BENCH_elastic.json");
  const bool csv = args.has("--csv");
  const bool progress = args.has("--progress");
  const int jobs = args.jobs(0);
  g_trace_dir = args.text("--trace", "");

  const auto t0 = std::chrono::steady_clock::now();

  // --- Part A: churn resilience, all engines, static policy -------------
  harness::ExperimentSpec churn_spec = base_spec("elastic_churn", rate, horizon);
  {
    control::ControlSpec cs = control_for("static", *churn_spec.run.slo);
    cs.churn = control::churn_preset(control::Churn::kDip, horizon, churn_spec.seed);
    cs.churn.leave_count = 4;  // the whole P100 tier vanishes mid-run
    cs.churn.leave_frac = 0.3;
    cs.churn.rejoin_frac = 0.7;
    churn_spec.set_control(cs);
  }
  const auto churn_rows = run_part(churn_spec, jobs, progress);
  bench::warn_truncated(churn_rows);

  // --- Part C: degraded hardware, all engines, static policy ------------
  // The latency replan objective makes Hetis's degradation response search
  // depth-exploring plans (the demote-the-straggler layout); the static
  // policy keeps elective scaling out of the comparison so the only
  // difference between engines is how they react to the SAME degradation.
  std::vector<harness::SweepRow> degradation_rows;
  std::vector<control::ChurnSpec> degradation_churns;
  for (const control::Churn kind : {control::Churn::kStraggler, control::Churn::kSpotNotice}) {
    harness::ExperimentSpec spec = base_spec("elastic_degraded", rate, horizon);
    control::ControlSpec cs = control_for("static", *spec.run.slo);
    cs.churn = control::churn_preset(kind, horizon, spec.seed);
    cs.replan_objective = "latency";
    spec.set_control(cs);
    degradation_churns.push_back(spec.control->churn);
    for (auto& row : run_part(spec, jobs, progress)) degradation_rows.push_back(std::move(row));
  }
  bench::warn_truncated(degradation_rows);

  // --- Part B: scale policies on Hetis from a small initial deployment --
  std::vector<harness::SweepRow> policy_rows;
  for (const std::string policy : {"static", "threshold", "slo"}) {
    harness::ExperimentSpec spec = base_spec("elastic_policy", rate, horizon);
    spec.engines = {"hetis"};
    control::ControlSpec cs = control_for(policy, *spec.run.slo);
    cs.initial_devices = 2;  // one A100-TP2 instance; ten devices in reserve
    cs.min_devices = 2;
    // Burst-friendly reactive tuning: scale out fast on a short queue, and
    // never shed capacity mid-run -- the off-phase between bursts is
    // shorter than a shrink-regrow cycle is worth (each re-deploy migrates
    // the whole running set).
    cs.cooldown = 4.0;
    cs.threshold.up_queue = 4;
    cs.threshold.down_queue = 0;  // queue_depth < 0 never holds: no scale-in
    cs.threshold.step = 3;
    cs.slo_policy.step = 3;
    spec.set_control(cs);
    for (auto& row : run_part(spec, jobs, progress)) policy_rows.push_back(std::move(row));
  }
  bench::warn_truncated(policy_rows);

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (out_path != "-") {
    std::ostringstream churn_json, policy_json, degradation_json;
    harness::write_json(churn_json, churn_rows);
    harness::write_json(policy_json, policy_rows);
    harness::write_json(degradation_json, degradation_rows);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"elastic\",\"model\":\"Llama-13B\",\"cluster\":\"paper\""
        << ",\"seed\":" << churn_spec.seed << ",\"rate\":" << rate
        << ",\"horizon\":" << horizon << ",\"jobs\":" << jobs
        << ",\"wall_seconds\":" << wall << ",\"churn_rows\":" << churn_json.str()
        << ",\"policy_rows\":" << policy_json.str()
        << ",\"degradation_rows\":" << degradation_json.str() << "}\n";
  }

  // Degradation acceptance guard (see header comment).  Checked before any
  // printing mode returns so `--csv --check` also guards.
  int check_failures = 0;
  if (args.has("--check")) {
    for (const auto& churn : degradation_churns) {
      const std::string script = control::to_string(churn.kind);
      const harness::SweepRow* hetis = nullptr;
      std::vector<const harness::SweepRow*> baselines;
      for (const auto& row : degradation_rows) {
        if (row.control != script) continue;
        if (row.report.engine == "Hetis") {
          hetis = &row;
        } else {
          baselines.push_back(&row);
        }
      }
      if (hetis == nullptr || baselines.empty()) {
        std::fprintf(stderr, "CHECK FAIL [%s]: missing Hetis or baseline rows\n",
                     script.c_str());
        ++check_failures;
        continue;
      }
      if (hetis->report.finished != hetis->trace_requests) {
        std::fprintf(stderr, "CHECK FAIL [%s]: Hetis dropped %zu of %zu requests\n",
                     script.c_str(), hetis->trace_requests - hetis->report.finished,
                     hetis->trace_requests);
        ++check_failures;
      }
      if (hetis->reconfigurations <= 0) {
        std::fprintf(stderr, "CHECK FAIL [%s]: Hetis never reconfigured\n", script.c_str());
        ++check_failures;
      }
      for (const auto* b : baselines) {
        if (hetis->report.slo_attainment <= b->report.slo_attainment) {
          std::fprintf(stderr,
                       "CHECK FAIL [%s]: Hetis slo_attainment %.4f does not beat %s's %.4f\n",
                       script.c_str(), hetis->report.slo_attainment, b->report.engine.c_str(),
                       b->report.slo_attainment);
          ++check_failures;
        }
      }
    }
    if (check_failures == 0) {
      std::fprintf(stderr, "degradation check OK: %zu rows over %zu scripts\n",
                   degradation_rows.size(), degradation_churns.size());
    }
  }

  if (csv) {
    std::printf("%s\n", harness::sweep_csv_header().c_str());
    for (const auto& row : churn_rows) std::printf("%s\n", harness::to_csv_row(row).c_str());
    for (const auto& row : policy_rows) std::printf("%s\n", harness::to_csv_row(row).c_str());
    for (const auto& row : degradation_rows) {
      std::printf("%s\n", harness::to_csv_row(row).c_str());
    }
    return check_failures == 0 ? 0 : 2;
  }

  std::printf("=== Elastic control plane: Llama-13B, paper cluster, bursty %.1f req/s, %.0fs "
              "(seed %llu, jobs %d, %.2fs wall) ===\n\n",
              rate, horizon, static_cast<unsigned long long>(churn_spec.seed), jobs, wall);
  std::printf("--- A. churn: %s; static policy ---\n",
              control::describe(churn_spec.control->churn).c_str());
  print_rows(churn_rows);
  std::printf("--- B. policies on Hetis: start on 2/12 devices, %s ---\n",
              workload::describe(*churn_spec.workloads[0].scenario).c_str());
  print_rows(policy_rows);
  for (std::size_t i = 0; i < degradation_churns.size(); ++i) {
    const std::string script = control::to_string(degradation_churns[i].kind);
    std::printf("--- C.%zu degraded: %s; static policy, latency replans ---\n", i + 1,
                control::describe(degradation_churns[i]).c_str());
    std::vector<harness::SweepRow> group;
    for (const auto& row : degradation_rows) {
      if (row.control == script) group.push_back(row);
    }
    print_rows(group);
  }
  if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  return check_failures == 0 ? 0 : 2;
}
