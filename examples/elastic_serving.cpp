// Elastic serving example: watch the control plane react to cluster churn
// and degrading hardware.
//
// Serves one bursty trace on a chosen engine while a churn script replays
// (devices leave, rejoin, slow down, or announce preemption) and a scale
// policy decides how much of the cluster to use.  A live observer prints
// every control-plane decision the engines make visible: reconfigurations,
// migrations, restarts.
//
//   elastic_serving                      # hetis, dip churn, threshold policy
//   elastic_serving splitwise            # watch checkpoint-and-restart pay
//   elastic_serving hetis spot slo       # spot churn under the SLO policy
//   elastic_serving --churn straggler    # an A100 drops to 35% speed and
//                                        # Hetis demotes it to an Attention
//                                        # worker instead of dropping it
//   elastic_serving --churn spot_notice  # preemption warnings: KV leaves
//                                        # the doomed device BEFORE it dies
//
// --trace PATH records the whole run as a Perfetto-loadable Chrome trace
// (plus <base>.metrics.csv and <base>.audit.json next to it) and prints a
// five-line telemetry summary after the report.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "control/controller.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "telemetry/telemetry.h"
#include "workload/scenarios.h"

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("elastic_serving")
          .positional("engine", "hetis (default), splitwise or hexgen")
          .positional("churn", "churn script (default dip)")
          .positional("policy", "scale policy (default threshold)")
          .option("--engine", "E", "the engine, as the first positional")
          .option("--churn", "C", "the churn script, as the second positional")
          .option("--policy", "P", "the scale policy, as the third positional")
          .option("--rate", "R", "arrival rate in req/s, > 0 (default 12)")
          .option("--horizon", "S", "trace length in seconds, > 0 (default 20)")
          .option("--trace", "PATH", "record the run as a Chrome trace (+ metrics and audit)")
          .parse(argc, argv);
  const std::string engine_name = args.text("--engine", args.text("engine", "hetis"));
  const std::string churn_name = args.text("--churn", args.text("churn", "dip"));
  const std::string policy = args.text("--policy", args.text("policy", "threshold"));
  const std::string trace_path = args.text("--trace", "");
  const double rate = args.positive("--rate", 12.0);
  const Seconds horizon = args.positive("--horizon", 20.0);
  const std::vector<std::string> engines = engine::engine_names();
  if (std::find(engines.begin(), engines.end(), engine::ascii_lower(engine_name)) ==
      engines.end()) {
    args.fail("unknown engine '" + engine_name + "'");
  }

  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::ScenarioSpec scenario =
      workload::scenario_preset(workload::Scenario::kBursty, rate, horizon, 20251116);
  auto trace = workload::generate_scenario(scenario);

  control::ControlSpec cs;
  // churn_by_name / make_policy list every valid name (sorted) on a typo;
  // surface that instead of an uncaught-exception abort.
  std::unique_ptr<control::Controller> controller;
  try {
    cs.churn = control::churn_preset(control::churn_by_name(churn_name), horizon, 20251116);
    cs.policy = policy;
    cs.min_devices = 4;
    cs.horizon = horizon + 30.0;
    cs.slo.ttft = 2.0;
    cs.slo.tpot = 0.15;
    // Non-const cluster: binds the mutable-overload Controller, so
    // degradation scripts (straggler / throttle_wave / flaky_link /
    // spot_notice) replay onto the same cluster the engine serves on.
    controller = std::make_unique<control::Controller>(cs, cluster);
  } catch (const std::exception& e) {
    args.fail(e.what());
  }

  std::printf("cluster : %s\n", cluster.to_string().c_str());
  std::printf("workload: %s (%zu requests)\n", workload::describe(scenario).c_str(),
              trace.size());
  std::printf("churn   : %s\n", control::describe(cs.churn).c_str());
  for (const auto& ev : controller->events()) {
    if (control::mutates_cluster(ev.kind) || ev.kind == control::ClusterEventKind::kPreemptNotice) {
      std::printf("          t=%6.2fs %-14s device=%d factor=%.2f\n", ev.time,
                  control::to_string(ev.kind), ev.device, ev.factor);
    } else {
      std::printf("          t=%6.2fs %-14s device=%d\n", ev.time,
                  control::to_string(ev.kind), ev.device);
    }
  }
  std::printf("policy  : %s\n\n", policy.c_str());

  std::unique_ptr<engine::Engine> eng;
  try {
    engine::EngineOptions options;
    if (!trace_path.empty() && engine::ascii_lower(engine_name) == "hetis") {
      // Traced Hetis runs sample per-device KV fill + assigned heads so the
      // trace carries the occupancy tracks (UsageSamples never feed the
      // RunReport, so the report below is unchanged).
      engine::HetisConfig cfg;
      cfg.sample_interval = 0.5;
      cfg.sample_horizon = horizon;
      options.system = std::move(cfg);
    }
    eng = engine::make(engine_name, cluster, model, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elastic_serving: %s\n", e.what());
    return 2;
  }
  engine::RunOptions run(900.0);
  run.slo = cs.slo;
  run.on_start = controller->starter();
  std::unique_ptr<telemetry::Telemetry> telem;
  if (!trace_path.empty()) {
    telemetry::TelemetryConfig tcfg;
    tcfg.horizon = horizon;
    tcfg.slo = run.slo;
    telem = std::make_unique<telemetry::Telemetry>(tcfg);
    run.telemetry = telem.get();
  }
  engine::RunReport report = engine::run_trace(*eng, trace, run);

  std::printf("%s\n", report.to_json().c_str());
  const auto& cst = controller->stats();
  std::printf("\ncontroller: %d forced + %d elective re-deploys over %d ticks "
              "(active %d..%d devices)\n",
              cst.forced_reconfigs, cst.elective_reconfigs, cst.ticks, cst.min_active,
              cst.peak_active);
  if (cst.degradation_events > 0 || cst.preempt_notices > 0) {
    std::printf("            %d degradation events applied, %d preemption notices forwarded\n",
                cst.degradation_events, cst.preempt_notices);
  }
  if (const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get())) {
    const engine::ReconfigStats& rs = rc->reconfig_stats();
    std::printf("engine    : %d reconfigurations, %d live-migrated (%.2f GB KV), %d restarted, "
                "%.2fs dead time\n",
                rs.reconfigurations, rs.migrated_requests, to_gb(rs.migrated_kv_bytes),
                rs.restarted_requests, rs.restart_dead_time);
  }
  std::printf("result    : slo attainment %.2f, goodput %.2f req/s, ttft p95 %.3fs\n",
              report.slo_attainment, report.goodput, report.ttft_p95);
  if (!report.warning().empty()) std::printf("WARNING: %s\n", report.warning().c_str());
  if (telem) {
    try {
      telem->write_artifacts(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "elastic_serving: %s\n", e.what());
      return 1;
    }
    std::printf("\ntelemetry :\n%s\n", telem->summary().c_str());
    for (const std::string& p : telemetry::Telemetry::artifact_paths(trace_path)) {
      std::printf("wrote     : %s\n", p.c_str());
    }
  }
  return 0;
}
