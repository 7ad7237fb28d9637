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
// --help prints the usage and exits 0.  Unknown flags, a --rate or
// --horizon that is not a positive number, and unknown engine / churn /
// policy names exit 2 (the names with the valid ones listed).
//
// --trace PATH records the whole run as a Perfetto-loadable Chrome trace
// (plus <base>.metrics.csv and <base>.audit.json next to it) and prints a
// five-line telemetry summary after the report.
//
// Usage: elastic_serving [engine] [churn] [policy] [--engine E] [--churn C]
//                        [--policy P] [--rate R] [--horizon S] [--trace PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "control/controller.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "telemetry/telemetry.h"
#include "workload/scenarios.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: elastic_serving [engine] [churn] [policy] [--engine E] [--churn C] "
               "[--policy P] [--rate R] [--horizon S] [--trace PATH]\n"
               "  --rate R     arrival rate in req/s, > 0 (default 12)\n"
               "  --horizon S  trace length in seconds, > 0 (default 20)\n"
               "  --help       print this message\n");
}

/// Reports a command-line error with the usage text; exit code 2.
int bad_usage(const std::string& msg) {
  std::fprintf(stderr, "elastic_serving: %s\n", msg.c_str());
  usage(stderr);
  return 2;
}

/// Parses `text` as a finite number > 0; false on anything else
/// (trailing characters included).
bool parse_positive(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;
  std::string engine_name = "hetis";
  std::string churn_name = "dip";
  std::string policy = "threshold";
  std::string trace_path;
  double rate = 12.0;
  Seconds horizon = 20.0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--rate" || arg == "--horizon") {
      if (i + 1 >= argc || !parse_positive(argv[++i], arg == "--rate" ? rate : horizon)) {
        return bad_usage(arg + " expects a positive number");
      }
    } else if (arg == "--engine" && i + 1 < argc) {
      engine_name = argv[++i];
    } else if (arg == "--churn" && i + 1 < argc) {
      churn_name = argv[++i];
    } else if (arg == "--policy" && i + 1 < argc) {
      policy = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return bad_usage("unknown flag '" + arg + "'");
    } else {
      (positional == 0 ? engine_name : positional == 1 ? churn_name : policy) = arg;
      ++positional;
    }
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
    std::fprintf(stderr, "elastic_serving: %s\n", e.what());
    return 2;
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
