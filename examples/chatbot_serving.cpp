// Chatbot serving scenario (paper §7.2): a ShareGPT-like conversational
// workload on the paper cluster, served by all three systems side by side.
//
//   build/examples/chatbot_serving [model] [rate] [horizon_seconds] [--csv]
//
// model in {Llama-13B, OPT-30B, Llama-70B}.  Declared as one
// harness::ExperimentSpec and executed through the engine registry; prints
// a per-system metric table (like the rows behind Fig. 8-10) with SLO
// attainment and goodput under interactive chat targets, or the aligned
// CSV rows with --csv.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "harness/experiment.h"
#include "model/llm.h"

namespace {

void print_row(const hetis::harness::SweepRow& row) {
  const auto& rep = row.report;
  std::printf("%-10s %8zu/%-8zu %12.4f %10.3f %10.4f %9.1f%% %8.2f %8d\n", rep.engine.c_str(),
              rep.finished, rep.arrived, rep.norm_latency_mean, rep.ttft_p95, rep.tpot_p95,
              rep.slo_attainment * 100, rep.goodput, rep.preemptions);
  if (rep.drain_timeout_hit) std::printf("  WARNING: %s\n", rep.warning().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;

  const cli::Args args = cli::Parser("chatbot_serving")
                             .positional("model", "Llama-13B (default), OPT-30B or Llama-70B")
                             .positional("rate", "arrival rate in req/s, > 0 (default 6)")
                             .positional("horizon", "trace length in seconds, > 0 (default 60)")
                             .flag("--csv", "print the aligned sweep rows instead of the table")
                             .parse(argc, argv);
  const std::string model_name = args.text("model", "Llama-13B");
  const double rate = args.positive("rate", 6.0);
  const double horizon = args.positive("horizon", 60.0);
  try {
    model::model_by_name(model_name);
  } catch (const std::out_of_range&) {
    args.fail("unknown model '" + model_name + "'");
  }
  const bool csv = args.has("--csv");

  harness::ExperimentSpec spec;
  spec.name = "chatbot";
  spec.models = {model_name};
  spec.workloads = {{workload::Dataset::kShareGPT, rate}};
  spec.horizon = horizon;
  spec.seed = 7;
  spec.run = engine::RunOptions(900.0);
  engine::SloSpec slo;
  slo.ttft = 2.0;   // interactive chat targets
  slo.tpot = 0.15;
  spec.run.slo = slo;
  engine::HetisConfig hetis_cfg;
  hetis_cfg.workload.decode_batch = 64;
  spec.engine_options["hetis"] = engine::EngineOptions(hetis_cfg);

  if (csv) {
    harness::write_csv(std::cout, harness::run_sweep(spec));
    return 0;
  }

  std::printf("chatbot workload: %s @ %.1f req/s over %.0fs, paper cluster\n", model_name.c_str(),
              rate, horizon);
  std::printf("SLO: TTFT <= %.1fs, TPOT <= %.2fs\n\n", slo.ttft, slo.tpot);
  std::printf("%-10s %-17s %12s %10s %10s %10s %8s %8s\n", "system", "finished", "norm(s/tok)",
              "TTFT p95", "TPOT p95", "SLO att.", "goodput", "preempt");
  harness::run_sweep(spec, print_row);
  return 0;
}
