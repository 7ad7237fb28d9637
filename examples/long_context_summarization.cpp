// Long-context summarization scenario (the paper's LongBench workload):
// multi-thousand-token prompts with short summaries, the regime that
// stresses prefill capacity, memory balance, and the re-dispatching path
// (§5.3).
//
//   build/examples/long_context_summarization [model] [rate] [horizon]
//
// Declared as one harness::ExperimentSpec over all three systems.  The
// long drain window is explicit in RunOptions (multi-thousand-token
// prompts decode slowly), and any run that still hits it is flagged
// instead of silently truncating the percentiles.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "harness/experiment.h"
#include "model/llm.h"
#include "workload/datasets.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace hetis;

  const cli::Args args = cli::Parser("long_context_summarization")
                             .positional("model", "Llama-70B (default), Llama-13B or OPT-30B")
                             .positional("rate", "arrival rate in req/s, > 0 (default 1.2)")
                             .positional("horizon", "trace length in seconds, > 0 (default 60)")
                             .parse(argc, argv);
  const std::string model_name = args.text("model", "Llama-70B");
  const double rate = args.positive("rate", 1.2);
  const double horizon = args.positive("horizon", 60.0);
  try {
    model::model_by_name(model_name);
  } catch (const std::out_of_range&) {
    args.fail("unknown model '" + model_name + "'");
  }

  harness::ExperimentSpec spec;
  spec.name = "long-context";
  spec.models = {model_name};
  spec.workloads = {{workload::Dataset::kLongBench, rate}};
  spec.horizon = horizon;
  spec.seed = 21;
  spec.run = engine::RunOptions(1800.0);
  engine::SloSpec slo;
  slo.ttft = 20.0;  // long prompts: prefill alone takes seconds
  slo.tpot = 0.2;
  spec.run.slo = slo;
  engine::HetisConfig hetis_cfg;
  hetis_cfg.workload.decode_batch = 64;
  hetis_cfg.workload.mean_context = 2048;  // plan for long contexts
  spec.engine_options["hetis"] = engine::EngineOptions(hetis_cfg);

  {
    // Preview the exact trace the sweep will build (same spec fields).
    workload::TraceOptions topts;
    topts.dataset = spec.workloads.front().dataset;
    topts.rate = spec.workloads.front().rate;
    topts.horizon = spec.horizon;
    topts.seed = spec.seed;
    auto stats = workload::trace_stats(workload::build_trace(topts));
    std::printf("long-context summarization: %s @ %.1f req/s\n", model_name.c_str(), rate);
    std::printf("%zu requests, mean prompt %.0f tokens, mean summary %.0f tokens\n\n",
                stats.count, stats.mean_prompt, stats.mean_output);
  }

  std::printf("%-10s %12s %12s %10s %10s %10s %8s\n", "system", "finished", "norm(s/tok)",
              "TTFT p95", "TPOT p95", "SLO att.", "preempt");
  harness::run_sweep(spec, [](const harness::SweepRow& row) {
    const auto& rep = row.report;
    std::printf("%-10s %8zu/%-4zu %12.4f %10.3f %10.4f %9.1f%% %8d\n", rep.engine.c_str(),
                rep.finished, row.trace_requests, rep.norm_latency_mean, rep.ttft_p95,
                rep.tpot_p95, rep.slo_attainment * 100, rep.preemptions);
    if (rep.drain_timeout_hit) std::printf("  WARNING: %s\n", rep.warning().c_str());
  });
  return 0;
}
