// Quickstart: serve a ShareGPT-like workload on the paper's heterogeneous
// cluster with Hetis and print the headline metrics.
//
//   build/examples/quickstart [rate] [horizon_seconds]
//
// This walks the unified serving front-end: cluster preset, model preset,
// trace generation, engine construction by registry name (Profiler +
// Parallelizer run inside), a RunOptions-configured run with SLO targets
// and a live RunObserver, and the extended report.
#include <cstdio>

#include "common/cli.h"
#include "engine/engine.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "workload/trace.h"

namespace {

/// Streams run progress off the simulation clock: one line per 50 finishes.
class ProgressObserver : public hetis::engine::RunObserver {
 public:
  void on_finish(hetis::workload::RequestId id, hetis::Seconds t) override {
    (void)id;
    ++finished_;
    if (finished_ % 50 == 0) {
      std::printf("  [t=%7.2fs] %zu requests finished, %d preemptions so far\n", t, finished_,
                  preempted_);
    }
  }
  void on_preempt(hetis::workload::RequestId id, hetis::Seconds t) override {
    (void)id;
    (void)t;
    ++preempted_;
  }

 private:
  std::size_t finished_ = 0;
  int preempted_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;

  const cli::Args args = cli::Parser("quickstart")
                             .positional("rate", "arrival rate in req/s, > 0 (default 4)")
                             .positional("horizon", "trace length in seconds, > 0 (default 60)")
                             .parse(argc, argv);
  const double rate = args.positive("rate", 4.0);
  const double horizon = args.positive("horizon", 60.0);

  // 1. Describe the hardware: the paper's cluster (4xA100, 4x3090, 4xP100).
  hw::Cluster cluster = harness::cluster_by_name("paper");
  std::printf("cluster: %s\n", cluster.to_string().c_str());

  // 2. Pick a model.
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  std::printf("model:   %s\n", model.to_string().c_str());

  // 3. Generate a workload trace.
  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kShareGPT;
  topts.rate = rate;
  topts.horizon = horizon;
  topts.seed = 42;
  auto trace = workload::build_trace(topts);
  auto stats = workload::trace_stats(trace);
  std::printf("trace:   %zu requests @%.1f req/s (mean prompt %.0f, mean output %.0f)\n",
              stats.count, rate, stats.mean_prompt, stats.mean_output);

  // 4. Build Hetis by name (Profiler + Parallelizer run inside).
  engine::HetisConfig cfg;
  cfg.workload.decode_batch = 64;
  cfg.workload.mean_context = 512;
  auto eng = engine::make("hetis", cluster, model, cfg);

  // 5. Serve under explicit run options: drain cap, chat-style SLOs, and a
  //    progress observer streaming per-request lifecycle events.
  ProgressObserver progress;
  engine::RunOptions ropts(600.0);
  engine::SloSpec slo;
  slo.ttft = 2.0;   // interactive chat targets
  slo.tpot = 0.15;
  ropts.slo = slo;
  ropts.observer = &progress;

  std::printf("\nserving with %s...\n", eng->name().c_str());
  engine::RunReport rep = engine::run_trace(*eng, trace, ropts);

  // 6. Report.
  std::printf("\n=== results ===\n");
  std::printf("finished            %zu / %zu requests\n", rep.finished, rep.arrived);
  std::printf("norm latency (mean) %.4f s/token\n", rep.norm_latency_mean);
  std::printf("TTFT  (p95)         %.3f s\n", rep.ttft_p95);
  std::printf("TPOT  (p95)         %.4f s\n", rep.tpot_p95);
  std::printf("SLO attainment      %.1f%% (TTFT<=%.1fs: %.1f%%, TPOT<=%.2fs: %.1f%%)\n",
              rep.slo_attainment * 100, slo.ttft, rep.ttft_attainment * 100, slo.tpot,
              rep.tpot_attainment * 100);
  std::printf("goodput             %.2f req/s (throughput %.2f req/s)\n", rep.goodput,
              rep.throughput);
  std::printf("usable KV cache     %.1f GB\n", to_gb(rep.usable_kv));
  if (rep.drain_timeout_hit) std::printf("WARNING: %s\n", rep.warning().c_str());
  return 0;
}
