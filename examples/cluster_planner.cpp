// Cluster planner: runs the Parallelizer (§4.1) as a standalone planning
// tool over a user-described heterogeneous cluster and prints the selected
// primary-worker parallelism, the Attention-worker pool, the KV capacity,
// and the search diagnostics -- then validates the plan by serving a short
// ShareGPT trace through the registry front-end with the plan pinned via
// EngineOptions.
//
//   build/examples/cluster_planner [--objective NAME] [--planner NAME]
//                                  [model] [gpu=count ...]
//   build/examples/cluster_planner --help
//   e.g. build/examples/cluster_planner Llama-70B A100=4 3090=4 P100=4
//        build/examples/cluster_planner OPT-30B  H100=2 V100=8 T4=8
//        build/examples/cluster_planner --objective latency Llama-13B
//        build/examples/cluster_planner --planner flow Llama-70B H100=64 A100=96
//
// Without GPU arguments, plans the paper cluster.  --objective selects the
// search policy (throughput | latency | goodput_per_device, see
// parallel/objective.h); the default reproduces the paper's cheapest-cost
// search.  --planner selects the placement tier (exhaustive | flow | auto,
// see planner/planner.h); the default "auto" searches exhaustively on
// small clusters and switches to the LP/flow tier at datacenter scale.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "engine/engine.h"
#include "engine/exec.h"
#include "engine/instance.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "hw/topology.h"
#include "model/llm.h"
#include "parallel/objective.h"
#include "parallel/parallelizer.h"
#include "planner/planner.h"
#include "workload/trace.h"

namespace {

std::optional<hetis::hw::GpuType> gpu_by_name(const std::string& name) {
  using hetis::hw::GpuType;
  for (GpuType t : {GpuType::kA100_80G, GpuType::kRTX3090, GpuType::kP100, GpuType::kV100_32G,
                    GpuType::kT4, GpuType::kL4, GpuType::kA6000, GpuType::kH100_80G}) {
    if (name == hetis::hw::to_string(t)) return t;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;

  const cli::Args args =
      cli::Parser("cluster_planner")
          .option("--objective", "NAME",
                  "throughput | latency | goodput_per_device (default throughput)")
          .option("--planner", "NAME", "exhaustive | flow | auto (default auto)")
          .positional("model", "e.g. Llama-70B (default), Llama-13B, OPT-30B")
          .rest("gpu=count", "A100, 3090, P100, V100, T4, L4, A6000, H100 (default: paper cluster)")
          .parse(argc, argv);
  const std::string objective_name = args.text("--objective", "throughput");
  const std::string planner_name = args.text("--planner", "auto");

  auto known = [](const std::vector<std::string>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  if (!known(parallel::objective_names(), objective_name)) {
    args.fail("unknown objective '" + objective_name + "'");
  }
  if (!known(planner::planner_names(), planner_name)) {
    args.fail("unknown planner '" + planner_name + "'");
  }

  // A leading gpu=count means the model name was omitted.
  const std::string model_name = args.text("model", "Llama-70B");
  if (model_name.find('=') != std::string::npos) {
    args.fail("expected a model name before '" + model_name + "'");
  }
  const model::ModelSpec* model_ptr = nullptr;
  try {
    model_ptr = &model::model_by_name(model_name);
  } catch (const std::out_of_range&) {
    args.fail("unknown model '" + model_name + "'");
  }
  const model::ModelSpec& model = *model_ptr;

  hw::Cluster cluster;
  for (const std::string& arg : args.rest()) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) args.fail("expected gpu=count, got '" + arg + "'");
    const std::optional<hw::GpuType> type = gpu_by_name(arg.substr(0, eq));
    if (!type) args.fail("unknown GPU type '" + arg.substr(0, eq) + "'");
    const std::optional<std::size_t> count = cli::to_count(arg.substr(eq + 1));
    if (!count) args.fail("expected a positive count in '" + arg + "'");
    // 4 GPUs per host, like typical PCIe boxes.
    int host_idx = 0;
    for (std::size_t left = *count; left > 0;) {
      const int n = static_cast<int>(std::min<std::size_t>(4, left));
      cluster.add_host(arg.substr(0, eq) + "-" + std::to_string(host_idx++), *type, n);
      left -= static_cast<std::size_t>(n);
    }
  }
  if (args.rest().empty()) cluster = harness::cluster_by_name("paper");

  std::printf("model:   %s (%.1fB params, %.1f GB FP16)\n", model.name.c_str(),
              model.param_count() / 1e9, to_gb(model.param_bytes()));
  std::printf("cluster: %s\n\n", cluster.to_string().c_str());

  parallel::WorkloadProfile profile;
  profile.prefill_tokens = 4096;
  profile.decode_batch = 64;
  profile.mean_context = 512;
  profile.decode_weight = 256;

  parallel::ParallelizerOptions popts;
  popts.objective.name = objective_name;
  popts.planner = planner_name;
  auto planner = planner::make(planner_name, cluster, model, popts);
  parallel::ParallelPlan plan = planner->plan(profile);
  const parallel::SearchDiagnostics& diag = planner->diagnostics();
  const parallel::PlanEvaluator evaluator(cluster, model);
  const parallel::PlanEstimate estimate = evaluator.evaluate(plan, profile);

  std::printf("objective: %s, planner: %s\n", diag.objective.c_str(), diag.planner.c_str());
  std::printf("selected plan: %s\n\n", plan.to_string(cluster, &diag).c_str());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& inst = plan.instances[i];
    std::printf("instance %zu:\n", i);
    for (std::size_t k = 0; k < inst.stages.size(); ++k) {
      const auto& s = inst.stages[k];
      Bytes params = engine::stage_param_bytes_per_device(model, s, k == 0,
                                                          k + 1 == inst.stages.size());
      std::printf("  stage %zu: %d x %s (TP%zu), %d layers, %.1f GB params/device, "
                  "%.1f GB KV budget/device\n",
                  k, s.tp(), hw::to_string(cluster.device(s.devices.front()).type),
                  s.devices.size(), s.layers, to_gb(params),
                  to_gb(engine::kv_budget(cluster.device(s.devices.front()).spec(), params)));
    }
    if (!inst.attention_workers.empty()) {
      std::printf("  attention pool:");
      for (int dev : inst.attention_workers) {
        std::printf(" %s(%.0fGB)", hw::to_string(cluster.device(dev).type),
                    to_gib(engine::kv_budget(cluster.device(dev).spec(), 0)));
      }
      std::printf("\n");
    }
  }
  std::printf("\nsearch: %d configurations over %d grouping(s), %d device(s) pruned to the "
              "Attention pool, best score %.6g, %.1f ms wall time\n",
              diag.configurations_evaluated, diag.instances_considered, diag.pruned_devices,
              diag.best_cost, to_millis(diag.wall_time));
  std::printf("estimate: TTFT %.3fs, TPOT %.4fs, %.2f req/s over %d device(s) "
              "(%d instance(s), %.1f GB KV)\n",
              estimate.ttft, estimate.tpot, estimate.throughput, estimate.device_count,
              estimate.instances, to_gb(estimate.kv_capacity));

  // Validate the plan end to end: pin it into EngineOptions and serve a
  // short ShareGPT smoke trace through the registry front-end.
  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kShareGPT;
  topts.rate = 2.0;
  topts.horizon = 10.0;
  topts.seed = 11;
  auto trace = workload::build_trace(topts);

  engine::HetisConfig cfg;
  cfg.workload = profile;
  cfg.plan = plan;  // serve on the plan above; no second search
  auto eng = engine::make("hetis", cluster, model, cfg);
  engine::RunReport rep = engine::run_trace(*eng, trace, engine::RunOptions(300.0));

  std::printf("\nsmoke serve (ShareGPT @2.0 for 10s on this plan): %zu/%zu finished, "
              "norm latency %.4f s/token, TTFT p95 %.3fs\n",
              rep.finished, rep.arrived, rep.norm_latency_mean, rep.ttft_p95);
  if (rep.drain_timeout_hit) std::printf("WARNING: %s\n", rep.warning().c_str());
  return 0;
}
