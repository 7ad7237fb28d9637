#include "parallel/parallelizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/log.h"
#include "common/thread_pool.h"
#include "engine/instance.h"

namespace hetis::parallel {

std::string ParallelPlan::to_string(const hw::Cluster& cluster,
                                    const SearchDiagnostics* diag) const {
  std::ostringstream oss;
  oss << "ParallelPlan{" << instances.size() << " instance(s)";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    oss << "; I" << i << ": ";
    for (std::size_t k = 0; k < inst.stages.size(); ++k) {
      const auto& s = inst.stages[k];
      if (k) oss << " -> ";
      oss << hw::to_string(cluster.device(s.devices.front()).type) << "xTP" << s.tp() << "("
          << s.layers << "L)";
    }
    if (!inst.attention_workers.empty()) {
      oss << " + attn[";
      for (std::size_t w = 0; w < inst.attention_workers.size(); ++w) {
        if (w) oss << ",";
        oss << hw::to_string(cluster.device(inst.attention_workers[w]).type);
      }
      oss << "]";
    }
  }
  if (diag) {
    oss << "; search{planner=" << diag->planner << ", objective=" << diag->objective
        << ", evaluated=" << diag->configurations_evaluated
        << ", groupings=" << diag->instances_considered << ", pruned=" << diag->pruned_devices
        << ", best_score=" << diag->best_cost << ", wall=" << diag->wall_time << "s";
    if (diag->lp_solves > 0) {
      oss << ", lp_solves=" << diag->lp_solves << ", relaxation_gap=" << diag->relaxation_gap;
    }
    if (!diag->fallback_reason.empty()) oss << ", fallback=" << diag->fallback_reason;
    oss << "}";
  }
  oss << "}";
  return oss.str();
}

Parallelizer::Parallelizer(const hw::Cluster& cluster, const model::ModelSpec& model,
                           ParallelizerOptions opts)
    : cluster_(&cluster),
      model_(&model),
      opts_(std::move(opts)),
      exec_(cluster, model),
      evaluator_(exec_) {}

double Parallelizer::per_layer_cost_perfect(hw::GpuType type, int count,
                                            const WorkloadProfile& profile) const {
  // Perfect scaling: a stage of `count` devices runs the per-layer work
  // `count` times faster than one device (no collective overhead); the
  // paper adopts this assumption for the coarse grouping/pruning phase.
  const hw::GpuSpec& gpu = hw::gpu_spec(type);
  const costmodel::KernelModel& kernel = exec_.kernel();
  Seconds prefill = kernel.dense_layer_time(gpu, *model_, profile.prefill_tokens, count);
  std::vector<std::int64_t> prompt_lens(
      std::max<std::int64_t>(1, profile.prefill_tokens / std::max<std::int64_t>(1, profile.mean_context)),
      profile.mean_context);
  prefill += kernel.prefill_attention_time(gpu, *model_, prompt_lens,
                                           std::max(1, model_->heads / count));
  std::vector<std::int64_t> ctxs(static_cast<std::size_t>(profile.decode_batch),
                                 profile.mean_context);
  Seconds decode = kernel.dense_layer_time(gpu, *model_, profile.decode_batch, count) +
                   kernel.decode_attention_time(gpu, *model_, ctxs,
                                                std::max(1, model_->heads / count));
  return prefill + profile.decode_weight * decode;
}

double Parallelizer::perfect_scaling_cost(
    const std::vector<std::pair<hw::GpuType, int>>& stage_devices,
    const WorkloadProfile& profile) const {
  std::vector<double> per_layer;
  per_layer.reserve(stage_devices.size());
  for (const auto& [type, count] : stage_devices) {
    if (count <= 0) continue;
    per_layer.push_back(per_layer_cost_perfect(type, count, profile));
  }
  if (per_layer.empty()) return std::numeric_limits<double>::infinity();
  // Continuous balanced partition: min max_k n_k * t_k s.t. sum n_k = L is
  // attained when all n_k * t_k are equal, i.e. C_p = L / sum(1/t_k).
  // (The integer split is applied later; using the relaxation here keeps
  // the Delta-ratio pruning criterion stable.)
  double inv_sum = 0.0;
  for (double t : per_layer) inv_sum += 1.0 / t;
  return static_cast<double>(model_->layers) / inv_sum;
}

std::vector<int> Parallelizer::balance_layers(const std::vector<double>& per_layer_cost) const {
  const int total = model_->layers;
  const std::size_t n = per_layer_cost.size();
  if (n == 0) return {};
  if (n == 1) return {total};
  // Continuous optimum: layers_k proportional to 1/cost_k.
  double inv_sum = 0.0;
  for (double c : per_layer_cost) inv_sum += 1.0 / c;
  std::vector<double> frac(n);
  std::vector<int> layers(n);
  int assigned = 0;
  for (std::size_t k = 0; k < n; ++k) {
    double ideal = total * (1.0 / per_layer_cost[k]) / inv_sum;
    layers[k] = static_cast<int>(std::floor(ideal));
    frac[k] = ideal - layers[k];
    assigned += layers[k];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&frac](std::size_t a, std::size_t b) { return frac[a] > frac[b]; });
  for (std::size_t k = 0; assigned < total; ++k) {
    layers[order[k % n]] += 1;
    ++assigned;
  }
  // A stage with zero layers would be degenerate; give it one from the
  // largest stage (keeps every primary stage meaningful).
  for (std::size_t k = 0; k < n; ++k) {
    if (layers[k] == 0) {
      std::size_t donor = static_cast<std::size_t>(
          std::max_element(layers.begin(), layers.end()) - layers.begin());
      if (layers[donor] > 1) {
        --layers[donor];
        ++layers[k];
      }
    }
  }
  return layers;
}

InstanceConfig Parallelizer::best_instance_config(const PlanEvaluator& evaluator,
                                                  const std::vector<TypeShare>& shares,
                                                  const std::vector<int>& pruned,
                                                  bool drop_pruned, bool require_hosts_model,
                                                  const WorkloadProfile& profile, int d,
                                                  const PlanObjective& objective,
                                                  double* score_out,
                                                  PlanEstimate* estimate_out) const {
  // Remaining (non-pruned) devices per type keep pipeline-stage roles.
  std::vector<std::pair<hw::GpuType, std::vector<int>>> stage_groups;
  for (const auto& share : shares) {
    std::vector<int> devs;
    for (int id : share.device_ids) {
      if (std::find(pruned.begin(), pruned.end(), id) == pruned.end()) devs.push_back(id);
    }
    if (!devs.empty()) stage_groups.emplace_back(share.type, std::move(devs));
  }
  if (stage_groups.empty()) {
    *score_out = std::numeric_limits<double>::infinity();
    *estimate_out = PlanEstimate{};
    return {};
  }

  // Balanced layer split across the unified per-type stages.
  std::vector<double> per_layer;
  for (const auto& [type, devs] : stage_groups) {
    per_layer.push_back(per_layer_cost_perfect(type, static_cast<int>(devs.size()), profile));
  }
  std::vector<int> layer_split = balance_layers(per_layer);

  // Intra-stage TP x PP enumeration: each unified stage of n devices with L
  // layers may run as pp sub-stages of tp-way TP (tp * pp == n).
  double best_score = std::numeric_limits<double>::infinity();
  InstanceConfig best;
  PlanEstimate best_estimate;

  // Enumerate the cross product of per-stage (tp, pp) choices.  Stage
  // counts are small (<= 8 devices), so the product is tiny; evaluate
  // sequentially per instance (instances themselves are searched in
  // parallel by plan()).
  std::vector<std::vector<std::pair<int, int>>> options(stage_groups.size());
  for (std::size_t k = 0; k < stage_groups.size(); ++k) {
    int n = static_cast<int>(stage_groups[k].second.size());
    for (int tp = 1; tp <= n; ++tp) {
      if (n % tp != 0) continue;
      int pp = n / tp;
      if (pp > layer_split[k]) continue;  // cannot have empty sub-stages
      options[k].emplace_back(tp, pp);
    }
    if (options[k].empty()) options[k].emplace_back(n, 1);
  }

  std::vector<std::size_t> choice(stage_groups.size(), 0);
  for (;;) {
    InstanceConfig cfg;
    for (std::size_t k = 0; k < stage_groups.size(); ++k) {
      auto [tp, pp] = options[k][choice[k]];
      const auto& devs = stage_groups[k].second;
      int layers_left = layer_split[k];
      for (int sub = 0; sub < pp; ++sub) {
        StageConfig stage;
        stage.devices.assign(devs.begin() + sub * tp, devs.begin() + (sub + 1) * tp);
        stage.layers = layers_left / (pp - sub);
        layers_left -= stage.layers;
        cfg.stages.push_back(std::move(stage));
      }
    }
    if (!drop_pruned) cfg.attention_workers = pruned;
    if (!require_hosts_model || evaluator.hosts_model(cfg)) {
      PlanEstimate estimate = replicate_estimate(evaluator.evaluate(cfg, profile), d);
      double score = objective.score(estimate);
      if (score < best_score) {
        best_score = score;
        best = cfg;
        best_estimate = estimate;
      }
    }
    // Advance the mixed-radix counter.
    std::size_t k = 0;
    while (k < choice.size()) {
      if (++choice[k] < options[k].size()) break;
      choice[k] = 0;
      ++k;
    }
    if (k == choice.size()) break;
  }
  *score_out = best_score;
  *estimate_out = best_estimate;
  return best;
}

ParallelPlan Parallelizer::plan(const WorkloadProfile& profile) {
  std::unique_ptr<PlanObjective> objective = make_objective(opts_.objective);
  return plan(profile, *objective);
}

ParallelPlan Parallelizer::plan(const WorkloadProfile& profile, const PlanObjective& objective) {
  auto t0 = std::chrono::steady_clock::now();
  diag_ = SearchDiagnostics{};
  diag_.objective = objective.name();

  // Group devices by type, ordered high-end -> low-end.  Within a type,
  // degraded devices (condition overlay, hw/topology.h) sort FIRST so the
  // Delta-walk prunes a straggler before its healthy siblings -- i.e. a
  // slowed A100 is the first A100 demoted to an Attention worker.  Stable
  // sort keeps id order on a healthy cluster, so plans are byte-identical
  // when no degradation is present.
  std::vector<hw::GpuType> types = cluster_->types_by_power_desc();
  std::map<hw::GpuType, std::vector<int>> by_type;
  for (hw::GpuType t : types) {
    std::vector<int> devs = cluster_->devices_of_type(t);
    if (cluster_->degraded()) {
      std::stable_sort(devs.begin(), devs.end(), [&](int a, int b) {
        return cluster_->device_speed(a) < cluster_->device_speed(b);
      });
    }
    by_type[t] = std::move(devs);
  }

  // DP instance counts d must divide every type's count evenly.
  std::vector<int> candidates_d{1};
  if (opts_.allow_dp) {
    int max_d = std::numeric_limits<int>::max();
    for (const auto& [t, devs] : by_type) {
      max_d = std::min(max_d, static_cast<int>(devs.size()));
    }
    for (int d = 2; d <= max_d; ++d) {
      bool divides = true;
      for (const auto& [t, devs] : by_type) {
        if (static_cast<int>(devs.size()) % d != 0) divides = false;
      }
      if (divides) candidates_d.push_back(d);
    }
  }

  struct Candidate {
    ParallelPlan plan;
    double score = std::numeric_limits<double>::infinity();
    PlanEstimate estimate;
    int pruned = 0;
  };
  std::vector<Candidate> results(candidates_d.size());

  ThreadPool pool(opts_.search_threads == 0 ? 0 : opts_.search_threads);
  std::atomic<int> evaluated{0};

  // ExecModel's dense-stage memo is unsynchronised, so chunks share no
  // evaluator: the first reuses the Parallelizer's own, every other chunk
  // prices through a private one.  A one-thread search builds nothing extra.
  pool.parallel_for_chunked(0, candidates_d.size(), [&](std::size_t lo, std::size_t hi) {
    std::optional<PlanEvaluator> private_evaluator;
    const PlanEvaluator& evaluator =
        lo == 0 ? evaluator_ : private_evaluator.emplace(*cluster_, *model_);
    for (std::size_t di = lo; di < hi; ++di) {
      const int d = candidates_d[di];
      // Per-instance workload share.
      WorkloadProfile share = profile;
      share.prefill_tokens = std::max<std::int64_t>(1, profile.prefill_tokens / d);
      share.decode_batch = std::max<std::int64_t>(1, profile.decode_batch / d);

      // Instance 0's device share; other instances are symmetric.
      std::vector<TypeShare> shares;
      for (hw::GpuType t : types) {
        const auto& devs = by_type.at(t);
        int per = static_cast<int>(devs.size()) / d;
        if (per == 0) continue;
        TypeShare ts;
        ts.type = t;
        ts.device_ids.assign(devs.begin(), devs.begin() + per);
        shares.push_back(std::move(ts));
      }
      if (shares.empty()) continue;

      // --- Pruning (lowest-end first, Delta criterion) ---
      // The Delta walk defines the paper's pruning frontier; it is the ONLY
      // candidate under the throughput objective (legacy behavior, byte
      // identical) and one of the candidates under depth-exploring ones.
      std::vector<int> delta_pruned;
      auto counts_of = [&](const std::vector<int>& pr) {
        std::vector<std::pair<hw::GpuType, int>> counts;
        for (const auto& s : shares) {
          int n = 0;
          for (int id : s.device_ids) {
            if (std::find(pr.begin(), pr.end(), id) == pr.end()) ++n;
          }
          counts.emplace_back(s.type, n);
        }
        return counts;
      };
      if (opts_.enable_pruning) {
        double current = perfect_scaling_cost(counts_of(delta_pruned), share);
        // low-end -> high-end: iterate shares in reverse power order.
        for (auto it = shares.rbegin(); it != shares.rend(); ++it) {
          for (int id : it->device_ids) {
            std::vector<int> attempt = delta_pruned;
            attempt.push_back(id);
            auto counts = counts_of(attempt);
            int remaining = 0;
            for (const auto& [t, n] : counts) remaining += n;
            if (remaining == 0) break;  // keep at least one primary device
            double without = perfect_scaling_cost(counts, share);
            ++evaluated;
            if (without / current <= 1.0 + opts_.delta) {
              delta_pruned = std::move(attempt);
              current = without;
            } else {
              break;  // removing more of this (or higher) type only hurts
            }
          }
        }
      }

      // --- Intra-stage TP/PP search over the candidate prunings ---
      Candidate best;
      auto consider = [&](const std::vector<int>& pruned, bool drop_pruned,
                          bool require_hosts_model) {
        double score = std::numeric_limits<double>::infinity();
        PlanEstimate estimate;
        InstanceConfig inst =
            best_instance_config(evaluator, shares, pruned, drop_pruned, require_hosts_model,
                                 share, d, objective, &score, &estimate);
        ++evaluated;
        if (!std::isfinite(score)) return;
        // KV feasibility filter: the d instances together must host the
        // workload's decode set.
        if (estimate.kv_capacity < profile.min_kv_bytes) return;
        if (score >= best.score) return;
        best.score = score;
        best.estimate = estimate;
        best.pruned = static_cast<int>(pruned.size());
        best.plan.instances.assign(1, std::move(inst));
      };

      // The Delta candidate keeps the legacy semantics (no parameter-fit
      // filter) so the default objective's plans stay byte-identical.
      consider(delta_pruned, /*drop_pruned=*/false, /*require_hosts_model=*/false);
      if (objective.explores_depth() && opts_.enable_pruning) {
        // Enumerate every pruning depth along the same low-end -> high-end
        // removal order, each in two placements: removed GPUs serve as
        // Attention workers (the paper's role) or leave the deployment
        // entirely (smaller device footprint -- what a cost-efficiency
        // objective wants credit for).
        std::vector<int> order;
        for (auto it = shares.rbegin(); it != shares.rend(); ++it) {
          order.insert(order.end(), it->device_ids.begin(), it->device_ids.end());
        }
        for (std::size_t depth = 0; depth < order.size(); ++depth) {  // >= 1 primary stays
          const std::vector<int> pruned(order.begin(),
                                        order.begin() + static_cast<std::ptrdiff_t>(depth));
          if (pruned != delta_pruned) {
            consider(pruned, /*drop_pruned=*/false, /*require_hosts_model=*/true);
          }
          if (!pruned.empty()) consider(pruned, /*drop_pruned=*/true, /*require_hosts_model=*/true);
        }
      }
      if (best.plan.instances.empty()) continue;

      // Replicate across the d instances with each instance's own devices.
      const InstanceConfig inst = best.plan.instances.front();
      best.plan.instances.clear();
      for (int rep = 0; rep < d; ++rep) {
        InstanceConfig copy = inst;
        // Map instance-0 device ids onto replica `rep` (per-type offset).
        for (auto& stage : copy.stages) {
          for (int& dev : stage.devices) {
            hw::GpuType t = cluster_->device(dev).type;
            const auto& all = by_type.at(t);
            int per = static_cast<int>(all.size()) / d;
            auto pos = std::find(all.begin(), all.end(), dev) - all.begin();
            dev = all[static_cast<std::size_t>(pos + rep * per)];
          }
        }
        for (int& dev : copy.attention_workers) {
          hw::GpuType t = cluster_->device(dev).type;
          const auto& all = by_type.at(t);
          int per = static_cast<int>(all.size()) / d;
          auto pos = std::find(all.begin(), all.end(), dev) - all.begin();
          dev = all[static_cast<std::size_t>(pos + rep * per)];
        }
        best.plan.instances.push_back(std::move(copy));
      }
      results[di] = std::move(best);
    }
  });

  // Pick the best-scoring candidate (scores compare per-instance estimates
  // scaled to the full d-wide plan; candidates within 0.1% of the best keep
  // the earlier -- narrower -- grouping).  The 0.1% band must shrink the
  // threshold toward better-than-best for either sign: positive scores keep
  // the legacy `* 0.999` expression bit-for-bit, negative (maximizing)
  // scores need `* 1.001` or the band would ACCEPT slightly-worse ones.
  std::size_t best = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].plan.instances.empty()) continue;
    if (best == results.size()) {
      best = i;
      continue;
    }
    const double incumbent = results[best].score;
    const double threshold = incumbent >= 0 ? incumbent * 0.999 : incumbent * 1.001;
    if (results[i].score < threshold) best = i;
  }
  diag_.configurations_evaluated = evaluated.load();
  diag_.instances_considered = static_cast<int>(candidates_d.size());
  auto t1 = std::chrono::steady_clock::now();
  diag_.wall_time = std::chrono::duration<double>(t1 - t0).count();
  if (best == results.size()) {
    throw std::runtime_error(
        "Parallelizer: no feasible configuration (KV capacity below min_kv_bytes?)");
  }
  diag_.pruned_devices = results[best].pruned;
  diag_.best_cost = results[best].score;
  HETIS_INFO("Parallelizer: " << results[best].plan.to_string(*cluster_, &diag_));
  return results[best].plan;
}

}  // namespace hetis::parallel
