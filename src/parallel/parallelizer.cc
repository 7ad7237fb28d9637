#include "parallel/parallelizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/log.h"
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

InstanceConfig Parallelizer::best_instance_config(const std::vector<TypeShare>& share,
                                                  const std::vector<int>& primaries,
                                                  bool drop_pruned, bool require_hosts_model,
                                                  const WorkloadProfile& profile, int d,
                                                  const PlanObjective& objective,
                                                  double* score_out,
                                                  PlanEstimate* estimate_out) const {
  *score_out = std::numeric_limits<double>::infinity();
  *estimate_out = PlanEstimate{};
  // One unified stage per type that keeps primaries, balanced layer split.
  std::vector<StageConfig> unified;
  std::vector<double> per_layer;
  for (std::size_t t = 0; t < share.size(); ++t) {
    const std::vector<int>& ids = share[t].device_ids;
    if (primaries[t] <= 0) continue;
    unified.emplace_back();
    unified.back().devices.assign(ids.end() - primaries[t], ids.end());
    per_layer.push_back(per_layer_cost_perfect(share[t].type, primaries[t], profile));
  }
  if (unified.empty()) return {};
  const std::vector<int> layer_split = balance_layers(model_->layers, per_layer);
  for (std::size_t k = 0; k < unified.size(); ++k) unified[k].layers = layer_split[k];
  const std::vector<int> workers =
      drop_pruned ? std::vector<int>{} : demoted_devices(share, primaries);

  // Intra-stage TP x PP enumeration over the cross product of per-stage
  // layouts; stage counts are small (<= 8 devices), so it is tiny.
  const auto layouts = stage_layouts(unified);
  InstanceConfig best;
  std::vector<std::size_t> choice(unified.size(), 0);
  do {
    InstanceConfig cfg = expand_layouts(unified, layouts, choice);
    cfg.attention_workers = workers;
    if (!require_hosts_model || evaluator_.hosts_model(cfg)) {
      PlanEstimate estimate = replicate_estimate(evaluator_.evaluate(cfg, profile), d);
      double score = objective.score(estimate);
      if (score < *score_out) {
        *score_out = score;
        *estimate_out = estimate;
        best = std::move(cfg);
      }
    }
  } while (next_layout(choice, layouts));
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

  const std::vector<TypeShare> by_type = devices_by_type(*cluster_);
  const std::vector<int> groupings = dp_groupings(by_type, opts_.allow_dp);

  // Per grouping: instance 0's winning config, its score and pruned count.
  std::vector<InstanceConfig> winners(groupings.size());
  std::vector<double> scores(groupings.size(), std::numeric_limits<double>::infinity());
  std::vector<int> pruned(groupings.size(), 0);
  for (std::size_t di = 0; di < groupings.size(); ++di) {
    const int d = groupings[di];
    const WorkloadProfile share_profile = instance_profile(profile, d);
    const std::vector<TypeShare> share = instance_share(by_type, d);
    if (share.empty()) continue;
    std::vector<int> all;
    for (const TypeShare& s : share) all.push_back(static_cast<int>(s.device_ids.size()));
    const int devices = std::accumulate(all.begin(), all.end(), 0);

    // --- Pruning ---
    // The Delta walk defines the paper's pruning frontier; it is the ONLY
    // candidate under the throughput objective (legacy behavior, byte
    // identical) and one of the candidates under depth-exploring ones.
    // Every C_p probe counts as an evaluated configuration.
    const std::vector<int> delta_primaries =
        opts_.enable_pruning
            ? delta_walk(*this, share, share_profile, opts_.delta, &diag_.configurations_evaluated)
            : all;

    // --- Intra-stage TP/PP search over the candidate prunings ---
    auto consider = [&](const std::vector<int>& primaries, bool drop_pruned,
                        bool require_hosts_model) {
      double score = std::numeric_limits<double>::infinity();
      PlanEstimate estimate;
      InstanceConfig inst = best_instance_config(share, primaries, drop_pruned,
                                                 require_hosts_model, share_profile, d,
                                                 objective, &score, &estimate);
      ++diag_.configurations_evaluated;
      if (!std::isfinite(score)) return;
      // KV feasibility filter: the d instances together must host the
      // workload's decode set.
      if (estimate.kv_capacity < profile.min_kv_bytes) return;
      if (score >= scores[di]) return;
      scores[di] = score;
      winners[di] = std::move(inst);
      pruned[di] = devices - std::accumulate(primaries.begin(), primaries.end(), 0);
    };

    // The Delta candidate keeps the legacy semantics (no parameter-fit
    // filter) so the default objective's plans stay byte-identical.
    consider(delta_primaries, /*drop_pruned=*/false, /*require_hosts_model=*/false);
    if (objective.explores_depth() && opts_.enable_pruning) {
      // Enumerate every pruning depth along the same low-end -> high-end
      // removal order, each in two placements: removed GPUs serve as
      // Attention workers (the paper's role) or leave the deployment
      // entirely (smaller device footprint -- what a cost-efficiency
      // objective wants credit for).
      for (int depth = 0; depth < devices; ++depth) {  // >= 1 primary stays
        const std::vector<int> primaries = prune_depth(all, depth);
        if (primaries != delta_primaries) {
          consider(primaries, /*drop_pruned=*/false, /*require_hosts_model=*/true);
        }
        if (depth > 0) consider(primaries, /*drop_pruned=*/true, /*require_hosts_model=*/true);
      }
    }
  }

  // Scores compare per-instance estimates scaled to the full d-wide plan.
  const std::size_t best = pick_grouping(scores);
  diag_.instances_considered = static_cast<int>(groupings.size());
  auto t1 = std::chrono::steady_clock::now();
  diag_.wall_time = std::chrono::duration<double>(t1 - t0).count();
  if (best == scores.size()) {
    throw std::runtime_error(
        "Parallelizer: no feasible configuration (KV capacity below min_kv_bytes?)");
  }
  diag_.pruned_devices = pruned[best];
  diag_.best_cost = scores[best];
  ParallelPlan plan = replicate_instance(winners[best], *cluster_, by_type, groupings[best]);
  HETIS_INFO("Parallelizer: " << plan.to_string(*cluster_, &diag_));
  return plan;
}

std::vector<TypeShare> devices_by_type(const hw::Cluster& cluster) {
  std::vector<TypeShare> by_type;
  for (hw::GpuType t : cluster.types_by_power_desc()) {
    std::vector<int> devs = cluster.devices_of_type(t);
    if (cluster.degraded()) {
      std::stable_sort(devs.begin(), devs.end(), [&](int a, int b) {
        return cluster.device_speed(a) < cluster.device_speed(b);
      });
    }
    by_type.push_back({t, std::move(devs)});
  }
  return by_type;
}

std::vector<int> dp_groupings(const std::vector<TypeShare>& by_type, bool allow_dp) {
  std::vector<int> groupings{1};
  if (!allow_dp) return groupings;
  int max_d = std::numeric_limits<int>::max();
  for (const TypeShare& s : by_type) {
    max_d = std::min(max_d, static_cast<int>(s.device_ids.size()));
  }
  for (int d = 2; d <= max_d; ++d) {
    if (std::all_of(by_type.begin(), by_type.end(), [d](const TypeShare& s) {
          return static_cast<int>(s.device_ids.size()) % d == 0;
        })) {
      groupings.push_back(d);
    }
  }
  return groupings;
}

std::vector<TypeShare> instance_share(const std::vector<TypeShare>& by_type, int d) {
  std::vector<TypeShare> share;
  for (const TypeShare& s : by_type) {
    const int per = static_cast<int>(s.device_ids.size()) / d;
    if (per == 0) continue;
    share.push_back({s.type, std::vector<int>(s.device_ids.begin(), s.device_ids.begin() + per)});
  }
  return share;
}

WorkloadProfile instance_profile(const WorkloadProfile& profile, int d) {
  WorkloadProfile share = profile;
  share.prefill_tokens = std::max<std::int64_t>(1, profile.prefill_tokens / d);
  share.decode_batch = std::max<std::int64_t>(1, profile.decode_batch / d);
  return share;
}

std::vector<int> prune_depth(std::vector<int> counts, int depth) {
  for (std::size_t t = counts.size(); t-- > 0 && depth > 0;) {
    const int take = std::min(counts[t], depth);
    counts[t] -= take;
    depth -= take;
  }
  return counts;
}

std::vector<int> demoted_devices(const std::vector<TypeShare>& share,
                                 const std::vector<int>& primaries) {
  std::vector<int> demoted;
  for (std::size_t t = share.size(); t-- > 0;) {
    const std::vector<int>& ids = share[t].device_ids;
    demoted.insert(demoted.end(), ids.begin(), ids.end() - primaries[t]);
  }
  return demoted;
}

std::vector<int> balance_layers(int layers, const std::vector<double>& per_layer_cost) {
  const std::size_t n = per_layer_cost.size();
  if (n == 0) return {};
  if (n == 1) return {layers};
  // Continuous optimum: split_k proportional to 1/cost_k.
  double inv_sum = 0.0;
  for (double c : per_layer_cost) inv_sum += 1.0 / c;
  std::vector<double> frac(n);
  std::vector<int> split(n);
  int assigned = 0;
  for (std::size_t k = 0; k < n; ++k) {
    double ideal = layers * (1.0 / per_layer_cost[k]) / inv_sum;
    split[k] = static_cast<int>(std::floor(ideal));
    frac[k] = ideal - split[k];
    assigned += split[k];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&frac](std::size_t a, std::size_t b) { return frac[a] > frac[b]; });
  for (std::size_t k = 0; assigned < layers; ++k) {
    split[order[k % n]] += 1;
    ++assigned;
  }
  // A stage with zero layers would be degenerate; give it one from the
  // largest stage (keeps every primary stage meaningful).
  for (std::size_t k = 0; k < n; ++k) {
    if (split[k] == 0) {
      std::size_t donor = static_cast<std::size_t>(
          std::max_element(split.begin(), split.end()) - split.begin());
      if (split[donor] > 1) {
        --split[donor];
        ++split[k];
      }
    }
  }
  return split;
}

std::vector<int> delta_walk(const Parallelizer& search, const std::vector<TypeShare>& share,
                            const WorkloadProfile& profile, double delta, int* probes) {
  std::vector<int> primaries;
  for (const TypeShare& s : share) primaries.push_back(static_cast<int>(s.device_ids.size()));
  auto cost = [&] {
    std::vector<std::pair<hw::GpuType, int>> counts;
    for (std::size_t t = 0; t < share.size(); ++t) counts.emplace_back(share[t].type, primaries[t]);
    return search.perfect_scaling_cost(counts, profile);
  };
  double current = cost();
  int remaining = std::accumulate(primaries.begin(), primaries.end(), 0);
  for (std::size_t t = share.size(); t-- > 0;) {  // low-end -> high-end
    while (primaries[t] > 0 && remaining > 1) {
      --primaries[t];
      const double without = cost();
      if (probes != nullptr) ++*probes;
      if (without / current <= 1.0 + delta) {
        current = without;
        --remaining;
        continue;
      }
      ++primaries[t];  // too costly: stop this type, go on with the next one up
      break;
    }
  }
  return primaries;
}

std::vector<std::vector<std::pair<int, int>>> stage_layouts(
    const std::vector<StageConfig>& unified) {
  std::vector<std::vector<std::pair<int, int>>> layouts(unified.size());
  for (std::size_t k = 0; k < unified.size(); ++k) {
    const int n = unified[k].tp();
    for (int tp = 1; tp <= n; ++tp) {
      if (n % tp != 0 || n / tp > unified[k].layers) continue;
      layouts[k].emplace_back(tp, n / tp);
    }
    if (layouts[k].empty()) layouts[k].emplace_back(n, 1);
  }
  return layouts;
}

InstanceConfig expand_layouts(const std::vector<StageConfig>& unified,
                              const std::vector<std::vector<std::pair<int, int>>>& layouts,
                              const std::vector<std::size_t>& choice) {
  InstanceConfig cfg;
  for (std::size_t k = 0; k < unified.size(); ++k) {
    const auto [tp, pp] = layouts[k][choice[k]];
    const std::vector<int>& devs = unified[k].devices;
    int layers_left = unified[k].layers;
    for (int sub = 0; sub < pp; ++sub) {
      StageConfig stage;
      stage.devices.assign(devs.begin() + sub * tp, devs.begin() + (sub + 1) * tp);
      stage.layers = layers_left / (pp - sub);
      layers_left -= stage.layers;
      cfg.stages.push_back(std::move(stage));
    }
  }
  return cfg;
}

bool next_layout(std::vector<std::size_t>& choice,
                 const std::vector<std::vector<std::pair<int, int>>>& layouts) {
  for (std::size_t k = 0; k < choice.size(); ++k) {
    if (++choice[k] < layouts[k].size()) return true;
    choice[k] = 0;
  }
  return false;
}

std::size_t pick_grouping(const std::vector<double>& scores) {
  // The 0.1% band must shrink the threshold toward better-than-best for
  // either sign: positive scores keep the legacy `* 0.999` expression
  // bit-for-bit, negative (maximizing) scores need `* 1.001` or the band
  // would ACCEPT slightly-worse ones.
  std::size_t best = scores.size();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) continue;
    if (best == scores.size()) {
      best = i;
      continue;
    }
    const double incumbent = scores[best];
    const double threshold = incumbent >= 0 ? incumbent * 0.999 : incumbent * 1.001;
    if (scores[i] < threshold) best = i;
  }
  return best;
}

ParallelPlan replicate_instance(const InstanceConfig& inst, const hw::Cluster& cluster,
                                const std::vector<TypeShare>& by_type, int d) {
  ParallelPlan plan;
  for (int rep = 0; rep < d; ++rep) {
    InstanceConfig copy = inst;
    auto shift = [&](int& dev) {
      const hw::GpuType t = cluster.device(dev).type;
      const std::vector<int>& all =
          std::find_if(by_type.begin(), by_type.end(), [t](const TypeShare& s) {
            return s.type == t;
          })->device_ids;
      const int per = static_cast<int>(all.size()) / d;
      const auto pos = std::find(all.begin(), all.end(), dev) - all.begin();
      dev = all[static_cast<std::size_t>(pos + rep * per)];
    };
    for (StageConfig& stage : copy.stages) {
      for (int& dev : stage.devices) shift(dev);
    }
    for (int& dev : copy.attention_workers) shift(dev);
    plan.instances.push_back(std::move(copy));
  }
  return plan;
}

}  // namespace hetis::parallel
