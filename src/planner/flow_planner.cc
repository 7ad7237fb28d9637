#include "planner/flow_planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.h"

namespace hetis::planner {

namespace {

using parallel::InstanceConfig;
using parallel::PlanEstimate;
using parallel::StageConfig;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The relaxation ladder: each rounded candidate trades bottleneck cost
/// (C* scaled by 1 + delta) for fewer primaries, sweeping the pruning-depth
/// axis the exhaustive search enumerates device by device.
constexpr double kLadder[] = {0.0, 0.05, 0.15, 0.3, 0.6, 1.0};

/// TP x PP cross products larger than this refine by coordinate descent
/// instead of full enumeration (d = 1 on a 256-GPU pod has thousands of
/// combinations; the descent visits a few dozen).
constexpr std::size_t kMaxCrossProduct = 1024;

// One GPU type's per-instance device share.
struct TypeShare {
  hw::GpuType type;
  std::vector<int> share_ids;  // instance-0 device ids, cluster order
};

// Largest-remainder layer split proportional to stage speed.  Identical
// arithmetic to the exhaustive search's balance step so the oracle-anchor
// candidate carries the very same layer counts.
std::vector<int> balance_layers(int total, const std::vector<double>& per_layer_cost) {
  const std::size_t n = per_layer_cost.size();
  if (n == 0) return {};
  if (n == 1) return {total};
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

/// Layers one device of type `a` carries at bottleneck cost C: 1 / k_t with
/// k_t = max(tau_t / C, 1 / m_t); 0 for a type that can host nothing.
double layers_per_device(const TypeAggregate& a, double cost) {
  if (a.count <= 0 || !std::isfinite(a.tau)) return 0.0;
  return std::min(cost / a.tau, a.room);
}

}  // namespace

double min_bottleneck_cost(const std::vector<TypeAggregate>& types, int layers) {
  // g(C) = sum_t n_t * min(C / tau_t, m_t) is concave and piecewise linear
  // with a kink at each tau_t * m_t, where type t turns memory-bound.
  // Between kinks g(C) = held + C * speed: `held` counts the layers of the
  // memory-bound types, `speed` sums n_t / tau_t over the others.
  std::vector<std::size_t> order;
  for (std::size_t t = 0; t < types.size(); ++t) {
    if (layers_per_device(types[t], kInf) > 0.0) order.push_back(t);
  }
  auto kink = [&types](std::size_t t) { return types[t].tau * types[t].room; };
  std::stable_sort(order.begin(), order.end(),
                   [&kink](std::size_t a, std::size_t b) { return kink(a) < kink(b); });
  std::vector<double> speed(order.size() + 1, 0.0);  // suffix sums
  for (std::size_t j = order.size(); j-- > 0;) {
    speed[j] = speed[j + 1] + types[order[j]].count / types[order[j]].tau;
  }
  double held = 0.0;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const double cost = (layers - held) / speed[j];
    if (cost <= kink(order[j])) return cost;
    held += types[order[j]].count * types[order[j]].room;
  }
  return kInf;  // every type is memory-bound and still short of L layers
}

std::vector<double> cheapest_primaries(const std::vector<TypeAggregate>& types, int layers,
                                       double cost) {
  std::vector<double> carry(types.size());
  std::vector<std::size_t> order;
  for (std::size_t t = 0; t < types.size(); ++t) {
    carry[t] = layers_per_device(types[t], cost);
    if (carry[t] > 0.0) order.push_back(t);
  }
  // Fractional knapsack: cover L layers cheapest per-layer cost
  // tau_t * k_t = tau_t / carry_t first.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return types[a].tau / carry[a] < types[b].tau / carry[b];
  });
  std::vector<double> f(types.size(), 0.0);
  double left = layers;
  double used = 0.0;
  for (std::size_t t : order) {
    if (left <= 0.0) break;
    f[t] = std::min(static_cast<double>(types[t].count), left / carry[t]);
    left -= f[t] * carry[t];
    used += f[t];
  }
  if (left > 1e-12 * layers) return {};
  if (used >= 1.0) return f;

  // A fraction of a device covers L, so the sum f >= 1 row binds.  The
  // optimum with sum f = 1 is a vertex: one type whose single device
  // carries L, or two types s and t with carry_s > L > carry_t mixed so the
  // layer row is tight.  Ties keep the knapsack's order.
  double best = kInf;
  for (std::size_t s : order) {
    if (carry[s] < layers) continue;
    if (types[s].tau < best) {
      best = types[s].tau;
      std::fill(f.begin(), f.end(), 0.0);
      f[s] = 1.0;
    }
    for (std::size_t t : order) {
      if (carry[t] >= layers) continue;
      const double w = (layers - carry[t]) / (carry[s] - carry[t]);
      const double mix = w * types[s].tau + (1.0 - w) * types[t].tau;
      if (mix < best) {
        best = mix;
        std::fill(f.begin(), f.end(), 0.0);
        f[s] = w;
        f[t] = 1.0 - w;
      }
    }
  }
  return f;
}

FlowPlanner::FlowPlanner(const hw::Cluster& cluster, const model::ModelSpec& model,
                         parallel::ParallelizerOptions opts)
    : cluster_(&cluster),
      model_(&model),
      opts_(std::move(opts)),
      oracle_(cluster, model, opts_) {}

parallel::ParallelPlan FlowPlanner::plan(const parallel::WorkloadProfile& profile) {
  const auto t0 = std::chrono::steady_clock::now();
  diag_ = parallel::SearchDiagnostics{};
  diag_.planner = "flow";
  std::unique_ptr<parallel::PlanObjective> objective = parallel::make_objective(opts_.objective);
  diag_.objective = objective->name();

  const parallel::PlanEvaluator& evaluator = oracle_.evaluator();
  const int L = model_->layers;
  const double layer_bytes = static_cast<double>(model_->layer_param_bytes());

  // Within a type, degraded devices (condition overlay) sort first; the
  // share layout below takes primaries from the END of the share and
  // demotes from the FRONT, so a straggler is the first of its type to
  // become an Attention worker -- mirroring the exhaustive tier's walk
  // order.  Stable, so healthy clusters keep id order byte-for-byte.
  const std::vector<hw::GpuType> types = cluster_->types_by_power_desc();
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

  // DP instance counts d that divide every type's count (as exhaustive).
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
  diag_.instances_considered = static_cast<int>(candidates_d.size());

  struct Winner {
    InstanceConfig inst;
    double score = kInf;
    PlanEstimate est;
    int d = 1;
    int pruned = 0;
    double c_star = 0;  // relaxed bound C* on the bottleneck stage cost
  };
  std::vector<Winner> per_d(candidates_d.size());

  for (std::size_t di = 0; di < candidates_d.size(); ++di) {
    const int d = candidates_d[di];
    parallel::WorkloadProfile share = profile;
    share.prefill_tokens = std::max<std::int64_t>(1, profile.prefill_tokens / d);
    share.decode_batch = std::max<std::int64_t>(1, profile.decode_batch / d);

    // --- 1. Type aggregation over instance 0's device share ---
    std::vector<TypeShare> aggs;
    std::vector<TypeAggregate> relaxed;
    for (hw::GpuType t : types) {
      const auto& devs = by_type.at(t);
      int per = static_cast<int>(devs.size()) / d;
      if (per == 0) continue;
      aggs.push_back({t, std::vector<int>(devs.begin(), devs.begin() + per)});
      // Leave 10% of device memory as activation/runtime headroom; the
      // evaluator's hosts_model() check is the exact arbiter downstream.
      relaxed.push_back({per, oracle_.perfect_scaling_cost({{t, 1}}, share) / L,
                         0.9 * static_cast<double>(hw::gpu_spec(t).memory) / layer_bytes});
    }
    if (aggs.empty()) continue;
    const std::size_t T = aggs.size();

    Winner& best = per_d[di];
    best.d = d;

    // Exact scoring: replicate instance 0's estimate to the d-wide plan and
    // apply the same KV feasibility filter as the exhaustive search.
    auto score_config = [&](const InstanceConfig& cfg, double* score_out,
                            PlanEstimate* est_out) {
      ++diag_.configurations_evaluated;
      PlanEstimate est = parallel::replicate_estimate(evaluator.evaluate(cfg, share), d);
      *est_out = est;
      *score_out = est.kv_capacity < profile.min_kv_bytes ? kInf : objective->score(est);
    };

    // Builds the unified-stage candidate for per-type primary counts `f`.
    // Convention shared with the exhaustive search: pruning removes the
    // FIRST ids of a type's share, low-end types first, so the oracle
    // anchor reproduces the Delta walk's exact device sets.
    auto build_config = [&](const std::vector<int>& f, bool keep_workers) {
      InstanceConfig cfg;
      std::vector<std::size_t> used;
      std::vector<double> per_layer;
      for (std::size_t t = 0; t < T; ++t) {
        if (f[t] <= 0) continue;
        used.push_back(t);
        per_layer.push_back(oracle_.perfect_scaling_cost({{aggs[t].type, f[t]}}, share) / L);
      }
      if (used.empty()) return cfg;  // no primaries: infeasible marker
      std::vector<int> layers = balance_layers(L, per_layer);
      for (std::size_t k = 0; k < used.size(); ++k) {
        if (layers[k] == 0) continue;  // degenerate split; devices stay idle
        const TypeShare& a = aggs[used[k]];
        StageConfig stage;
        stage.devices.assign(a.share_ids.end() - f[used[k]], a.share_ids.end());
        stage.layers = layers[k];
        cfg.stages.push_back(std::move(stage));
      }
      if (cfg.stages.empty()) return cfg;
      if (keep_workers) {
        // Low-end types first, front-of-share ids first: the walk order.
        for (std::size_t t = T; t-- > 0;) {
          const TypeShare& a = aggs[t];
          int demoted = static_cast<int>(a.share_ids.size()) - f[t];
          cfg.attention_workers.insert(cfg.attention_workers.end(), a.share_ids.begin(),
                                       a.share_ids.begin() + demoted);
        }
      }
      return cfg;
    };

    std::set<std::pair<std::vector<int>, bool>> seen;
    auto consider = [&](const std::vector<int>& f, bool keep_workers, bool require_hosts_model) {
      if (!seen.insert({f, keep_workers}).second) return;
      InstanceConfig cfg = build_config(f, keep_workers);
      if (cfg.stages.empty()) return;
      if (require_hosts_model && !evaluator.hosts_model(cfg)) return;
      double score = kInf;
      PlanEstimate est;
      score_config(cfg, &score, &est);
      if (score >= best.score) return;
      best.score = score;
      best.est = est;
      best.inst = std::move(cfg);
      best.pruned = 0;
      for (std::size_t t = 0; t < T; ++t) {
        best.pruned += static_cast<int>(aggs[t].share_ids.size()) - f[t];
      }
    };

    // --- Oracle anchors ---
    std::vector<int> all(T);
    for (std::size_t t = 0; t < T; ++t) all[t] = static_cast<int>(aggs[t].share_ids.size());
    consider(all, /*keep_workers=*/false, /*require_hosts_model=*/false);

    if (opts_.enable_pruning) {
      // The paper's Delta walk on the aggregated counts: remove devices
      // low-end first while the perfect-scaling cost degrades by <= Delta.
      std::vector<int> f = all;
      auto counts = [&](const std::vector<int>& fv) {
        std::vector<std::pair<hw::GpuType, int>> c;
        for (std::size_t t = 0; t < T; ++t) c.emplace_back(aggs[t].type, fv[t]);
        return c;
      };
      double current = oracle_.perfect_scaling_cost(counts(f), share);
      for (std::size_t t = T; t-- > 0;) {
        while (f[t] > 0) {
          std::vector<int> attempt = f;
          --attempt[t];
          int remaining = std::accumulate(attempt.begin(), attempt.end(), 0);
          if (remaining == 0) break;
          double without = oracle_.perfect_scaling_cost(counts(attempt), share);
          if (without / current <= 1.0 + opts_.delta) {
            f = std::move(attempt);
            current = without;
          } else {
            break;
          }
        }
      }
      consider(f, /*keep_workers=*/true, /*require_hosts_model=*/false);

      // Dense anchor sweep along the oracle's low-end-first removal order.
      // Depth-exploring objectives (latency, goodput) often win by demoting
      // or dropping ALL of a low-end tier -- far past the Delta frontier and
      // invisible to the bottleneck LP, whose ladder only relaxes cost.  On
      // shares the exhaustive tier could afford we anchor every per-device
      // depth (keeping the oracle-equivalence bound tight); at datacenter
      // scale only whole-tier removals are anchored and the LP ladder
      // interpolates between them.
      if (objective->explores_depth()) {
        const int n_share = std::accumulate(all.begin(), all.end(), 0);
        std::vector<int> depths;
        if (n_share <= kAutoExhaustiveMaxDevices) {
          for (int depth = 1; depth < n_share; ++depth) depths.push_back(depth);
        } else {
          int cum = 0;
          for (std::size_t t = T; t-- > 1;) {
            cum += all[t];
            depths.push_back(cum);
          }
        }
        for (int depth : depths) {
          std::vector<int> fd = all;
          int left = depth;
          for (std::size_t t = T; t-- > 0 && left > 0;) {
            int take = std::min(fd[t], left);
            fd[t] -= take;
            left -= take;
          }
          consider(fd, /*keep_workers=*/true, /*require_hosts_model=*/true);
          consider(fd, /*keep_workers=*/false, /*require_hosts_model=*/true);
        }
      }

      // --- 2-3. The relaxed bottleneck bound C* + the rounding ladder ---
      // A grouping whose memory cannot hold the model has no C* and no
      // ladder.
      const double c_star = min_bottleneck_cost(relaxed, L);
      if (std::isfinite(c_star)) {
        best.c_star = c_star;
        for (double delta : kLadder) {
          const std::vector<double> f = cheapest_primaries(relaxed, L, c_star * (1.0 + delta));
          ++diag_.lp_solves;
          if (f.empty()) continue;
          std::vector<int> rounded(T, 0);
          int total = 0;
          for (std::size_t t = 0; t < T; ++t) {
            if (f[t] > 1e-6) {
              rounded[t] = std::min(static_cast<int>(aggs[t].share_ids.size()),
                                    static_cast<int>(std::ceil(f[t] - 1e-6)));
            }
            total += rounded[t];
          }
          if (total == 0) continue;
          consider(rounded, /*keep_workers=*/true, /*require_hosts_model=*/true);
          consider(rounded, /*keep_workers=*/false, /*require_hosts_model=*/true);
        }
      }
    }

    if (best.inst.stages.empty()) continue;

    // --- 4. TP x PP refinement of this grouping's winner ---
    // The candidates above run each type as one TP-wide stage; the true
    // optimum may split a stage into pp sub-stages of narrower TP.  Stage
    // groups re-derive from the winner (devices keep their order).
    {
      const InstanceConfig base = best.inst;
      const std::vector<int> worker_ids = base.attention_workers;
      std::vector<std::vector<int>> devs;
      std::vector<int> layer_split;
      for (const StageConfig& s : base.stages) {
        devs.push_back(s.devices);
        layer_split.push_back(s.layers);
      }
      std::vector<std::vector<std::pair<int, int>>> options(devs.size());
      std::size_t combos = 1;
      for (std::size_t k = 0; k < devs.size(); ++k) {
        int n = static_cast<int>(devs[k].size());
        for (int tp = 1; tp <= n; ++tp) {
          if (n % tp != 0) continue;
          int pp = n / tp;
          if (pp > layer_split[k]) continue;
          options[k].emplace_back(tp, pp);
        }
        if (options[k].empty()) options[k].emplace_back(n, 1);
        combos *= options[k].size();
      }
      auto build_choice = [&](const std::vector<std::size_t>& choice) {
        InstanceConfig cfg;
        for (std::size_t k = 0; k < devs.size(); ++k) {
          auto [tp, pp] = options[k][choice[k]];
          int layers_left = layer_split[k];
          for (int sub = 0; sub < pp; ++sub) {
            StageConfig stage;
            stage.devices.assign(devs[k].begin() + sub * tp, devs[k].begin() + (sub + 1) * tp);
            stage.layers = layers_left / (pp - sub);
            layers_left -= stage.layers;
            cfg.stages.push_back(std::move(stage));
          }
        }
        cfg.attention_workers = worker_ids;
        return cfg;
      };
      auto try_choice = [&](const std::vector<std::size_t>& choice) {
        InstanceConfig cfg = build_choice(choice);
        double score = kInf;
        PlanEstimate est;
        score_config(cfg, &score, &est);
        if (score < best.score) {
          best.score = score;
          best.est = est;
          best.inst = std::move(cfg);
        }
      };
      std::vector<std::size_t> choice(devs.size(), 0);
      if (combos <= kMaxCrossProduct) {
        for (;;) {
          try_choice(choice);
          std::size_t k = 0;
          while (k < choice.size()) {
            if (++choice[k] < options[k].size()) break;
            choice[k] = 0;
            ++k;
          }
          if (k == choice.size()) break;
        }
      } else {
        // Coordinate descent: refine one stage at a time, repeat until a
        // full pass stops improving (at most 4 passes).
        for (int pass = 0; pass < 4; ++pass) {
          double before = best.score;
          for (std::size_t k = 0; k < options.size(); ++k) {
            std::size_t best_opt = choice[k];
            for (std::size_t o = 0; o < options[k].size(); ++o) {
              choice[k] = o;
              double prev = best.score;
              try_choice(choice);
              if (best.score < prev) best_opt = o;
            }
            choice[k] = best_opt;
          }
          if (best.score >= before * 0.9999) break;
        }
      }
    }
  }

  // --- Grouping selection: exhaustive's 0.1% tie band, earlier d wins ---
  std::size_t best_i = per_d.size();
  for (std::size_t i = 0; i < per_d.size(); ++i) {
    if (per_d[i].inst.stages.empty() || !std::isfinite(per_d[i].score)) continue;
    if (best_i == per_d.size()) {
      best_i = i;
      continue;
    }
    const double incumbent = per_d[best_i].score;
    const double threshold = incumbent >= 0 ? incumbent * 0.999 : incumbent * 1.001;
    if (per_d[i].score < threshold) best_i = i;
  }

  if (best_i == per_d.size()) {
    // Nothing survived rounding + KV filtering: defer to the oracle, which
    // enumerates the exact candidate space the LP abstracted away.
    diag_.fallback_reason = "no feasible flow candidate (rounding/KV filter)";
    const auto saved = diag_;
    parallel::ParallelPlan plan = oracle_.plan(profile, *objective);
    diag_ = oracle_.diagnostics();
    diag_.planner = "flow";
    diag_.lp_solves = saved.lp_solves;
    diag_.fallback_reason = saved.fallback_reason;
    diag_.configurations_evaluated += saved.configurations_evaluated;
    diag_.wall_time =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return plan;
  }

  const Winner& win = per_d[best_i];
  diag_.pruned_devices = win.pruned;
  diag_.best_cost = win.score;
  if (win.c_star > 0) {
    diag_.relaxation_gap =
        std::max(0.0, win.est.iteration_cost() / win.c_star - 1.0);
  }

  // Replicate instance 0 across the d instances (per-type block offsets, as
  // the exhaustive search does).
  parallel::ParallelPlan plan;
  const int d = win.d;
  for (int rep = 0; rep < d; ++rep) {
    InstanceConfig copy = win.inst;
    auto shift = [&](int& dev) {
      hw::GpuType t = cluster_->device(dev).type;
      const auto& all = by_type.at(t);
      int per = static_cast<int>(all.size()) / d;
      auto pos = std::find(all.begin(), all.end(), dev) - all.begin();
      dev = all[static_cast<std::size_t>(pos + rep * per)];
    };
    for (auto& stage : copy.stages) {
      for (int& dev : stage.devices) shift(dev);
    }
    for (int& dev : copy.attention_workers) shift(dev);
    plan.instances.push_back(std::move(copy));
  }
  diag_.wall_time =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  HETIS_INFO("FlowPlanner: " << plan.to_string(*cluster_, &diag_));
  return plan;
}

}  // namespace hetis::planner
