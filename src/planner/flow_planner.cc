#include "planner/flow_planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
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

  // Pruning demotes from the FRONT of a share and primaries come from its
  // END, so the oracle anchors below reproduce the exhaustive tier's exact
  // device sets.
  const std::vector<parallel::TypeShare> by_type = parallel::devices_by_type(*cluster_);
  const std::vector<int> candidates_d = parallel::dp_groupings(by_type, opts_.allow_dp);
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
    const parallel::WorkloadProfile share = parallel::instance_profile(profile, d);

    // --- 1. Type aggregation over instance 0's device share ---
    const std::vector<parallel::TypeShare> aggs = parallel::instance_share(by_type, d);
    if (aggs.empty()) continue;
    std::vector<TypeAggregate> relaxed;
    for (const parallel::TypeShare& a : aggs) {
      // Leave 10% of device memory as activation/runtime headroom; the
      // evaluator's hosts_model() check is the exact arbiter downstream.
      relaxed.push_back({static_cast<int>(a.device_ids.size()),
                         oracle_.perfect_scaling_cost({{a.type, 1}}, share) / L,
                         0.9 * static_cast<double>(hw::gpu_spec(a.type).memory) / layer_bytes});
    }
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

    // Builds the unified-stage candidate for per-type primary counts `f`,
    // priced per layer as C_p of the type's primaries over L; stages the
    // split leaves without layers keep their devices idle.
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
      const std::vector<int> layers = parallel::balance_layers(L, per_layer);
      for (std::size_t k = 0; k < used.size(); ++k) {
        if (layers[k] == 0) continue;
        const std::vector<int>& ids = aggs[used[k]].device_ids;
        cfg.stages.emplace_back();
        cfg.stages.back().devices.assign(ids.end() - f[used[k]], ids.end());
        cfg.stages.back().layers = layers[k];
      }
      if (!cfg.stages.empty() && keep_workers) {
        cfg.attention_workers = parallel::demoted_devices(aggs, f);
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
        best.pruned += static_cast<int>(aggs[t].device_ids.size()) - f[t];
      }
    };

    // --- Oracle anchors ---
    std::vector<int> all(T);
    for (std::size_t t = 0; t < T; ++t) all[t] = static_cast<int>(aggs[t].device_ids.size());
    consider(all, /*keep_workers=*/false, /*require_hosts_model=*/false);

    if (opts_.enable_pruning) {
      // The paper's Delta walk; unlike the exhaustive tier, its probes are
      // not counted as evaluated configurations.
      consider(parallel::delta_walk(oracle_, aggs, share, opts_.delta, nullptr),
               /*keep_workers=*/true, /*require_hosts_model=*/false);

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
          const std::vector<int> fd = parallel::prune_depth(all, depth);
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
              rounded[t] = std::min(static_cast<int>(aggs[t].device_ids.size()),
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
      const std::vector<StageConfig> unified = best.inst.stages;
      const std::vector<int> workers = best.inst.attention_workers;
      const auto layouts = parallel::stage_layouts(unified);
      std::size_t combos = 1;
      for (const auto& options : layouts) combos *= options.size();
      auto try_choice = [&](const std::vector<std::size_t>& choice) {
        InstanceConfig cfg = parallel::expand_layouts(unified, layouts, choice);
        cfg.attention_workers = workers;
        double score = kInf;
        PlanEstimate est;
        score_config(cfg, &score, &est);
        if (score < best.score) {
          best.score = score;
          best.est = est;
          best.inst = std::move(cfg);
        }
      };
      std::vector<std::size_t> choice(unified.size(), 0);
      if (combos <= kMaxCrossProduct) {
        do {
          try_choice(choice);
        } while (parallel::next_layout(choice, layouts));
      } else {
        // Coordinate descent: refine one stage at a time, repeat until a
        // full pass stops improving (at most 4 passes).
        for (int pass = 0; pass < 4; ++pass) {
          double before = best.score;
          for (std::size_t k = 0; k < layouts.size(); ++k) {
            std::size_t best_opt = choice[k];
            for (std::size_t o = 0; o < layouts[k].size(); ++o) {
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

  // --- Grouping selection: the exhaustive tier's 0.1% tie band ---
  std::vector<double> scores;
  for (const Winner& w : per_d) scores.push_back(w.score);
  const std::size_t best_i = parallel::pick_grouping(scores);

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

  parallel::ParallelPlan plan =
      parallel::replicate_instance(win.inst, *cluster_, by_type, win.d);
  diag_.wall_time =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  HETIS_INFO("FlowPlanner: " << plan.to_string(*cluster_, &diag_));
  return plan;
}

}  // namespace hetis::planner
