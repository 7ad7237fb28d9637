// Planner-tier tests: registry semantics, flow-vs-exhaustive oracle
// equivalence on every small preset x objective, the flow tier's
// closed-form relaxation against a vertex enumeration, remap round-trips
// and the datacenter presets the flow tier exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/hexgen.h"
#include "baselines/splitwise.h"
#include "common/rng.h"
#include "harness/presets.h"
#include "hw/gpu.h"
#include "model/llm.h"
#include "parallel/evaluator.h"
#include "parallel/objective.h"
#include "parallel/parallelizer.h"
#include "planner/flow_planner.h"
#include "planner/planner.h"

namespace hetis {
namespace {

const std::vector<std::string> kSmallPresets = {"ablation", "budget", "paper"};
const std::vector<std::string> kObjectives = {"throughput", "latency", "goodput_per_device"};

parallel::WorkloadProfile default_profile() { return parallel::WorkloadProfile{}; }

double plan_score(const hw::Cluster& cluster, const model::ModelSpec& model,
                  const parallel::ParallelPlan& plan, const std::string& objective) {
  parallel::PlanEvaluator evaluator(cluster, model);
  std::unique_ptr<parallel::PlanObjective> obj = parallel::make_objective(objective);
  return obj->score(evaluator.evaluate(plan, default_profile()));
}

// --- registry -----------------------------------------------------------

TEST(PlannerRegistry, NamesSortedAndValidated) {
  const auto names = planner::planner_names();
  EXPECT_EQ(names, (std::vector<std::string>{"auto", "exhaustive", "flow"}));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& n : names) EXPECT_NO_THROW(planner::validate(n));
  EXPECT_NO_THROW(planner::validate(""));  // "" = the options default ("auto")
  try {
    planner::validate("simulated-annealing");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulated-annealing"), std::string::npos);
    for (const auto& n : names) EXPECT_NE(msg.find("'" + n + "'"), std::string::npos);
  }
}

TEST(PlannerRegistry, AutoPicksByDeviceCount) {
  const model::ModelSpec& model = model::llama_13b();
  parallel::ParallelizerOptions opts;
  hw::Cluster small = harness::cluster_by_name("paper");
  ASSERT_LE(small.num_devices(), planner::kAutoExhaustiveMaxDevices);
  EXPECT_EQ(planner::make("auto", small, model, opts)->name(), "exhaustive");
  EXPECT_EQ(planner::make("", small, model, opts)->name(), "exhaustive");

  hw::Cluster big = harness::cluster_by_name("dc64");
  ASSERT_GT(big.num_devices(), planner::kAutoExhaustiveMaxDevices);
  EXPECT_EQ(planner::make("auto", big, model::llama_70b(), opts)->name(), "flow");
  EXPECT_EQ(planner::make("exhaustive", big, model::llama_70b(), opts)->name(), "exhaustive");
  EXPECT_EQ(planner::make("flow", small, model, opts)->name(), "flow");
  EXPECT_THROW(planner::make("nope", small, model, opts), std::invalid_argument);
}

// --- oracle equivalence -------------------------------------------------

// The flow tier must stay within 5% of the exhaustive oracle on every
// small preset under every objective, judged by the SAME PlanEvaluator
// both planners score candidates with (the ISSUE's acceptance bound).
TEST(FlowPlannerOracle, WithinFivePercentOnEverySmallPreset) {
  for (const std::string& preset : kSmallPresets) {
    hw::Cluster cluster = harness::cluster_by_name(preset);
    ASSERT_LE(cluster.num_devices(), 12) << preset;
    const model::ModelSpec& model = model::llama_13b();
    for (const std::string& objective : kObjectives) {
      parallel::ParallelizerOptions opts;
      opts.objective.name = objective;

      planner::ExhaustivePlanner oracle(cluster, model, opts);
      parallel::ParallelPlan oracle_plan = oracle.plan(default_profile());
      planner::FlowPlanner flow(cluster, model, opts);
      parallel::ParallelPlan flow_plan = flow.plan(default_profile());

      const double oracle_score = plan_score(cluster, model, oracle_plan, objective);
      const double flow_score = plan_score(cluster, model, flow_plan, objective);
      // Lower is better (goodput scores are negative); 5% of |oracle|.
      EXPECT_LE(flow_score, oracle_score + 0.05 * std::abs(oracle_score) + 1e-12)
          << preset << " x " << objective << ": flow=" << flow_score
          << " oracle=" << oracle_score;
    }
  }
}

TEST(FlowPlannerOracle, DiagnosticsDescribeTheSearch) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::llama_13b();
  parallel::ParallelizerOptions opts;
  planner::FlowPlanner flow(cluster, model, opts);
  parallel::ParallelPlan plan = flow.plan(default_profile());
  const parallel::SearchDiagnostics& diag = flow.diagnostics();
  EXPECT_EQ(diag.planner, "flow");
  EXPECT_EQ(diag.objective, "throughput");
  // One primaries solve per ladder rung in every grouping that can hold the
  // model; the plan's iteration cost sits above the relaxed bound C*.
  EXPECT_GT(diag.lp_solves, 0u);
  EXPECT_EQ(diag.lp_solves % 6, 0u);
  EXPECT_GT(diag.configurations_evaluated, 0);
  EXPECT_GT(diag.relaxation_gap, 0.0);
  EXPECT_TRUE(std::isfinite(diag.relaxation_gap));
  EXPECT_TRUE(diag.fallback_reason.empty()) << diag.fallback_reason;

  const std::string s = plan.to_string(cluster, &diag);
  EXPECT_NE(s.find("planner=flow"), std::string::npos) << s;
  EXPECT_NE(s.find("lp_solves="), std::string::npos) << s;
  EXPECT_NE(s.find("relaxation_gap="), std::string::npos) << s;
  EXPECT_EQ(s.find("pivots"), std::string::npos) << s;
  // No fallback fired, so the reason must stay out of the summary.
  EXPECT_EQ(s.find("fallback="), std::string::npos) << s;

  planner::ExhaustivePlanner exhaustive(cluster, model, opts);
  EXPECT_EQ(exhaustive.diagnostics().planner, "exhaustive");
}

// --- closed-form relaxation --------------------------------------------

using planner::TypeAggregate;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Layers one device of `a` carries at cost C; nothing for an unusable type.
double carry(const TypeAggregate& a, double cost) {
  return std::isfinite(a.tau) ? std::min(cost / a.tau, a.room) : 0.0;
}

/// g(C): layers all devices of every type cover at cost C.
double coverage(const std::vector<TypeAggregate>& types, double cost) {
  double g = 0.0;
  for (const TypeAggregate& a : types) g += a.count * carry(a, cost);
  return g;
}

/// sum_t tau_t * f_t over the types that host something.
double primaries_cost(const std::vector<TypeAggregate>& types, const std::vector<double>& f) {
  double c = 0.0;
  for (std::size_t t = 0; t < types.size(); ++t) {
    if (f[t] > 0.0) c += types[t].tau * f[t];
  }
  return c;
}

/// Every row of the primaries LP holds at f within `rel`: bounds, the
/// layer row sum f_t * carry_t >= L and the device row sum f_t >= 1.
bool primaries_feasible(const std::vector<TypeAggregate>& types, int layers, double cost,
                        const std::vector<double>& f, double rel) {
  if (f.size() != types.size()) return false;
  double covered = 0.0, devices = 0.0;
  for (std::size_t t = 0; t < types.size(); ++t) {
    if (f[t] < 0.0 || f[t] > types[t].count * (1.0 + rel)) return false;
    if (!std::isfinite(types[t].tau) && f[t] != 0.0) return false;
    covered += f[t] * carry(types[t], cost);
    devices += f[t];
  }
  return covered >= layers * (1.0 - rel) && devices >= 1.0 - rel;
}

/// Optimum of the primaries LP by vertex enumeration: every type sits at 0
/// or n_t except at most two fractional ones, solved from the tight rows
/// (one fractional type: either row; two: both).  +inf when infeasible.
double brute_force_primaries(const std::vector<TypeAggregate>& types, int layers, double cost) {
  const std::size_t n = types.size();
  std::size_t states = 1;
  for (std::size_t t = 0; t < n; ++t) states *= 3;
  double best = kInf;
  auto offer = [&](const std::vector<double>& f) {
    if (primaries_feasible(types, layers, cost, f, 1e-12)) {
      best = std::min(best, primaries_cost(types, f));
    }
  };
  for (std::size_t code = 0; code < states; ++code) {
    std::vector<double> f(n, 0.0);
    std::vector<std::size_t> frac;
    double held = 0.0, used = 0.0;
    std::size_t c = code;
    for (std::size_t t = 0; t < n; ++t, c /= 3) {
      if (c % 3 == 1) {
        f[t] = types[t].count;
        held += f[t] * carry(types[t], cost);
        used += f[t];
      } else if (c % 3 == 2) {
        frac.push_back(t);
      }
    }
    if (frac.empty()) {
      offer(f);
    } else if (frac.size() == 1) {
      const std::size_t s = frac[0];
      if (carry(types[s], cost) > 0.0) {
        f[s] = (layers - held) / carry(types[s], cost);
        offer(f);
      }
      f[s] = 1.0 - used;
      offer(f);
    } else if (frac.size() == 2) {
      const std::size_t s = frac[0], t = frac[1];
      const double cs = carry(types[s], cost), ct = carry(types[t], cost);
      if (cs == ct) continue;
      f[s] = ((layers - held) - ct * (1.0 - used)) / (cs - ct);
      f[t] = (1.0 - used) - f[s];
      offer(f);
    }
  }
  return best;
}

/// A seeded per-instance share of T types (counts 1..8, per-layer costs
/// 1e-4..1e-2 s, L = 80 layers) of one of six kinds: time-bound (memory
/// never binds), memory-bound, memory-infeasible (the devices hold 30-95%
/// of L), one unusable type (tau = +inf, with ample memory it must not
/// lend), tied per-layer costs, or few devices with room for L on a single
/// device, where the sum f >= 1 row binds once C passes L * tau.
std::vector<TypeAggregate> random_share(Rng& rng, std::size_t n, int kind, int layers) {
  std::vector<TypeAggregate> types(n);
  double devices = 0.0;
  for (TypeAggregate& a : types) {
    a.count = static_cast<int>(rng.uniform_int(1, 8));
    a.tau = std::pow(10.0, rng.uniform(-4.0, -2.0));
    a.room = rng.uniform(2.0, 4.0) * layers;
    devices += a.count;
  }
  switch (kind) {
    case 1:  // memory-bound: together the types hold 1.05x..2x the model
      for (TypeAggregate& a : types) a.room = rng.uniform(0.2, 1.0) * layers / devices;
      types.back().room += 1.05 * layers / types.back().count;
      break;
    case 2:  // memory-infeasible
      for (TypeAggregate& a : types) a.room = rng.uniform(0.3, 0.95) * layers / devices;
      break;
    case 3:  // an unusable type among usable, partly memory-bound ones
      for (TypeAggregate& a : types) {
        if (rng.bernoulli(0.5)) a.room = rng.uniform(0.1, 1.0) * layers / a.count;
      }
      types[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1))].tau = kInf;
      break;
    case 4:  // ties: every type a copy of type 0's cost and room
      for (TypeAggregate& a : types) {
        a.tau = types[0].tau;
        a.room = types[0].room;
      }
      break;
    case 5:  // one or two devices per type, some able to hold L alone
      for (TypeAggregate& a : types) {
        a.count = static_cast<int>(rng.uniform_int(1, 2));
        a.room = rng.uniform(0.2, 3.0) * layers;
      }
      break;
    default:  // time-bound
      break;
  }
  return types;
}

TEST(FlowRelaxation, ClosedFormsMatchVertexEnumeration) {
  constexpr int kLayers = 80;
  // The planner's ladder plus far rungs, where one device hosts the model.
  const double deltas[] = {0.0, 0.05, 0.15, 0.3, 0.6, 1.0, 3.0, 30.0, 300.0};
  Rng rng(20251116);
  int bounded = 0, unbounded = 0, solved = 0, one_device = 0, two_type_mix = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 4);
    const int kind = (trial / 4) % 6;
    const std::vector<TypeAggregate> types = random_share(rng, n, kind, kLayers);
    SCOPED_TRACE("trial " + std::to_string(trial) + " kind " + std::to_string(kind));

    const double c_star = planner::min_bottleneck_cost(types, kLayers);
    if (!std::isfinite(c_star)) {
      // Only a memory shortfall leaves C* unbounded, and no cost is enough.
      EXPECT_LT(coverage(types, kInf), kLayers);
      EXPECT_TRUE(planner::cheapest_primaries(types, kLayers, 1e30).empty());
      ++unbounded;
      continue;
    }
    ++bounded;
    ASSERT_GT(c_star, 0.0);
    EXPECT_GE(coverage(types, c_star), kLayers * (1.0 - 1e-12));
    EXPECT_LT(coverage(types, c_star * (1.0 - 1e-9)), kLayers);
    EXPECT_TRUE(planner::cheapest_primaries(types, kLayers, 0.5 * c_star).empty());
    // A one-ulp shortfall at delta = 0 must not drop the candidate.
    EXPECT_FALSE(
        planner::cheapest_primaries(types, kLayers, std::nextafter(c_star, 0.0)).empty());

    for (double delta : deltas) {
      const double cost = c_star * (1.0 + delta);
      const std::vector<double> f = planner::cheapest_primaries(types, kLayers, cost);
      const bool feasible = primaries_feasible(types, kLayers, cost, f, 1e-12);
      EXPECT_TRUE(feasible) << "delta " << delta << (f.empty() ? ": no answer" : "");
      if (!feasible) continue;
      const double reference = brute_force_primaries(types, kLayers, cost);
      EXPECT_NEAR(primaries_cost(types, f), reference, 1e-9 * reference) << "delta " << delta;
      ++solved;
      double used = 0.0;
      int hosts = 0;
      for (double x : f) {
        used += x;
        hosts += x > 0.0;
      }
      if (std::abs(used - 1.0) < 1e-12) {
        ++one_device;
        two_type_mix += hosts == 2;
      }
    }
  }
  // Every branch was exercised: unbounded groupings, the knapsack, and the
  // binding sum f >= 1 row with one type and with a two-type mix.
  EXPECT_GT(unbounded, 300);
  EXPECT_GT(bounded, 2000);
  EXPECT_GT(one_device, 1000);
  EXPECT_GT(two_type_mix, 100);
  RecordProperty("solved", solved);
  RecordProperty("two_type_mix", two_type_mix);
}

TEST(FlowRelaxation, OneA100HostsLlama13BOnOneDevice) {
  // Llama-13B fits on one A100, so past C = L * tau a fraction of the
  // device would carry every layer; the sum f >= 1 row keeps a whole one.
  const model::ModelSpec& m = model::llama_13b();
  const double room = 0.9 * static_cast<double>(hw::gpu_spec(hw::GpuType::kA100_80G).memory) /
                      static_cast<double>(m.layer_param_bytes());
  ASSERT_GT(room, m.layers);
  const std::vector<TypeAggregate> types = {{1, 1e-3, room}};
  const double c_star = planner::min_bottleneck_cost(types, m.layers);
  EXPECT_DOUBLE_EQ(c_star, m.layers * 1e-3);
  for (double scale : {1.0, 1.5, 2.0, 10.0}) {
    const std::vector<double> f = planner::cheapest_primaries(types, m.layers, scale * c_star);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_DOUBLE_EQ(f[0], 1.0) << scale;
  }
}

TEST(FlowRelaxation, UnusableTypeHostsNothing) {
  // A type that cannot run a layer (tau = +inf) lends neither its memory to
  // C* nor a device to the primaries, however cheap its count looks.
  const std::vector<TypeAggregate> types = {{4, kInf, 1000.0}, {2, 1e-3, 30.0}};
  EXPECT_DOUBLE_EQ(planner::min_bottleneck_cost(types, 40), 20e-3);
  const std::vector<double> f = planner::cheapest_primaries(types, 40, 30e-3);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 40.0 / 30.0);
  EXPECT_EQ(planner::min_bottleneck_cost(types, 61), kInf);
}

TEST(FlowPlannerOracle, GroupingThatCannotHoldTheModelGetsNoLadder) {
  // paper's d = 4 grouping is one A100, one 3090 and one P100: 90% of their
  // memory holds ~65.5 of Llama-70B's 80 layers, so it has no C* and only
  // d = 1 and d = 2 run the six-rung ladder.
  const model::ModelSpec& m = model::llama_70b();
  const double layer_bytes = static_cast<double>(m.layer_param_bytes());
  std::vector<TypeAggregate> share;
  for (hw::GpuType t : {hw::GpuType::kA100_80G, hw::GpuType::kRTX3090, hw::GpuType::kP100}) {
    share.push_back({1, 1e-3, 0.9 * static_cast<double>(hw::gpu_spec(t).memory) / layer_bytes});
  }
  EXPECT_NEAR(coverage(share, kInf), 65.5, 0.5);
  EXPECT_EQ(planner::min_bottleneck_cost(share, m.layers), kInf);

  hw::Cluster cluster = harness::cluster_by_name("paper");
  parallel::ParallelizerOptions opts;
  planner::FlowPlanner flow(cluster, m, opts);
  flow.plan(default_profile());
  EXPECT_EQ(flow.diagnostics().instances_considered, 3);
  EXPECT_EQ(flow.diagnostics().lp_solves, 12u);
}

// --- device-id remapping ------------------------------------------------

// A flow plan computed on a subcluster must remap cleanly onto the parent:
// forward through original_ids, then back through the inverse, recovering
// the sub-cluster plan exactly (the elastic replan path does the forward
// half on every churn event).
TEST(FlowPlannerRemap, RoundTripsThroughSubcluster) {
  hw::Cluster parent = harness::cluster_by_name("paper");
  // Drop one device of each host tier: a churn-shaped survivor set.
  std::vector<int> survivors;
  for (int id = 0; id < parent.num_devices(); ++id) {
    if (id % 4 != 1) survivors.push_back(id);
  }
  std::vector<int> original_ids;
  hw::Cluster sub = parent.subcluster(survivors, &original_ids);

  parallel::ParallelizerOptions opts;
  planner::FlowPlanner flow(sub, model::llama_13b(), opts);
  parallel::ParallelPlan plan = flow.plan(default_profile());

  parallel::ParallelPlan mapped = plan;
  parallel::remap_device_ids(mapped, original_ids);
  std::map<int, int> inverse;  // parent id -> sub id
  for (std::size_t i = 0; i < original_ids.size(); ++i) {
    inverse[original_ids[i]] = static_cast<int>(i);
  }
  ASSERT_EQ(mapped.instances.size(), plan.instances.size());
  for (std::size_t i = 0; i < mapped.instances.size(); ++i) {
    const auto& m = mapped.instances[i];
    const auto& p = plan.instances[i];
    ASSERT_EQ(m.stages.size(), p.stages.size());
    for (std::size_t k = 0; k < m.stages.size(); ++k) {
      ASSERT_EQ(m.stages[k].devices.size(), p.stages[k].devices.size());
      EXPECT_EQ(m.stages[k].layers, p.stages[k].layers);
      for (std::size_t j = 0; j < m.stages[k].devices.size(); ++j) {
        const int parent_id = m.stages[k].devices[j];
        // Same silicon on both sides of the mapping...
        EXPECT_EQ(parent.device(parent_id).type, sub.device(p.stages[k].devices[j]).type);
        // ...and the inverse map recovers the sub-cluster id exactly.
        EXPECT_EQ(inverse.at(parent_id), p.stages[k].devices[j]);
      }
    }
    ASSERT_EQ(m.attention_workers.size(), p.attention_workers.size());
    for (std::size_t j = 0; j < m.attention_workers.size(); ++j) {
      EXPECT_EQ(inverse.at(m.attention_workers[j]), p.attention_workers[j]);
    }
  }
}

// --- datacenter scale ---------------------------------------------------

TEST(FlowPlannerScale, PlansDatacenterPresets) {
  for (const std::string& preset : {std::string("dc64"), std::string("dc128")}) {
    hw::Cluster cluster = harness::cluster_by_name(preset);
    parallel::ParallelizerOptions opts;
    planner::FlowPlanner flow(cluster, model::llama_70b(), opts);
    parallel::ParallelPlan plan = flow.plan(default_profile());
    ASSERT_FALSE(plan.instances.empty()) << preset;
    std::vector<bool> used(static_cast<std::size_t>(cluster.num_devices()), false);
    for (const auto& inst : plan.instances) {
      EXPECT_EQ(inst.total_layers(), model::llama_70b().layers);
      for (int dev : inst.primary_devices()) {
        ASSERT_GE(dev, 0);
        ASSERT_LT(dev, cluster.num_devices());
        EXPECT_FALSE(used[static_cast<std::size_t>(dev)]) << "device " << dev << " reused";
        used[static_cast<std::size_t>(dev)] = true;
      }
      for (int dev : inst.attention_workers) {
        ASSERT_GE(dev, 0);
        ASSERT_LT(dev, cluster.num_devices());
        EXPECT_FALSE(used[static_cast<std::size_t>(dev)]) << "device " << dev << " reused";
        used[static_cast<std::size_t>(dev)] = true;
      }
    }
    EXPECT_TRUE(flow.diagnostics().fallback_reason.empty());
  }
}

// The dc* presets mix interconnect tiers through per-host overrides; the
// planner's cost model must see NVLink on the H100 hosts and PCIe 3.0 on
// the T4 hosts, and subcluster() must carry the overrides along.
TEST(DatacenterPresets, HeterogeneousFabrics) {
  hw::Cluster dc = harness::cluster_by_name("dc128");
  EXPECT_EQ(dc.num_devices(), 128);
  double nvlink_bw = 0, pcie3_bw = 0, default_bw = 0;
  for (const auto& host : dc.hosts()) {
    const hw::Link& l = dc.host_intra_link(host.id);
    const hw::GpuType t = dc.device(host.device_ids.front()).type;
    if (t == hw::GpuType::kH100_80G) {
      nvlink_bw = l.bandwidth;
    } else if (t == hw::GpuType::kT4) {
      pcie3_bw = l.bandwidth;
    } else {
      default_bw = l.bandwidth;
    }
  }
  EXPECT_GT(nvlink_bw, default_bw);
  EXPECT_GT(default_bw, pcie3_bw);

  // link() consults the override for same-host pairs.
  const auto h100s = dc.devices_of_type(hw::GpuType::kH100_80G);
  ASSERT_GE(h100s.size(), 2u);
  EXPECT_DOUBLE_EQ(dc.link(h100s[0], h100s[1]).bandwidth, nvlink_bw);

  // Overrides survive subcluster() under renumbered host ids.
  const auto t4s = dc.devices_of_type(hw::GpuType::kT4);
  std::vector<int> keep = {h100s[0], h100s[1], t4s[0], t4s[1]};
  hw::Cluster sub = dc.subcluster(keep);
  EXPECT_DOUBLE_EQ(sub.link(0, 1).bandwidth, nvlink_bw);
  EXPECT_DOUBLE_EQ(sub.link(2, 3).bandwidth, pcie3_bw);
  EXPECT_THROW(dc.host_intra_link(-1), std::invalid_argument);
  EXPECT_THROW(dc.set_host_intra_link(10'000, hw::Link{}), std::invalid_argument);
}

// --- plan pins ----------------------------------------------------------

// Folds a planner's whole decision -- the plan and every deterministic
// diagnostic (wall time excluded) -- into one FNV-1a hash per cell, so a
// refactor of the search can prove that no plan and no count moved.
class PlanHash {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) hash_ = (hash_ ^ ((w >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  void real(double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    word(u);
  }
  void text(const std::string& s) {
    word(s.size());
    for (char c : s) word(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t pin_cell(const std::string& tier, const hw::Cluster& cluster,
                       const model::ModelSpec& model, const std::string& objective) {
  parallel::ParallelizerOptions opts;
  opts.objective.name = objective;
  std::unique_ptr<planner::Planner> p = planner::make(tier, cluster, model, opts);
  PlanHash h;
  try {
    const parallel::ParallelPlan plan = p->plan(default_profile());
    const parallel::SearchDiagnostics& diag = p->diagnostics();
    h.text(plan.to_string(cluster));
    h.word(static_cast<std::uint64_t>(diag.configurations_evaluated));
    h.word(static_cast<std::uint64_t>(diag.instances_considered));
    h.word(static_cast<std::uint64_t>(diag.pruned_devices));
    h.real(diag.best_cost);
    h.real(diag.relaxation_gap);
    h.word(diag.lp_solves);
    h.text(diag.fallback_reason);
  } catch (const std::runtime_error& e) {
    h.text(std::string("throws: ") + e.what());
  }
  return h.value();
}

// One hash per (tier, preset) over Llama-13B and Llama-70B x every
// objective x {healthy, the last device of the fastest type at 40% speed}.
// The exhaustive tier plans the presets bench_search_overhead gives it an
// oracle row on (<= 128 devices).
TEST(PlanPin, BothTiersMatchTheRecordedPlans) {
  // Recorded from the thread-pooled search and the flow planner's own
  // copies of the shared steps, before both moved onto src/parallel/'s
  // free functions.
  const std::map<std::string, std::uint64_t> pins = {
      {"exhaustive/ablation", 0x1c4fab1ab5d76b63ull}, {"exhaustive/budget", 0xa21ed17b9a521b1bull},
      {"exhaustive/dc128", 0x634e75b3cea3f160ull},    {"exhaustive/dc64", 0x84486bb0306f774aull},
      {"exhaustive/paper", 0xb789dd7368077a31ull},    {"flow/ablation", 0xe948b96c1bb50daaull},
      {"flow/budget", 0x1b10ebd15fb09df3ull},         {"flow/dc128", 0xb7d016af2407e7b9ull},
      {"flow/dc256", 0x19a52e55d67013ecull},          {"flow/dc64", 0x12e189384c9fc5d0ull},
      {"flow/paper", 0x0768f97c7ac58243ull},
  };
  int pinned = 0;
  for (const std::string tier : {"exhaustive", "flow"}) {
    for (const std::string& preset : harness::cluster_preset_names()) {
      const hw::Cluster healthy = harness::cluster_by_name(preset);
      if (tier == "exhaustive" && healthy.num_devices() > 128) continue;
      hw::Cluster degraded = healthy;
      const auto fastest = degraded.devices_of_type(degraded.types_by_power_desc().front());
      degraded.set_device_speed(fastest.back(), 0.4);
      const hw::Cluster* overlays[] = {&healthy, &degraded};
      PlanHash h;
      for (const model::ModelSpec* model : {&model::llama_13b(), &model::llama_70b()}) {
        for (const std::string& objective : kObjectives) {
          for (const hw::Cluster* cluster : overlays) {
            h.word(pin_cell(tier, *cluster, *model, objective));
          }
        }
      }
      const std::string key = tier + "/" + preset;
      const auto it = pins.find(key);
      EXPECT_TRUE(it != pins.end() && it->second == h.value())
          << key << ": 0x" << std::hex << h.value();
      ++pinned;
    }
  }
  EXPECT_EQ(pinned, 11);  // 5 presets exhaustive, 6 flow
}

void hash_instance(PlanHash& h, const parallel::InstanceConfig& inst) {
  h.word(inst.stages.size());
  for (const parallel::StageConfig& s : inst.stages) {
    h.word(s.devices.size());
    for (int d : s.devices) h.word(static_cast<std::uint64_t>(d));
    h.word(static_cast<std::uint64_t>(s.layers));
    h.word(static_cast<std::uint64_t>(s.extra_reserved));
  }
  h.word(inst.attention_workers.size());
  for (int d : inst.attention_workers) h.word(static_cast<std::uint64_t>(d));
}

// The baselines' static layouts, one hash per (baseline, preset) over
// Llama-13B and Llama-70B; a layout that throws hashes its message.
TEST(PlanPin, BaselinePlansMatchTheRecordedPlans) {
  // Recorded before hexgen_plan moved onto parallel::balance_layers.
  const std::map<std::string, std::uint64_t> pins = {
      {"hexgen/ablation", 0xcf6612ec1a04dee5ull}, {"splitwise/ablation", 0x17df13e9af15af2full},
      {"hexgen/budget", 0x287054c1b8e5e23full},   {"splitwise/budget", 0xd366a9d60e917669ull},
      {"hexgen/dc128", 0x90451af5ffb889a5ull},    {"splitwise/dc128", 0xd76bc211bf8d4c3dull},
      {"hexgen/dc256", 0xf96bba29290cf425ull},    {"splitwise/dc256", 0xe177555ddba1fafdull},
      {"hexgen/dc64", 0xe5887275253484a5ull},     {"splitwise/dc64", 0xc39afdeb7603ba7dull},
      {"hexgen/paper", 0x06936bf24e0e828dull},    {"splitwise/paper", 0x8d21f695a9ff079cull},
  };
  int pinned = 0;
  for (const std::string& preset : harness::cluster_preset_names()) {
    const hw::Cluster cluster = harness::cluster_by_name(preset);
    PlanHash hexgen;
    PlanHash splitwise;
    for (const model::ModelSpec* model : {&model::llama_13b(), &model::llama_70b()}) {
      try {
        for (const auto& inst : baselines::hexgen_plan(cluster, *model).instances) {
          hash_instance(hexgen, inst);
        }
      } catch (const std::exception& e) {
        hexgen.text(std::string("throws: ") + e.what());
      }
      try {
        const baselines::SplitwisePlan plan = baselines::splitwise_default_plan(cluster, *model);
        hash_instance(splitwise, plan.prefill);
        for (const auto& inst : plan.decode) hash_instance(splitwise, inst);
      } catch (const std::exception& e) {
        splitwise.text(std::string("throws: ") + e.what());
      }
    }
    for (const auto& [name, h] : {std::pair<std::string, const PlanHash*>{"hexgen", &hexgen},
                                  std::pair<std::string, const PlanHash*>{"splitwise", &splitwise}}) {
      const std::string key = name + "/" + preset;
      const auto it = pins.find(key);
      EXPECT_TRUE(it != pins.end() && it->second == h->value())
          << key << ": 0x" << std::hex << h->value();
      ++pinned;
    }
  }
  EXPECT_EQ(pinned, 12);  // 6 presets x 2 baselines
}

}  // namespace
}  // namespace hetis
