// Unit + property tests: the min-max dispatch LP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/minmax.h"

namespace hetis::lp {
namespace {

// --- MinMax dispatch ---

MinMaxProblem two_device_problem() {
  MinMaxProblem p;
  p.base_time = {1e-3, 0.5e-3};   // device 1 currently less loaded
  p.head_cost = {1e-5, 2e-5};     // device 1 slower per head
  p.cache_cost = {1e-12, 2e-12};
  p.mem_free = {1e9, 1e9};
  p.demand = {32};
  p.cache_per_head = {1e5};
  p.group_size = 1;
  return p;
}

int sum(const std::vector<int>& heads) {
  int total = 0;
  for (int h : heads) total += h;
  return total;
}

TEST(MinMax, RelaxedSolutionMeetsDemand) {
  MinMaxProblem p = two_device_problem();
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  double total = s.heads[0] + s.heads[1];
  EXPECT_NEAR(total, 32.0, 1e-9);
  EXPECT_GT(s.bottleneck, 0.0);
}

TEST(MinMax, MalformedInputsReported) {
  // NaN/inf cost terms (a division by a zero bandwidth upstream, say) are
  // reported as kMalformed -- and checked before shape validation so a
  // poisoned value never throws.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    MinMaxProblem p = two_device_problem();
    p.head_cost[1] = bad;
    MinMaxSolution s = solve_one(p);
    EXPECT_EQ(s.status, Status::kMalformed);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(s.heads.empty());
  }
}

TEST(MinMax, RelaxedOptimumIsLowerBoundOfGreedy) {
  MinMaxProblem p = two_device_problem();
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  auto greedy = greedy_dispatch(p);
  EXPECT_LE(s.bottleneck, eval_makespan(p, greedy) + 1e-9);
}

TEST(MinMax, RoundingPreservesDemandAndGranularity) {
  MinMaxProblem p = two_device_problem();
  p.group_size = 8;
  p.demand = {32};
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  auto rounded = round_to_groups(p, s);
  EXPECT_EQ(sum(rounded), 32);
  EXPECT_EQ(rounded[0] % 8, 0);
  EXPECT_EQ(rounded[1] % 8, 0);
}

TEST(MinMax, MemoryConstraintRespected) {
  MinMaxProblem p = two_device_problem();
  // Device 0 can hold only 10 heads worth of cache.
  p.mem_free = {10 * 1e5, 1e9};
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  EXPECT_LE(s.heads[0] * 1e5, 10 * 1e5 + 1e-3);
  auto rounded = round_to_groups(p, s);
  EXPECT_LE(rounded[0] * 1e5, 10 * 1e5 + 1e-3);
}

TEST(MinMax, RoundingNeverOverfillsMemory) {
  // Each device holds 1.5 groups: the continuous optimum fits (24 of 24
  // heads), the groups do not, so rounding comes up short instead of
  // overfilling a device.
  MinMaxProblem p = two_device_problem();
  p.group_size = 8;
  p.demand = {24};
  p.mem_free = {12 * 1e5, 12 * 1e5};
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  auto rounded = round_to_groups(p, s);
  EXPECT_EQ(rounded, (std::vector<int>{8, 8}));
}

TEST(MinMax, GreedyRespectsMemory) {
  MinMaxProblem p = two_device_problem();
  p.mem_free = {5 * 1e5, 1e9};
  auto heads = greedy_dispatch(p);
  EXPECT_LE(heads[0][0], 5);
  EXPECT_EQ(heads[0][0] + heads[1][0], 32);
}

TEST(MinMax, GreedyStopsWhenClusterFull) {
  MinMaxProblem p = two_device_problem();
  p.mem_free = {5 * 1e5, 5 * 1e5};  // room for 10 of the 32 heads
  auto heads = greedy_dispatch(p);
  EXPECT_LT(heads[0][0] + heads[1][0], 32);  // caller must detect shortfall
}

TEST(MinMax, LoadBalancesTowardFasterDevice) {
  MinMaxProblem p = two_device_problem();
  p.base_time = {0.0, 0.0};
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  // Device 0 is 2x faster per head: it takes about 2/3 of the heads.
  EXPECT_NEAR(s.heads[0], 2.0 * s.heads[1], 1e-9);
}

TEST(MinMax, ValidationErrors) {
  MinMaxProblem p = two_device_problem();
  p.demand = {33};  // not a multiple of group_size=8
  p.group_size = 8;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = two_device_problem();
  p.head_cost.pop_back();
  EXPECT_THROW(solve_one(p), std::invalid_argument);
}

TEST(MinMax, SolveOneRejectsOtherRequestCounts) {
  MinMaxProblem p = two_device_problem();
  p.demand = {32, 32};
  p.cache_per_head = {1e5, 2e5};
  EXPECT_THROW(solve_one(p), std::invalid_argument);
  p.demand.clear();
  p.cache_per_head.clear();
  EXPECT_THROW(solve_one(p), std::invalid_argument);
}

TEST(MinMax, EmptyRequestSetTrivial) {
  // The waterfill behind f* with no requests: nothing placed, makespan is
  // the largest base time.
  MinMaxProblem p = two_device_problem();
  p.demand.clear();
  p.cache_per_head.clear();
  auto heads = greedy_dispatch(p);
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_TRUE(heads[0].empty() && heads[1].empty());
  EXPECT_EQ(eval_makespan(p, heads), 1e-3);
}

/// An admission LP from a Llama-70B `rate_sweep` run (GQA r = 8, 64 heads,
/// the primary and four attention workers) on which the dense simplex
/// returned -704 heads on worker 1 and 768 on the primary.
MinMaxProblem negative_simplex_instance() {
  MinMaxProblem p;
  p.group_size = 8;
  p.demand = {64};
  p.cache_per_head = {4672};
  p.base_time = {1.1238867081777709e-05, 1.1259371382087784e-05, 1.1874715045300453e-05,
                 1.1310468975221504e-05, 1.1819236389909266e-05};
  p.head_cost = {5.6332804399073162e-09, 1.4154853935557621e-07, 1.4346404496293092e-07,
                 1.3876819918240243e-07, 1.3387403851822164e-07};
  p.cache_cost = {4.1986516907371034e-13, 3.0527237274083086e-12, 3.0437888251935659e-12,
                  3.044694828821217e-12, 3.0010772539538692e-12};
  p.mem_free = {1681669072.2962964, 136782864.38749999, 136349712.38749999,
                136433680.38749999, 136581648.38749999};
  return p;
}

TEST(MinMax, ExactSolveOfTheNegativeSimplexInstanceIsNonNegative) {
  const MinMaxProblem p = negative_simplex_instance();
  MinMaxSolution s = solve_one(p);
  ASSERT_TRUE(s.ok());
  for (double x : s.heads) EXPECT_GE(x, 0.0);
  const std::vector<int> rounded = round_to_groups(p, s);
  for (int h : rounded) {
    EXPECT_GE(h, 0);
    EXPECT_EQ(h % 8, 0);
  }
  EXPECT_EQ(sum(rounded), 64);
  // The primary is by far the cheapest device and has room: every head
  // stays local.
  EXPECT_EQ(rounded[0], 64);
}

// --- Differential: the exact one-request solve vs brute force ---

double per_head_cost(const MinMaxProblem& p, std::size_t i) {
  return p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[0];
}

/// The LP objective at bottleneck t, with x filled cheapest first under
/// each device's caps (optimal for a fixed t); +inf when the caps cannot
/// hold the demand.
double objective_at(const MinMaxProblem& p, const std::vector<std::size_t>& by_cost, double t) {
  double left = p.demand[0];
  double work = 0.0;
  for (std::size_t i : by_cost) {
    if (t < p.base_time[i]) return std::numeric_limits<double>::infinity();
    const double a = per_head_cost(p, i);
    double cap = p.mem_free[i] / p.cache_per_head[0];
    if (a > 0.0) cap = std::min(cap, (t - p.base_time[i]) / a);
    const double take = std::min(cap, left);
    left -= take;
    work += a * take;
  }
  // (t - base) / a loses digits when a * H is tiny against the base, so a
  // breakpoint t can leave ~1e-11 of the demand unplaced.
  if (left > 1e-9 * p.demand[0]) return std::numeric_limits<double>::infinity();
  return t + kTieBreak * work;
}

/// Brute force over the breakpoints.  The objective is convex and
/// piecewise linear in t, with kinks where a device's cap turns from time
/// to memory and where the k cheapest devices first hold the demand; the
/// latter are found by solving for t under every split of those k devices
/// into memory-bound and time-bound ones.  +inf when infeasible.
double brute_force_optimum(const MinMaxProblem& p) {
  const std::size_t d = p.num_devices();
  const double h = p.demand[0];
  std::vector<std::size_t> by_cost(d);
  for (std::size_t i = 0; i < d; ++i) by_cost[i] = i;
  std::stable_sort(by_cost.begin(), by_cost.end(), [&p](std::size_t a, std::size_t b) {
    return per_head_cost(p, a) < per_head_cost(p, b);
  });
  std::vector<double> ts{*std::max_element(p.base_time.begin(), p.base_time.end())};
  for (std::size_t i = 0; i < d; ++i) {
    const double room = p.mem_free[i] / p.cache_per_head[0];
    if (per_head_cost(p, i) > 0.0) ts.push_back(p.base_time[i] + per_head_cost(p, i) * room);
  }
  for (std::size_t k = 1; k <= d; ++k) {
    for (std::size_t mask = 0; mask < (std::size_t{1} << k); ++mask) {
      double fixed = 0.0, inv = 0.0, num = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t i = by_cost[j];
        const double a = per_head_cost(p, i);
        if (a <= 0.0 || ((mask >> j) & 1U) != 0) {
          fixed += p.mem_free[i] / p.cache_per_head[0];
        } else {
          inv += 1.0 / a;
          num += p.base_time[i] / a;
        }
      }
      if (inv > 0.0) ts.push_back((h - fixed + num) / inv);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (double t : ts) best = std::min(best, objective_at(p, by_cost, t));
  return best;
}

/// LP objective of bottleneck t and placement x.
double lp_objective(const MinMaxProblem& p, double t, const std::vector<double>& x) {
  double work = 0.0;
  for (std::size_t i = 0; i < p.num_devices(); ++i) work += per_head_cost(p, i) * x[i];
  return t + kTieBreak * work;
}

/// Every row of the LP holds at (t, x) within `rel` relative error.
bool feasible(const MinMaxProblem& p, double t, const std::vector<double>& x, double rel) {
  const double h = p.demand[0];
  const double c = p.cache_per_head[0];
  double total = 0.0;
  for (std::size_t i = 0; i < p.num_devices(); ++i) {
    const double f = p.base_time[i] + per_head_cost(p, i) * x[i];
    if (x[i] < -rel * h || f > t + rel * std::abs(t)) return false;
    if (c * x[i] > std::max(0.0, p.mem_free[i]) + rel * c * h) return false;
    total += x[i];
  }
  return std::abs(total - h) <= rel * h;
}

/// A seeded one-request problem with D devices and group size r, of one of
/// six kinds: time-bound, memory-bound, tied devices, zero-cost devices,
/// more demand than memory, or near-free devices whose optimum lies above
/// the lowest feasible bottleneck.  Magnitudes follow the Dispatcher's: bases
/// ~1e-5 s, per-head costs 1e-9..1e-7 s, cache 1e3..1e5 bytes per head.
MinMaxProblem random_one_request(Rng& rng, std::size_t d, int r, int kind) {
  MinMaxProblem p;
  p.group_size = r;
  p.demand = {static_cast<double>(r * rng.uniform_int(1, r == 1 ? 64 : 8))};
  const double c = rng.uniform(1e3, 1e5);
  p.cache_per_head = {c};
  const double h = p.demand[0];
  for (std::size_t i = 0; i < d; ++i) {
    p.base_time.push_back(rng.uniform(0.0, 2e-4));
    p.head_cost.push_back(rng.uniform(1e-9, 2e-7));
    p.cache_cost.push_back(rng.uniform(1e-13, 5e-12));
    p.mem_free.push_back(rng.uniform(1.0, 4.0) * h * c);
  }
  switch (kind) {
    case 1:  // memory-bound: the devices hold 1.05x..2x the demand in total
      for (double& m : p.mem_free) m = rng.uniform(0.0, 2.0) * h * c / d;
      p.mem_free[d - 1] += 1.05 * h * c;
      break;
    case 2:  // ties: every device a copy of device 0, some with its base
      for (std::size_t i = 1; i < d; ++i) {
        p.head_cost[i] = p.head_cost[0];
        p.cache_cost[i] = p.cache_cost[0];
        if (rng.bernoulli(0.5)) p.base_time[i] = p.base_time[0];
      }
      break;
    case 3:  // zero-cost devices, one of them memory-bound
      for (std::size_t i = 0; i < d; ++i) {
        if (rng.bernoulli(0.4)) p.head_cost[i] = p.cache_cost[i] = 0.0;
      }
      p.head_cost[0] = p.cache_cost[0] = 0.0;
      p.mem_free[0] = rng.uniform(0.0, 1.0) * h * c;
      break;
    case 4:  // infeasible: the devices hold 0.3x..0.95x the demand
      for (double& m : p.mem_free) m = rng.uniform(0.3, 0.95) * h * c / d;
      break;
    case 5: {  // near-free devices behind the highest base, some memory-bound
      // Raising t past the lowest feasible bottleneck pays off here: the
      // optimum sits where a near-free device fills its memory (a knee) or
      // where the cheapest devices alone first hold the demand (a level).
      const double top = *std::max_element(p.base_time.begin(), p.base_time.end());
      for (std::size_t i = 0; i < d; ++i) {
        if (i > 0 && rng.bernoulli(0.5)) continue;
        const double scale = rng.uniform(1e-6, 1e-3);
        p.head_cost[i] *= scale;
        p.cache_cost[i] *= scale;
        p.base_time[i] = top + rng.uniform(0.0, 1e-4);
        if (rng.bernoulli(0.5)) p.mem_free[i] = rng.uniform(0.0, 1.0) * h * c;
      }
      break;
    }
    default:  // time-bound: memory is plentiful
      break;
  }
  return p;
}

TEST(MinMaxExact, MatchesBruteForceOverTheBreakpoints) {
  Rng rng(20251116);
  int solved = 0, infeasible = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const std::size_t d = 1 + static_cast<std::size_t>(trial % 8);
    const int r = (trial / 8) % 2 == 0 ? 1 : 8;
    const int kind = (trial / 16) % 6;
    const MinMaxProblem p = random_one_request(rng, d, r, kind);
    SCOPED_TRACE("trial " + std::to_string(trial) + " kind " + std::to_string(kind));

    const MinMaxSolution exact = solve_one(p);
    const double reference = brute_force_optimum(p);
    if (!exact.ok()) {
      ASSERT_EQ(exact.status, Status::kInfeasible);
      EXPECT_EQ(reference, std::numeric_limits<double>::infinity());
      ++infeasible;
      continue;
    }
    ++solved;
    ASSERT_TRUE(feasible(p, exact.bottleneck, exact.heads, 1e-12));
    const double best = lp_objective(p, exact.bottleneck, exact.heads);
    EXPECT_NEAR(best, reference, 1e-12 * reference);
  }
  // Every kind of instance was exercised, infeasible ones included.
  EXPECT_GT(infeasible, 1000);
  EXPECT_GT(solved, 9000);
}

// Property sweep: rounding never violates memory and always meets demand
// across random instances.
class MinMaxRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxRandom, RoundingInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  MinMaxProblem p;
  std::size_t d = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  p.group_size = rng.bernoulli(0.5) ? 1 : 8;
  for (std::size_t i = 0; i < d; ++i) {
    p.base_time.push_back(rng.uniform(0, 2e-3));
    p.head_cost.push_back(rng.uniform(1e-6, 5e-5));
    p.cache_cost.push_back(rng.uniform(1e-13, 5e-12));
    p.mem_free.push_back(rng.uniform(1e6, 2e8));
  }
  const double demand = 8.0 * p.group_size;
  p.demand = {demand};
  p.cache_per_head = {rng.uniform(1e4, 4e5)};
  MinMaxSolution s = solve_one(p);
  if (!s.ok()) {
    EXPECT_EQ(s.status, Status::kInfeasible);
    return;
  }
  auto rounded = round_to_groups(p, s);
  int total = 0;
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_EQ(rounded[i] % p.group_size, 0);
    EXPECT_GE(rounded[i], 0);
    EXPECT_LE(rounded[i] * p.cache_per_head[0], p.mem_free[i] + 1e-6);
    total += rounded[i];
  }
  EXPECT_LE(total, static_cast<int>(demand));
  // Short only when whole groups cannot hold the demand.
  if (total < demand) {
    double groups = 0;
    for (double m : p.mem_free) {
      groups += std::floor((m + 1e-6) / (p.cache_per_head[0] * p.group_size));
    }
    EXPECT_LT(groups * p.group_size, demand);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinMaxRandom, ::testing::Range(1, 21));

}  // namespace
}  // namespace hetis::lp
