// Unit + property tests: simplex solver and the min-max dispatch LP.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "lp/minmax.h"
#include "lp/simplex.h"

namespace hetis::lp {
namespace {

// --- Simplex ---

TEST(Simplex, SimpleMaximizationAsMinimization) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2  ->  min -3x - 2y.
  Problem p;
  p.num_vars = 2;
  p.objective = {-3, -2};
  p.add_le({1, 1}, 4);
  p.add_le({1, 0}, 2);
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, -10.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + y = 5, x >= 0, y >= 0 -> objective 5.
  Problem p;
  p.num_vars = 2;
  p.objective = {1, 1};
  p.add_eq({1, 1}, 5);
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2.
  Problem p;
  p.num_vars = 2;
  p.objective = {2, 3};
  p.add_ge({1, 1}, 4);
  p.add_ge({1, -1}, -2);
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);  // x=4, y=0
}

TEST(Simplex, InfeasibleDetected) {
  Problem p;
  p.num_vars = 1;
  p.objective = {1};
  p.add_le({1}, 1);
  p.add_ge({1}, 2);
  Solution s = solve(p);
  EXPECT_EQ(s.status, Status::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Problem p;
  p.num_vars = 1;
  p.objective = {-1};  // max x with no upper bound
  p.add_ge({1}, 0);
  Solution s = solve(p);
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // x <= -1 is infeasible for x >= 0; -x <= -1 means x >= 1.
  Problem p;
  p.num_vars = 1;
  p.objective = {1};
  p.add_le({-1}, -1);  // -x <= -1  <=>  x >= 1
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Redundant constraints; Bland's rule must avoid cycling.
  Problem p;
  p.num_vars = 2;
  p.objective = {-1, -1};
  p.add_le({1, 1}, 1);
  p.add_le({1, 1}, 1);
  p.add_le({2, 2}, 2);
  p.add_le({1, 0}, 1);
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(Simplex, ShapeValidation) {
  Problem p;
  p.num_vars = 2;
  p.objective = {1};  // wrong size
  EXPECT_THROW(solve(p), std::invalid_argument);
  p.objective = {1, 1};
  p.constraints.push_back(Constraint{{1.0}, Relation::kLe, 1.0});  // wrong size
  EXPECT_THROW(solve(p), std::invalid_argument);
}

TEST(Simplex, StatusStrings) {
  EXPECT_STREQ(to_string(Status::kOptimal), "optimal");
  EXPECT_STREQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(Status::kMalformed), "malformed");
}

// Non-finite inputs come back as a typed kMalformed status (never an
// assert or NaN-poisoned tableau): the flow planner legitimately produces
// infinite cost coefficients for impossible configurations and branches on
// the status.
TEST(Simplex, MalformedInputsReported) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (int where = 0; where < 3; ++where) {
    for (double bad : {nan, inf, -inf}) {
      Problem p;
      p.num_vars = 2;
      p.objective = {1, 1};
      p.add_le({1, 1}, 4);
      if (where == 0) p.objective[1] = bad;
      if (where == 1) p.constraints[0].coeffs[0] = bad;
      if (where == 2) p.constraints[0].rhs = bad;
      Solution s = solve(p);
      EXPECT_EQ(s.status, Status::kMalformed) << "where=" << where << " bad=" << bad;
      EXPECT_FALSE(s.ok());
      EXPECT_TRUE(s.x.empty());
    }
  }
}

TEST(Simplex, IterationsCountPivots) {
  Problem p;
  p.num_vars = 2;
  p.objective = {-3, -2};
  p.add_le({1, 1}, 4);
  p.add_le({1, 0}, 2);
  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s.iterations, 0u);  // reaching this optimum needs real pivots
  // Statuses short of optimal still report the work done getting there.
  Problem q;
  q.num_vars = 1;
  q.objective = {1};
  q.add_le({1}, 1);
  q.add_ge({1}, 2);
  EXPECT_EQ(solve(q).status, Status::kInfeasible);
}

TEST(Simplex, ZeroVariableShell) {
  // A degenerate n == 0 problem is vacuously optimal when every constraint
  // holds at x = {} and infeasible otherwise -- it must not index into an
  // empty tableau.
  Problem p;
  p.num_vars = 0;
  Solution s = solve(p);
  EXPECT_EQ(s.status, Status::kOptimal);
  EXPECT_EQ(s.objective, 0.0);
  p.constraints.push_back(Constraint{{}, Relation::kGe, 1.0});  // 0 >= 1
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

// Property: on random feasible bounded LPs the simplex solution must be
// feasible and no worse than a large sample of random feasible points.
class SimplexRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom, OptimalBeatsRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3, m = 4;
  Problem p;
  p.num_vars = n;
  for (std::size_t j = 0; j < n; ++j) p.objective.push_back(rng.uniform(0.1, 2.0));
  // Constraints a.x <= b with positive a, b: box-like, always feasible
  // (x=0) and bounded in the minimization sense; add a >= to make the
  // optimum nontrivial.
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j) row.push_back(rng.uniform(0.1, 1.0));
    double rhs = rng.uniform(1.0, 5.0);
    p.add_le(row, rhs);
    rows.push_back(row);
  }
  std::vector<double> ge_row;
  for (std::size_t j = 0; j < n; ++j) ge_row.push_back(rng.uniform(0.5, 1.0));
  p.add_ge(ge_row, 0.5);

  Solution s = solve(p);
  ASSERT_TRUE(s.ok());
  // Feasibility.
  for (std::size_t i = 0; i < m; ++i) {
    double lhs = 0;
    for (std::size_t j = 0; j < n; ++j) lhs += rows[i][j] * s.x[j];
    EXPECT_LE(lhs, p.constraints[i].rhs + 1e-6);
  }
  double ge_lhs = 0;
  for (std::size_t j = 0; j < n; ++j) ge_lhs += ge_row[j] * s.x[j];
  EXPECT_GE(ge_lhs, 0.5 - 1e-6);
  // Optimality against random feasible points.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(0.0, 3.0);
    bool feasible = true;
    for (std::size_t i = 0; i < m && feasible; ++i) {
      double lhs = 0;
      for (std::size_t j = 0; j < n; ++j) lhs += rows[i][j] * x[j];
      feasible = lhs <= p.constraints[i].rhs;
    }
    double g = 0;
    for (std::size_t j = 0; j < n; ++j) g += ge_row[j] * x[j];
    feasible = feasible && g >= 0.5;
    if (!feasible) continue;
    double obj = 0;
    for (std::size_t j = 0; j < n; ++j) obj += p.objective[j] * x[j];
    EXPECT_GE(obj, s.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom, ::testing::Range(1, 13));

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

TEST(MinMax, RelaxedSolutionMeetsDemand) {
  MinMaxProblem p = two_device_problem();
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  double total = s.heads[0][0] + s.heads[1][0];
  EXPECT_NEAR(total, 32.0, 1e-6);
  EXPECT_GT(s.objective, 0.0);
}

TEST(MinMax, MalformedInputsReported) {
  // NaN/inf cost terms (a division by a zero bandwidth upstream, say) are
  // reported as kMalformed, not fed into the tableau -- and checked before
  // shape validation so a poisoned value never throws.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    MinMaxProblem p = two_device_problem();
    p.head_cost[1] = bad;
    MinMaxSolution s = solve_relaxed(p);
    EXPECT_EQ(s.status, Status::kMalformed);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(s.heads.empty());
  }
}

TEST(MinMax, RelaxedOptimumIsLowerBoundOfGreedy) {
  MinMaxProblem p = two_device_problem();
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  auto greedy = greedy_dispatch(p);
  EXPECT_LE(s.objective, eval_makespan(p, greedy) + 1e-9);
}

TEST(MinMax, RoundingPreservesDemandAndGranularity) {
  MinMaxProblem p = two_device_problem();
  p.group_size = 8;
  p.demand = {32};
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  auto rounded = round_to_groups(p, s);
  int total = rounded[0][0] + rounded[1][0];
  EXPECT_EQ(total, 32);
  EXPECT_EQ(rounded[0][0] % 8, 0);
  EXPECT_EQ(rounded[1][0] % 8, 0);
}

TEST(MinMax, MemoryConstraintRespected) {
  MinMaxProblem p = two_device_problem();
  // Device 0 can hold only 10 heads worth of cache.
  p.mem_free = {10 * 1e5, 1e9};
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  EXPECT_LE(s.heads[0][0] * 1e5, 10 * 1e5 + 1e-3);
  auto rounded = round_to_groups(p, s);
  EXPECT_LE(rounded[0][0] * 1e5, 10 * 1e5 + 1e-3);
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
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  // Device 0 is 2x faster per head: it should take about 2/3 of the heads.
  EXPECT_GT(s.heads[0][0], s.heads[1][0]);
}

TEST(MinMax, MultiRequestIntegrity) {
  MinMaxProblem p = two_device_problem();
  p.demand = {32, 32, 32};
  p.cache_per_head = {1e5, 2e5, 5e4};
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  auto rounded = round_to_groups(p, s);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(rounded[0][j] + rounded[1][j], 32) << "request " << j;
  }
}

TEST(MinMax, ValidationErrors) {
  MinMaxProblem p = two_device_problem();
  p.demand = {33};  // not a multiple of group_size=8
  p.group_size = 8;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = two_device_problem();
  p.head_cost.pop_back();
  EXPECT_THROW(solve_relaxed(p), std::invalid_argument);
}

TEST(MinMax, EmptyRequestSetTrivial) {
  MinMaxProblem p = two_device_problem();
  p.demand.clear();
  p.cache_per_head.clear();
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 1e-3, 1e-9);  // max base time
}

// Property sweep: rounding never violates memory and always meets demand
// across random instances.
class MinMaxRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxRandom, RoundingInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  MinMaxProblem p;
  std::size_t d = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  std::size_t j = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  p.group_size = rng.bernoulli(0.5) ? 1 : 8;
  for (std::size_t i = 0; i < d; ++i) {
    p.base_time.push_back(rng.uniform(0, 2e-3));
    p.head_cost.push_back(rng.uniform(1e-6, 5e-5));
    p.cache_cost.push_back(rng.uniform(1e-13, 5e-12));
    p.mem_free.push_back(rng.uniform(1e8, 2e9));
  }
  const double demand = 8.0 * p.group_size;
  for (std::size_t r = 0; r < j; ++r) {
    p.demand.push_back(demand);
    p.cache_per_head.push_back(rng.uniform(1e4, 4e5));
  }
  MinMaxSolution s = solve_relaxed(p);
  ASSERT_TRUE(s.ok());
  auto rounded = round_to_groups(p, s);
  for (std::size_t r = 0; r < j; ++r) {
    int total = 0;
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_EQ(rounded[i][r] % p.group_size, 0);
      EXPECT_GE(rounded[i][r], 0);
      total += rounded[i][r];
    }
    EXPECT_EQ(total, static_cast<int>(demand));
  }
  for (std::size_t i = 0; i < d; ++i) {
    double used = 0;
    for (std::size_t r = 0; r < j; ++r) used += rounded[i][r] * p.cache_per_head[r];
    EXPECT_LE(used, p.mem_free[i] * 1.02 + 1e5);  // small rounding slack
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinMaxRandom, ::testing::Range(1, 21));

}  // namespace
}  // namespace hetis::lp
