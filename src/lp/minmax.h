// Min-max head-dispatch LP (paper Eq. 7), solved exactly for one request,
// and the greedy waterfill behind the re-dispatch trigger.
//
// Hetis places one request at a time (admission, re-dispatch, rescue).
// With x_i = its query heads on device i, a_i = head_cost[i] +
// cache_cost[i] * c its per-head cost and c its cache bytes per head, the
// LP is
//
//   min t + kTieBreak * sum_i a_i x_i
//   s.t.  base[i] + a_i x_i <= t            (Eq. 7a, epigraph)
//         sum_i x_i = demand                (head integrity, Eq. 5/7c)
//         c * x_i <= mem_free[i]            (Eq. 7b)
//         x >= 0
//
// `solve_one` solves it in closed form: for a fixed t, device i takes at
// most min(mem_free[i] / c, (t - base[i]) / a_i) heads and the tie-break is
// a fractional knapsack (cheapest a_i first), so the objective is convex
// and piecewise linear in t and its minimum sits at one of O(D)
// breakpoints.  `round_to_groups` then rounds the optimum to the head-group
// lattice (x/r integral, §5.2.1) inside each device's memory.
//
// The ideal attention time f* behind the re-dispatching trigger (§5.3.1)
// does not use the LP: the Dispatcher computes it with
// `greedy_dispatch_into` and `eval_makespan` over all of its requests under
// per-device memory, where the paper's LP has one cluster-wide memory row.
#pragma once

#include <cstdint>
#include <vector>

namespace hetis::lp {

/// Outcome of `solve_one`: kMalformed reports non-finite inputs, so callers
/// branch on a typed status instead of chasing poisoned arithmetic.
enum class Status : std::uint8_t { kOptimal, kInfeasible, kMalformed };

/// Weight of the secondary objective: among placements with the same
/// bottleneck t, prefer the one with the least total work, so heads stay on
/// cheap devices unless offloading lowers the bottleneck.
inline constexpr double kTieBreak = 1e-3;

struct MinMaxProblem {
  // Device side (size D).
  std::vector<double> base_time;       // constant part of f_i (existing load)
  std::vector<double> head_cost;       // df_i per assigned head
  std::vector<double> cache_cost;      // df_i per byte of assigned cache
  std::vector<double> mem_free;        // free cache bytes on device i
  // Request side (size J).
  std::vector<double> demand;          // heads required (H), per request
  std::vector<double> cache_per_head;  // cache bytes one head drags along

  int group_size = 1;                  // GQA ratio r: x must be multiple of r

  std::size_t num_devices() const { return base_time.size(); }
  std::size_t num_requests() const { return demand.size(); }
  void validate() const;  // throws std::invalid_argument on shape errors
};

/// Continuous optimum of the one-request LP.
struct MinMaxSolution {
  Status status = Status::kInfeasible;
  double bottleneck = 0.0;    // t: max_i f_i at the optimum
  std::vector<double> heads;  // x_i per device

  bool ok() const { return status == Status::kOptimal; }
};

/// Solves the LP above exactly for a problem with one request (throws
/// std::invalid_argument otherwise, or on shape errors).  Non-finite inputs
/// come back as kMalformed and a demand above the devices' total memory as
/// kInfeasible.
MinMaxSolution solve_one(const MinMaxProblem& problem);

/// Rounds a one-request optimum to whole groups of group_size heads per
/// device by largest remainder, never past a device's memory.  Returns
/// integer head counts per device; they sum to less than the demand only
/// when the groups do not fit (or `relaxed` is not ok).
std::vector<int> round_to_groups(const MinMaxProblem& problem, const MinMaxSolution& relaxed);

/// Greedy waterfilling dispatcher: assigns each request's head groups one
/// group at a time to the device with the smallest resulting f_i that has
/// memory room.  Used as a fallback when the LP fails and as the
/// "no-LP" ablation.  Returns integer head counts (may leave a request
/// short only if the cluster is out of memory; callers must check).
std::vector<std::vector<int>> greedy_dispatch(const MinMaxProblem& problem);

/// Allocation-reusing form of greedy_dispatch: writes the assignment into
/// `heads` and uses `load` / `mem_used` as scratch, all resized in place
/// (capacity is kept across calls -- the dispatch hot path runs this once
/// per decode iteration).  Identical arithmetic and iteration order to
/// greedy_dispatch, so results match bit for bit.  Does NOT validate the
/// problem; callers must run problem.validate() first.
void greedy_dispatch_into(const MinMaxProblem& problem, std::vector<std::vector<int>>& heads,
                          std::vector<double>& load, std::vector<double>& mem_used);

/// Evaluates max_i f_i for an integral assignment.
double eval_makespan(const MinMaxProblem& problem,
                     const std::vector<std::vector<int>>& heads);

}  // namespace hetis::lp
