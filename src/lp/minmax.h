// Min-max head-dispatch LP (paper Eq. 7) and integral rounding.
//
// Variables: x[i][j] = query heads of request j placed on device i, plus
// the epigraph variable t:
//
//   min t
//   s.t.  base[i] + sum_j (head_cost[i] + cache_cost[i]*cache_per_head[j]) x[i][j] <= t
//         sum_i x[i][j] = demand[j]                    (head integrity, Eq. 5/7c)
//         sum_j cache_per_head[j] * x[i][j] <= mem_free[i]   (Eq. 7b)
//         x >= 0
//
// The continuous optimum is then rounded to the head-group lattice
// (x/r integral, §5.2.1) by largest-remainder with a memory-feasibility
// repair pass.  The ideal attention time f* behind the re-dispatching
// trigger (§5.3.1) does not use the LP: the Dispatcher computes it with
// `greedy_dispatch_into` and `eval_makespan` under per-device memory, where
// the paper's LP has one cluster-wide memory row.
#pragma once

#include <vector>

#include "lp/simplex.h"

namespace hetis::lp {

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

struct MinMaxSolution {
  Status status = Status::kIterLimit;
  double objective = 0.0;               // relaxed (continuous) optimum of t
  // heads[i][j], continuous.
  std::vector<std::vector<double>> heads;

  bool ok() const { return status == Status::kOptimal; }
};

/// Solves the continuous relaxation exactly via simplex.
MinMaxSolution solve_relaxed(const MinMaxProblem& problem);

/// Cold-path variant with recycled buffers: builds the epigraph LP into
/// `lp_buffer` (reusing its row capacity) and solves through `solver`'s
/// persistent tableau.  Bit-identical results to the plain overload -- the
/// buffers only recycle allocations, never values.
MinMaxSolution solve_relaxed(const MinMaxProblem& problem, Problem& lp_buffer,
                             Simplex& solver);

/// Rounds a continuous solution to integral multiples of group_size per
/// (device, request) while preserving column sums (= demand) and repairing
/// per-device memory violations.  Returns integer head counts.
std::vector<std::vector<int>> round_to_groups(const MinMaxProblem& problem,
                                              const MinMaxSolution& relaxed);

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
