#include "lp/minmax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace hetis::lp {

void MinMaxProblem::validate() const {
  const std::size_t d = num_devices();
  if (head_cost.size() != d || cache_cost.size() != d || mem_free.size() != d) {
    throw std::invalid_argument("MinMaxProblem: device array size mismatch");
  }
  if (cache_per_head.size() != num_requests()) {
    throw std::invalid_argument("MinMaxProblem: request array size mismatch");
  }
  if (group_size < 1) throw std::invalid_argument("MinMaxProblem: group_size < 1");
  for (double h : demand) {
    if (h <= 0 || std::fmod(h, group_size) != 0.0) {
      throw std::invalid_argument("MinMaxProblem: demand must be a positive multiple of r");
    }
  }
}

namespace {

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

}  // namespace

MinMaxSolution solve_relaxed(const MinMaxProblem& p) {
  Problem lp;
  Simplex solver;
  return solve_relaxed(p, lp, solver);
}

MinMaxSolution solve_relaxed(const MinMaxProblem& p, Problem& lp, Simplex& solver) {
  // Non-finite numeric inputs (a profiler fit gone wrong, an impossible
  // cost-model query) come back as a typed kMalformed status before the
  // shape validation below, which throws only on API misuse.
  if (!all_finite(p.base_time) || !all_finite(p.head_cost) || !all_finite(p.cache_cost) ||
      !all_finite(p.mem_free) || !all_finite(p.demand) || !all_finite(p.cache_per_head)) {
    MinMaxSolution bad;
    bad.status = Status::kMalformed;
    return bad;
  }
  p.validate();
  const std::size_t d = p.num_devices();
  const std::size_t j = p.num_requests();
  MinMaxSolution out;
  if (j == 0 || d == 0) {
    out.status = Status::kOptimal;
    out.objective = d == 0 ? 0.0
                           : *std::max_element(p.base_time.begin(), p.base_time.end());
    out.heads.assign(d, std::vector<double>(j, 0.0));
    return out;
  }

  // Variable layout: [t, x_00..x_0(J-1), x_10.., ...] (device-major).
  const std::size_t n = 1 + d * j;
  auto xvar = [j](std::size_t dev, std::size_t req) { return 1 + dev * j + req; };

  // The LP is filled in place -- every coefficient below is assigned, so a
  // recycled `lp` only contributes its vectors' capacity, never values.
  lp.num_vars = n;
  lp.objective.assign(n, 0.0);
  lp.objective[0] = 1.0;  // min t
  // Min-max objectives are massively degenerate: loading an idle device up
  // to the current max is "free".  A tiny secondary objective proportional
  // to each assignment's own cost steers the solver toward the placement
  // with the least total (communication-inclusive) work, so heads stay
  // local unless offloading actually lowers the bottleneck.
  const double kTieBreak = 1e-3;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t r = 0; r < j; ++r) {
      lp.objective[xvar(i, r)] =
          kTieBreak * (p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[r]);
    }
  }

  lp.constraints.resize(d + j + d);
  std::size_t cr = 0;
  auto next_row = [&lp, &cr, n](Relation relation, double rhs) -> std::vector<double>& {
    Constraint& c = lp.constraints[cr++];
    c.coeffs.assign(n, 0.0);
    c.rel = relation;
    c.rhs = rhs;
    return c.coeffs;
  };

  // f_i - t <= -base[i]  (rearranged so rhs is constant).
  for (std::size_t i = 0; i < d; ++i) {
    std::vector<double>& row = next_row(Relation::kLe, -p.base_time[i]);
    row[0] = -1.0;
    for (std::size_t r = 0; r < j; ++r) {
      row[xvar(i, r)] = p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[r];
    }
  }
  // Head integrity.
  for (std::size_t r = 0; r < j; ++r) {
    std::vector<double>& row = next_row(Relation::kEq, p.demand[r]);
    for (std::size_t i = 0; i < d; ++i) row[xvar(i, r)] = 1.0;
  }
  // Memory.
  for (std::size_t i = 0; i < d; ++i) {
    std::vector<double>& row = next_row(Relation::kLe, std::max(0.0, p.mem_free[i]));
    for (std::size_t r = 0; r < j; ++r) row[xvar(i, r)] = p.cache_per_head[r];
  }

  Solution sol = solver.solve(lp);
  out.status = sol.status;
  if (!sol.ok()) return out;
  out.objective = sol.x[0];
  out.heads.assign(d, std::vector<double>(j, 0.0));
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t r = 0; r < j; ++r) out.heads[i][r] = sol.x[xvar(i, r)];
  }
  return out;
}

namespace {

double device_load(const MinMaxProblem& p, std::size_t i,
                   const std::vector<std::vector<int>>& heads) {
  double load = p.base_time[i];
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    load += (p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[r]) * heads[i][r];
  }
  return load;
}

double device_mem_used(const MinMaxProblem& p, std::size_t i,
                       const std::vector<std::vector<int>>& heads) {
  double used = 0.0;
  for (std::size_t r = 0; r < p.num_requests(); ++r) {
    used += p.cache_per_head[r] * heads[i][r];
  }
  return used;
}

}  // namespace

double eval_makespan(const MinMaxProblem& p, const std::vector<std::vector<int>>& heads) {
  double worst = 0.0;
  for (std::size_t i = 0; i < p.num_devices(); ++i) {
    worst = std::max(worst, device_load(p, i, heads));
  }
  return worst;
}

std::vector<std::vector<int>> round_to_groups(const MinMaxProblem& p,
                                              const MinMaxSolution& relaxed) {
  const std::size_t d = p.num_devices();
  const std::size_t j = p.num_requests();
  std::vector<std::vector<int>> heads(d, std::vector<int>(j, 0));
  if (!relaxed.ok()) return heads;
  const int r_sz = p.group_size;

  // Largest-remainder rounding per request (column sums must equal demand).
  for (std::size_t r = 0; r < j; ++r) {
    const int groups_needed = static_cast<int>(p.demand[r]) / r_sz;
    std::vector<double> frac(d);
    int assigned = 0;
    for (std::size_t i = 0; i < d; ++i) {
      double g = relaxed.heads[i][r] / r_sz;
      int whole = static_cast<int>(std::floor(g + 1e-9));
      heads[i][r] = whole * r_sz;
      assigned += whole;
      frac[i] = g - whole;
    }
    // Distribute the remaining groups to the largest fractional parts.
    std::vector<std::size_t> order(d);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&frac](std::size_t a, std::size_t b) { return frac[a] > frac[b]; });
    for (std::size_t k = 0; assigned < groups_needed && k < d; ++k) {
      heads[order[k]][r] += r_sz;
      ++assigned;
    }
    // Over-assignment can't happen with floor(), but guard anyway.
    for (std::size_t k = d; assigned > groups_needed && k-- > 0;) {
      std::size_t i = order[k];
      while (heads[i][r] >= r_sz && assigned > groups_needed) {
        heads[i][r] -= r_sz;
        --assigned;
      }
    }
  }

  // Memory repair: move whole groups off over-committed devices onto the
  // device with the most free memory (then least load).
  for (std::size_t i = 0; i < d; ++i) {
    int guard = 0;
    while (device_mem_used(p, i, heads) > p.mem_free[i] + 1e-6 && guard++ < 4096) {
      // Pick the request with the largest cache-per-head footprint on i.
      std::size_t victim = j;
      for (std::size_t r = 0; r < j; ++r) {
        if (heads[i][r] >= p.group_size &&
            (victim == j || p.cache_per_head[r] > p.cache_per_head[victim])) {
          victim = r;
        }
      }
      if (victim == j) break;  // nothing movable
      // Receiver: feasible device with minimal resulting load.
      std::size_t best = d;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < d; ++k) {
        if (k == i) continue;
        double need = p.cache_per_head[victim] * p.group_size;
        if (device_mem_used(p, k, heads) + need > p.mem_free[k] + 1e-6) continue;
        double load = device_load(p, k, heads);
        if (load < best_load) {
          best_load = load;
          best = k;
        }
      }
      if (best == d) break;  // cluster exhausted; caller handles eviction
      heads[i][victim] -= p.group_size;
      heads[best][victim] += p.group_size;
    }
  }
  return heads;
}

std::vector<std::vector<int>> greedy_dispatch(const MinMaxProblem& p) {
  p.validate();
  std::vector<std::vector<int>> heads;
  std::vector<double> load;
  std::vector<double> mem_used;
  greedy_dispatch_into(p, heads, load, mem_used);
  return heads;
}

void greedy_dispatch_into(const MinMaxProblem& p, std::vector<std::vector<int>>& heads,
                          std::vector<double>& load, std::vector<double>& mem_used) {
  const std::size_t d = p.num_devices();
  const std::size_t j = p.num_requests();
  heads.resize(d);
  for (std::vector<int>& row : heads) row.assign(j, 0);
  load.assign(p.base_time.begin(), p.base_time.end());
  mem_used.assign(d, 0.0);

  for (std::size_t r = 0; r < j; ++r) {
    const int groups = static_cast<int>(p.demand[r]) / p.group_size;
    for (int g = 0; g < groups; ++g) {
      std::size_t best = d;
      double best_load = std::numeric_limits<double>::infinity();
      const double mem_need = p.cache_per_head[r] * p.group_size;
      for (std::size_t i = 0; i < d; ++i) {
        if (mem_used[i] + mem_need > p.mem_free[i] + 1e-6) continue;
        double new_load =
            load[i] + (p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[r]) * p.group_size;
        if (new_load < best_load) {
          best_load = new_load;
          best = i;
        }
      }
      if (best == d) return;  // out of memory; caller must evict
      heads[best][r] += p.group_size;
      load[best] = best_load;
      mem_used[best] += mem_need;
    }
  }
}

}  // namespace hetis::lp
