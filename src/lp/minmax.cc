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

/// The one-request LP in per-device terms: a_i, the heads each device's
/// memory holds, and the devices cheapest first (ties by index).  A device
/// with a_i <= 0 is capped by memory alone.  Every base is a lower bound on
/// the bottleneck t.
struct OneRequest {
  explicit OneRequest(const MinMaxProblem& p)
      : base(p.base_time), demand(p.demand[0]), order(p.num_devices()) {
    const double c = p.cache_per_head[0];
    for (std::size_t i = 0; i < p.num_devices(); ++i) {
      cost.push_back(p.head_cost[i] + p.cache_cost[i] * c);
      room.push_back(c > 0.0 ? std::max(0.0, p.mem_free[i]) / c
                             : std::numeric_limits<double>::infinity());
      min_t = std::max(min_t, base[i]);
    }
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  }

  /// Bottleneck at which device i's time cap reaches its memory cap.
  double knee(std::size_t i) const {
    return cost[i] > 0.0 ? base[i] + cost[i] * room[i] : -std::numeric_limits<double>::infinity();
  }

  /// Heads device i can take under bottleneck t >= min_t.
  double cap(std::size_t i, double t) const {
    return cost[i] > 0.0 ? std::min(room[i], (t - base[i]) / cost[i]) : room[i];
  }

  /// Smallest t >= min_t at which the n cheapest devices hold the whole
  /// demand; +inf when they never do.  Their total cap is concave and
  /// piecewise linear in t, with kinks at the knees.
  double level(std::size_t n) const {
    const auto supply = [&](double t) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += cap(order[k], t);
      return s;
    };
    std::vector<double> knees{std::numeric_limits<double>::infinity()};
    for (std::size_t k = 0; k < n; ++k) {
      if (knee(order[k]) > min_t) knees.push_back(knee(order[k]));
    }
    std::sort(knees.begin(), knees.end());
    double t = min_t;
    for (double next : knees) {
      const double s = supply(t);
      if (s >= demand) return t;
      double slope = 0.0;  // heads per second of the devices still time-bound
      for (std::size_t k = 0; k < n; ++k) {
        if (knee(order[k]) > t) slope += 1.0 / cost[order[k]];
      }
      if (slope <= 0.0) break;
      const double hit = t + (demand - s) / slope;
      if (hit <= next) return hit;
      t = next;
    }
    return std::numeric_limits<double>::infinity();
  }

  /// Fractional knapsack under bottleneck t: fills `x` cheapest first and
  /// returns sum_i a_i x_i.  (t - base_i) / a_i loses digits when a_i x_i
  /// is tiny against the base, so a breakpoint can leave a sliver of the
  /// demand unplaced; it goes to the cheapest devices with memory to spare,
  /// whose time caps it moves by a few ulps.
  double fill(double t, std::vector<double>& x) const {
    x.assign(cost.size(), 0.0);
    double left = demand;
    double work = 0.0;
    const auto place = [&](std::size_t i, double limit) {
      const double take = std::min(limit - x[i], left);
      if (take <= 0.0) return;
      x[i] += take;
      left -= take;
      work += cost[i] * take;
    };
    for (std::size_t i : order) place(i, cap(i, t));
    for (std::size_t i : order) place(i, room[i]);
    return work;
  }

  const std::vector<double>& base;
  double demand;
  std::vector<double> cost;
  std::vector<double> room;
  std::vector<std::size_t> order;
  double min_t = -std::numeric_limits<double>::infinity();
};

}  // namespace

MinMaxSolution solve_one(const MinMaxProblem& p) {
  MinMaxSolution out;
  // Non-finite numeric inputs (a profiler fit gone wrong, an impossible
  // cost-model query) come back as a typed kMalformed status before the
  // shape validation below, which throws only on API misuse.
  if (!all_finite(p.base_time) || !all_finite(p.head_cost) || !all_finite(p.cache_cost) ||
      !all_finite(p.mem_free) || !all_finite(p.demand) || !all_finite(p.cache_per_head)) {
    out.status = Status::kMalformed;
    return out;
  }
  p.validate();
  if (p.num_requests() != 1) throw std::invalid_argument("solve_one: needs exactly one request");
  const std::size_t d = p.num_devices();
  const OneRequest lp(p);
  const double lowest = lp.level(d);
  if (!std::isfinite(lowest)) {
    out.status = Status::kInfeasible;
    return out;
  }

  // The objective t + kTieBreak * work(t) is convex and piecewise linear on
  // t >= lowest; it bends only where a device turns memory-bound (a knee)
  // or where the cheapest n devices alone first hold the demand (a level).
  std::vector<double> candidates{lowest};
  for (std::size_t i = 0; i < d; ++i) candidates.push_back(lp.knee(i));
  for (std::size_t n = 1; n < d; ++n) candidates.push_back(lp.level(n));
  std::sort(candidates.begin(), candidates.end());
  double best_t = lowest;
  double best = std::numeric_limits<double>::infinity();
  for (double t : candidates) {
    if (t < lowest || !std::isfinite(t)) continue;
    const double value = t + kTieBreak * lp.fill(t, out.heads);
    if (value < best) {
      best = value;
      best_t = t;
    }
  }
  lp.fill(best_t, out.heads);
  out.bottleneck = lp.min_t;
  for (std::size_t i = 0; i < d; ++i) {
    out.bottleneck = std::max(out.bottleneck, p.base_time[i] + lp.cost[i] * out.heads[i]);
  }
  out.status = Status::kOptimal;
  return out;
}

double eval_makespan(const MinMaxProblem& p, const std::vector<std::vector<int>>& heads) {
  double worst = 0.0;
  for (std::size_t i = 0; i < p.num_devices(); ++i) {
    double load = p.base_time[i];
    for (std::size_t r = 0; r < p.num_requests(); ++r) {
      load += (p.head_cost[i] + p.cache_cost[i] * p.cache_per_head[r]) * heads[i][r];
    }
    worst = std::max(worst, load);
  }
  return worst;
}

std::vector<int> round_to_groups(const MinMaxProblem& p, const MinMaxSolution& relaxed) {
  const std::size_t d = p.num_devices();
  std::vector<int> heads(d, 0);
  if (!relaxed.ok()) return heads;
  const int r = p.group_size;
  const int needed = static_cast<int>(p.demand[0]) / r;
  const double group_bytes = p.cache_per_head[0] * r;
  // Whole groups each device's memory holds (the waterfill's 1e-6 byte
  // slack), then the floor of each continuous share within it.
  std::vector<int> room(d);
  int missing = needed;
  for (std::size_t i = 0; i < d; ++i) {
    const double fits = group_bytes > 0.0
                            ? std::floor((std::max(0.0, p.mem_free[i]) + 1e-6) / group_bytes)
                            : needed;
    room[i] = static_cast<int>(std::min<double>(fits, needed));
    const int whole =
        std::min(room[i], static_cast<int>(std::floor(relaxed.heads[i] / r + 1e-9)));
    heads[i] = whole * r;
    missing -= whole;
  }
  // Largest remainder: each missing group goes to the device with room
  // whose continuous share most exceeds what it holds (ties: lowest index).
  for (; missing > 0; --missing) {
    std::size_t best = d;
    double best_rest = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < d; ++i) {
      const double rest = relaxed.heads[i] / r - heads[i] / r;
      if (heads[i] < room[i] * r && rest > best_rest) {
        best_rest = rest;
        best = i;
      }
    }
    if (best == d) break;  // the groups do not fit
    heads[best] += r;
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
