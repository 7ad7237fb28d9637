#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hetis {

double Summary::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double Summary::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Summary::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::stddev() const {
  if (values_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Summary::percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  auto lo_idx = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo_idx);
  if (lo_idx + 1 >= values_.size()) return max();
  // Selection, not a full sort: nth_element puts the sorted order's lo-th
  // value at `lo` and only larger-or-equal values above it, so the minimum
  // of the upper part is the (lo+1)-th.
  std::vector<double> v = values_;
  const auto lo = v.begin() + static_cast<std::ptrdiff_t>(lo_idx);
  std::nth_element(v.begin(), lo, v.end());
  return *lo * (1.0 - frac) + *std::min_element(lo + 1, v.end()) * frac;
}

void Summary::merge(const Summary& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

}  // namespace hetis
