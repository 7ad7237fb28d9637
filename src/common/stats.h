// Online statistics used by the metrics subsystem.
//
// `Summary` keeps every sample (experiments collect at most a few hundred
// thousand values) and computes exact percentiles on demand.
#pragma once

#include <cstddef>
#include <vector>

namespace hetis {

/// Exact-percentile sample collector.
class Summary {
 public:
  Summary() = default;
  Summary(const Summary&) = default;
  Summary(Summary&&) noexcept = default;
  Summary& operator=(Summary&&) noexcept = default;
  /// Takes a right-sized copy of `other`'s samples and releases the old
  /// buffer instead of keeping it as capacity, so resetting a kept summary
  /// by assigning an empty one frees its memory.
  Summary& operator=(const Summary& other) {
    std::vector<double>(other.values_).swap(values_);
    return *this;
  }

  void add(double v) { values_.push_back(v); }
  void add_n(double v, std::size_t n) { values_.insert(values_.end(), n, v); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  double sum() const;
  double stddev() const;

  /// Exact percentile with linear interpolation; p in [0, 100].
  /// Returns 0 for an empty summary.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }

  const std::vector<double>& values() const { return values_; }
  void clear() { values_.clear(); }

  /// Merges another summary's samples into this one.
  void merge(const Summary& other);

 private:
  std::vector<double> values_;
};

}  // namespace hetis
