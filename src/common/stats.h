// Online statistics used by the metrics subsystem.
//
// `Summary` keeps every sample (experiments collect at most a few hundred
// thousand values) and computes exact percentiles on demand; `Welford`
// provides O(1)-memory mean/variance for hot paths.
#pragma once

#include <cstddef>
#include <string>
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

/// Numerically stable online mean / variance (Welford's algorithm).
class Welford {
 public:
  void add(double v);
  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double v);
  std::size_t count() const { return total_; }
  /// Count in bucket i (0-based); i == buckets() is the overflow bucket,
  /// underflow values are clamped into bucket 0.
  std::size_t bucket_count(std::size_t i) const { return counts_.at(i); }
  std::size_t buckets() const { return counts_.size() - 1; }
  double bucket_lo(std::size_t i) const;
  std::string to_string() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;  // buckets + 1 overflow
  std::size_t total_ = 0;
};

}  // namespace hetis
