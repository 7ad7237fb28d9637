// MetricsRegistry: counters, gauges and fixed-bucket histograms sampled
// into a time-series table.
//
// Series are created once (returning a dense integer handle) and updated
// through the handle, so the per-event cost is an array index -- never a
// string lookup.  Labels are encoded into the series name with Prometheus
// syntax (`arrivals_total{tenant=chat}` via labeled()); the registry treats
// the whole string as opaque.
//
// sample(now) appends one row of every counter/gauge value to the table, so
// SLO attainment, kv_fill_fraction, queue depth and arrival rate become
// plottable curves instead of one end-of-run number.  A series created
// after sampling started is back-filled with zeros, keeping the table
// rectangular.  Histograms accumulate over the whole run (fixed upper
// bounds + overflow bucket) and serialize to their own cumulative-count CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.h"

namespace hetis::telemetry {

/// End-of-run snapshot of one histogram.  `cumulative[i]` counts
/// observations <= `upper_bounds[i]`; the final entry (the +inf bucket)
/// equals `count`.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_bounds;        // ascending, finite
  std::vector<std::uint64_t> cumulative;   // size upper_bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0;
};

class MetricsRegistry {
 public:
  /// Creates (or returns the existing handle of) a monotonically-increasing
  /// counter / last-value gauge.  Handles index a dense array; create once,
  /// update per event.
  int counter(const std::string& name);
  int gauge(const std::string& name);
  /// Creates a histogram with the given finite bucket upper bounds
  /// (sorted ascending internally); an overflow (+inf) bucket is implicit.
  /// Histogram handles share the counter/gauge space -- use observe().
  int histogram(const std::string& name, std::vector<double> upper_bounds);

  void add(int handle, double delta = 1.0) { series_[static_cast<std::size_t>(handle)].value += delta; }
  void set(int handle, double value) { series_[static_cast<std::size_t>(handle)].value = value; }
  void observe(int handle, double value);

  /// Current value of a counter/gauge.
  double value(int handle) const { return series_[static_cast<std::size_t>(handle)].value; }

  /// Appends one row (every counter/gauge's current value at `now`) to the
  /// time-series table.
  void sample(Seconds now);

  std::size_t series_count() const { return series_.size(); }
  std::size_t sample_count() const { return times_.size(); }
  const std::vector<Seconds>& sample_times() const { return times_; }
  const std::string& series_name(int handle) const {
    return series_[static_cast<std::size_t>(handle)].name;
  }
  /// 'c' counter, 'g' gauge, 'h' histogram.
  char series_kind(int handle) const { return series_[static_cast<std::size_t>(handle)].kind; }
  /// The sampled curve of a counter/gauge (one entry per sample()).
  const std::vector<double>& samples(int handle) const {
    return series_[static_cast<std::size_t>(handle)].samples;
  }
  /// Handle of the named series, or -1 when absent.
  int find(const std::string& name) const;

  /// Maximum sampled value of a counter/gauge and (optionally) when it was
  /// sampled -- "worst queue-depth instant".  Returns 0 with *at = 0 when
  /// the series was never sampled.
  double max_sample(int handle, Seconds* at = nullptr) const;

  std::vector<HistogramSnapshot> histograms() const;

  /// Time-series table as CSV: header "time,<series...>", one row per
  /// sample, doubles in %.17g (exact round-trip).
  void write_series_csv(std::ostream& os) const;
  /// Same table as JSON: {"columns":[...],"rows":[[t,v...],...]}.
  void write_series_json(std::ostream& os) const;
  /// Histograms as cumulative-count CSV ("histogram,le,count"; le "+inf"
  /// closes each histogram).
  void write_histograms_csv(std::ostream& os) const;

  /// Label-encoding helper: `name{key=value}`.
  static std::string labeled(const std::string& name, const std::string& key,
                             const std::string& value);

 private:
  struct Series {
    std::string name;
    char kind = 'g';
    double value = 0;
    std::vector<double> samples;  // one per sample(); zero-padded pre-creation
    // Histogram state (kind 'h' only).
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> buckets;  // size upper_bounds.size() + 1
    std::uint64_t count = 0;
    double sum = 0;
  };

  int create(const std::string& name, char kind);

  std::vector<Series> series_;
  std::vector<Seconds> times_;
};

}  // namespace hetis::telemetry
