#include "telemetry/registry.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "engine/engine.h"  // csv_double / csv_field / json_escape

namespace hetis::telemetry {

int MetricsRegistry::create(const std::string& name, char kind) {
  const int existing = find(name);
  if (existing >= 0) {
    if (series_[static_cast<std::size_t>(existing)].kind != kind) {
      throw std::invalid_argument("MetricsRegistry: series '" + name +
                                  "' already exists with a different kind");
    }
    return existing;
  }
  Series s;
  s.name = name;
  s.kind = kind;
  // A series born mid-run back-fills zeros so the table stays rectangular
  // (a tenant whose first request arrives at t=30 had zero arrivals before).
  s.samples.assign(times_.size(), 0.0);
  series_.push_back(std::move(s));
  return static_cast<int>(series_.size()) - 1;
}

int MetricsRegistry::counter(const std::string& name) { return create(name, 'c'); }

int MetricsRegistry::gauge(const std::string& name) { return create(name, 'g'); }

int MetricsRegistry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  const int h = create(name, 'h');
  Series& s = series_[static_cast<std::size_t>(h)];
  if (s.buckets.empty()) {
    std::sort(upper_bounds.begin(), upper_bounds.end());
    s.upper_bounds = std::move(upper_bounds);
    s.buckets.assign(s.upper_bounds.size() + 1, 0);
  }
  return h;
}

void MetricsRegistry::observe(int handle, double value) {
  Series& s = series_[static_cast<std::size_t>(handle)];
  const auto it = std::lower_bound(s.upper_bounds.begin(), s.upper_bounds.end(), value);
  ++s.buckets[static_cast<std::size_t>(it - s.upper_bounds.begin())];
  ++s.count;
  s.sum += value;
}

void MetricsRegistry::sample(Seconds now) {
  times_.push_back(now);
  for (Series& s : series_) {
    if (s.kind == 'h') continue;
    s.samples.push_back(s.value);
  }
}

int MetricsRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double MetricsRegistry::max_sample(int handle, Seconds* at) const {
  const Series& s = series_[static_cast<std::size_t>(handle)];
  double best = 0;
  Seconds best_t = 0;
  bool any = false;
  for (std::size_t i = 0; i < s.samples.size() && i < times_.size(); ++i) {
    if (!any || s.samples[i] > best) {
      best = s.samples[i];
      best_t = times_[i];
      any = true;
    }
  }
  if (at != nullptr) *at = any ? best_t : 0;
  return any ? best : 0;
}

std::vector<HistogramSnapshot> MetricsRegistry::histograms() const {
  std::vector<HistogramSnapshot> out;
  for (const Series& s : series_) {
    if (s.kind != 'h') continue;
    HistogramSnapshot snap;
    snap.name = s.name;
    snap.upper_bounds = s.upper_bounds;
    snap.cumulative.reserve(s.buckets.size());
    std::uint64_t running = 0;
    for (const std::uint64_t b : s.buckets) {
      running += b;
      snap.cumulative.push_back(running);
    }
    snap.count = s.count;
    snap.sum = s.sum;
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::write_series_csv(std::ostream& os) const {
  os << "time";
  for (const Series& s : series_) {
    if (s.kind == 'h') continue;
    os << ',' << engine::csv_field(s.name);
  }
  os << '\n';
  for (std::size_t row = 0; row < times_.size(); ++row) {
    os << engine::csv_double(times_[row]);
    for (const Series& s : series_) {
      if (s.kind == 'h') continue;
      os << ',' << engine::csv_double(row < s.samples.size() ? s.samples[row] : 0.0);
    }
    os << '\n';
  }
}

void MetricsRegistry::write_series_json(std::ostream& os) const {
  os << "{\"columns\":[\"time\"";
  for (const Series& s : series_) {
    if (s.kind == 'h') continue;
    os << ",\"" << engine::json_escape(s.name) << "\"";
  }
  os << "],\"rows\":[";
  for (std::size_t row = 0; row < times_.size(); ++row) {
    os << (row ? ",\n " : "\n ") << '[' << engine::csv_double(times_[row]);
    for (const Series& s : series_) {
      if (s.kind == 'h') continue;
      os << ',' << engine::csv_double(row < s.samples.size() ? s.samples[row] : 0.0);
    }
    os << ']';
  }
  os << "\n]}\n";
}

void MetricsRegistry::write_histograms_csv(std::ostream& os) const {
  os << "histogram,le,count\n";
  for (const HistogramSnapshot& snap : histograms()) {
    for (std::size_t i = 0; i < snap.upper_bounds.size(); ++i) {
      os << engine::csv_field(snap.name) << ',' << engine::csv_double(snap.upper_bounds[i])
         << ',' << snap.cumulative[i] << '\n';
    }
    os << engine::csv_field(snap.name) << ",+inf," << snap.count << '\n';
  }
}

std::string MetricsRegistry::labeled(const std::string& name, const std::string& key,
                                     const std::string& value) {
  return name + "{" + key + "=" + value + "}";
}

}  // namespace hetis::telemetry
