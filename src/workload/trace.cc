#include "workload/trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace hetis::workload {

namespace {

// Stable record/replay column order; kept append-only like the report CSVs.
constexpr const char* kTraceHeader = "id,arrival,prompt_len,output_len,tenant";

}  // namespace

std::string Request::to_string() const {
  std::ostringstream oss;
  oss << "Request{" << id << " @" << arrival << "s, prompt=" << prompt_len
      << ", output=" << output_len;
  if (tenant != 0) oss << ", tenant=" << tenant;
  oss << "}";
  return oss.str();
}

std::vector<Request> assemble_trace(const std::vector<Seconds>& times, Dataset dataset,
                                    Rng& length_rng) {
  std::vector<Request> trace;
  trace.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    LengthSample len = sample_lengths(dataset, length_rng);
    Request r;
    r.id = static_cast<RequestId>(i);
    r.arrival = times[i];
    r.prompt_len = len.prompt_len;
    r.output_len = len.output_len;
    trace.push_back(r);
  }
  return trace;
}

std::vector<Request> build_trace(const TraceOptions& opts) {
  Rng rng(opts.seed);
  Rng arrival_rng = rng.fork(1);
  Rng length_rng = rng.fork(2);

  std::vector<Seconds> times =
      opts.segments.empty() ? generate_poisson(opts.rate, opts.horizon, arrival_rng)
                            : generate_arrivals(opts.segments, arrival_rng);
  return assemble_trace(times, opts.dataset, length_rng);
}

void save_trace(std::ostream& os, const std::vector<Request>& trace) {
  os << kTraceHeader << '\n';
  char arrival[64];
  for (const Request& r : trace) {
    // %.17g round-trips every finite double exactly (same discipline as
    // RunReport::to_csv_row).
    std::snprintf(arrival, sizeof(arrival), "%.17g", r.arrival);
    os << r.id << ',' << arrival << ',' << r.prompt_len << ',' << r.output_len << ','
       << r.tenant << '\n';
  }
}

void save_trace(const std::string& path, const std::vector<Request>& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_trace: cannot write '" + path + "'");
  save_trace(os, trace);
  if (!os) throw std::runtime_error("save_trace: write to '" + path + "' failed");
}

std::vector<Request> load_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kTraceHeader) {
    throw std::invalid_argument("load_trace: missing or unexpected header (want '" +
                                std::string(kTraceHeader) + "')");
  }
  std::vector<Request> trace;
  std::unordered_set<RequestId> ids;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream cells(line);
    std::string cell;
    std::vector<std::string> fields;
    while (std::getline(cells, cell, ',')) fields.push_back(cell);
    if (fields.size() != 5) {
      throw std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                  " has " + std::to_string(fields.size()) +
                                  " cells, expected 5");
    }
    // Whole-cell parses: stoll/stod alone accept numeric prefixes ("12abc"
    // -> 12), which would silently corrupt a "byte-identical" replay.
    auto bad = [&]() -> std::invalid_argument {
      return std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                   " is not numeric: '" + line + "'");
    };
    Request r;
    try {
      std::size_t pos = 0;
      r.id = static_cast<RequestId>(std::stoll(fields[0], &pos));
      if (pos != fields[0].size()) throw bad();
      r.arrival = std::stod(fields[1], &pos);
      if (pos != fields[1].size()) throw bad();
      r.prompt_len = std::stoll(fields[2], &pos);
      if (pos != fields[2].size()) throw bad();
      r.output_len = std::stoll(fields[3], &pos);
      if (pos != fields[3].size()) throw bad();
      r.tenant = std::stoi(fields[4], &pos);
      if (pos != fields[4].size()) throw bad();
    } catch (const std::invalid_argument&) {
      throw bad();
    } catch (const std::out_of_range&) {
      throw bad();
    }
    // stod parses "nan" and "inf" as whole cells.  Replay needs finite,
    // non-negative, sorted arrivals: run_trace streams them in order and
    // takes its drain horizon from the last one.
    if (!std::isfinite(r.arrival) || r.arrival < 0.0) {
      throw std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                  " has arrival '" + fields[1] +
                                  "', expected a finite time >= 0");
    }
    if (!trace.empty() && r.arrival < trace.back().arrival) {
      throw std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                  " arrives before the previous row (arrivals must be "
                                  "non-decreasing)");
    }
    // Every engine keys its bookkeeping by id and serves at least one
    // prompt and one output token, so a repeated id or an empty length
    // would fail mid-run or be "served" with nonsense metrics.
    if (r.id < 0 || r.id >= kDenseIdLimit || !ids.insert(r.id).second) {
      throw std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                  " has id '" + fields[0] + "', expected an id in [0, " +
                                  std::to_string(kDenseIdLimit) + ") not used before");
    }
    if (r.prompt_len < 1 || r.output_len < 1) {
      throw std::invalid_argument("load_trace: line " + std::to_string(line_no) +
                                  " has prompt_len '" + fields[2] + "' and output_len '" +
                                  fields[3] + "', expected both >= 1");
    }
    trace.push_back(r);
  }
  return trace;
}

std::vector<Request> load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_trace: cannot read '" + path + "'");
  return load_trace(is);
}

TraceStats trace_stats(const std::vector<Request>& trace) {
  TraceStats s;
  s.count = trace.size();
  if (trace.empty()) return s;
  double prompt_sum = 0, output_sum = 0;
  for (const auto& r : trace) {
    prompt_sum += static_cast<double>(r.prompt_len);
    output_sum += static_cast<double>(r.output_len);
  }
  s.mean_prompt = prompt_sum / static_cast<double>(trace.size());
  s.mean_output = output_sum / static_cast<double>(trace.size());
  s.span = trace.back().arrival - trace.front().arrival;
  return s;
}

}  // namespace hetis::workload
