// Trace builder: arrival process x dataset sampler -> request list.
// Plus trace record/replay: any generated trace (build_trace or a scenario)
// can be persisted as CSV and replayed byte-identically across runs and
// machines -- the arrival column round-trips doubles exactly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/arrivals.h"
#include "workload/datasets.h"
#include "workload/request.h"

namespace hetis::workload {

struct TraceOptions {
  Dataset dataset = Dataset::kShareGPT;
  std::uint64_t seed = 42;
  // Stationary mode: rate > 0 with horizon.
  double rate = 1.0;
  Seconds horizon = 60.0;
  // When non-empty, overrides (rate, horizon) with piecewise segments.
  std::vector<RateSegment> segments;
};

/// Builds a sorted request trace.  Ids are assigned 0..n-1 in arrival
/// order.
std::vector<Request> build_trace(const TraceOptions& opts);

/// Assembles a trace from precomputed arrival times: ids 0..n-1 in arrival
/// order, one (prompt, output) length pair drawn from `dataset` per request
/// in that same order.  Shared by build_trace and the scenario generators so
/// both consume the length RNG with the identical discipline.
std::vector<Request> assemble_trace(const std::vector<Seconds>& times, Dataset dataset,
                                    Rng& length_rng);

/// Writes `trace` as CSV with header `id,arrival,prompt_len,output_len,
/// tenant`; arrivals use %.17g so every finite double round-trips exactly.
void save_trace(std::ostream& os, const std::vector<Request>& trace);
/// File overload; throws std::runtime_error when `path` cannot be written.
void save_trace(const std::string& path, const std::vector<Request>& trace);

/// Inverse of save_trace.  Validates the header, every row arity, the
/// arrivals (finite, >= 0, non-decreasing), the ids (>= 0, unique) and the
/// lengths (>= 1); throws std::invalid_argument naming the line on
/// malformed input.  load_trace(save_trace
/// (t)) == t field-for-field, so replayed experiments are byte-identical
/// to the generating run.
std::vector<Request> load_trace(std::istream& is);
/// File overload; throws std::runtime_error when `path` cannot be read.
std::vector<Request> load_trace(const std::string& path);

/// Summary statistics of a trace for logging.
struct TraceStats {
  std::size_t count = 0;
  double mean_prompt = 0;
  double mean_output = 0;
  Seconds span = 0;
};
TraceStats trace_stats(const std::vector<Request>& trace);

}  // namespace hetis::workload
