// Serving-engine interface and the trace runner.
//
// An Engine owns serving instances and self-schedules iteration events on
// the simulation; the runner feeds it a request trace and collects the
// final metrics.  Splitwise, HexGen and Hetis all implement this interface
// so every experiment harness treats them uniformly.  Construct engines by
// name through engine/registry.h; configure a run through RunOptions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/metrics.h"
#include "sim/simulation.h"
#include "workload/request.h"

namespace hetis::telemetry {
class Telemetry;
}

namespace hetis::engine {

/// Hot-path accounting counters, cumulative over an engine's lifetime.
/// `lp_solves` counts Hetis dispatch solves (exact one-request LP solves
/// plus greedy waterfills, see dispatch::Dispatcher::lp_solves), `costmodel_hits` the
/// dense-stage cost-model memo hits (ExecModel::cost_cache_hits).  Purely
/// observational: the memo returns results bit-identical to recomputation,
/// so neither counter ever changes a decision.
struct PerfCounters {
  std::uint64_t lp_solves = 0;
  std::uint64_t costmodel_hits = 0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// Called once before any arrival (engines may schedule periodic events).
  virtual void start(sim::Simulation& sim) { (void)sim; }

  /// Called at each request's arrival time.
  virtual void submit(sim::Simulation& sim, const workload::Request& r) = 0;

  /// Total KV-cache bytes the deployment can actually use (Fig. 11).  For
  /// parameter-split systems this is limited by the first stage to fill up;
  /// see each engine's implementation.
  virtual Bytes usable_kv_capacity() const = 0;

  /// Fraction of the deployment's KV budget currently in use (worst
  /// instance) -- the control plane's memory-pressure signal.  Engines that
  /// do not track live usage may report 0.
  virtual double kv_fill_fraction() const { return 0.0; }

  /// Cumulative hot-path cache counters (see PerfCounters).  Engines that
  /// do not memoize report all-zero.
  virtual PerfCounters perf_counters() const { return {}; }

  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }

 protected:
  MetricsCollector metrics_;
};

/// Per-request latency targets (§7-style SLOs).  A target <= 0 disables
/// that term.  When set on RunOptions, the report gains attainment
/// fractions and goodput -- the headline metric of phase-split serving
/// evaluations (Splitwise, Helix).
struct SloSpec {
  Seconds ttft = 0;  // time-to-first-token target, per request
  Seconds tpot = 0;  // time-per-output-token target, per request
};

/// Configuration of one run_trace call.
struct RunOptions {
  RunOptions() = default;
  explicit RunOptions(Seconds drain) : drain_timeout(drain) {}

  /// Seconds to keep simulating after the last arrival.  When the engine
  /// has not drained by then the report sets `drain_timeout_hit` instead
  /// of silently truncating percentiles.
  Seconds drain_timeout = 600.0;
  /// Requests arriving before `warmup` seconds are served but excluded
  /// from latency percentiles, SLO attainment and goodput.
  Seconds warmup = 0.0;
  /// When set, the report includes SLO attainment and goodput.
  std::optional<SloSpec> slo;
  /// Optional per-request lifecycle stream (not owned; may be nullptr);
  /// the first sink on the engine's event bus.
  RunObserver* observer = nullptr;
  /// Optional telemetry session (not owned; may be nullptr).  run_trace
  /// calls Telemetry::attach, which subscribes it to the bus after
  /// `observer` and starts its sampler on the run's simulation; export
  /// (write_artifacts) is the caller's job after the run returns.
  telemetry::Telemetry* telemetry = nullptr;
  /// Called once by run_trace after Engine::start and sink attachment
  /// but before the first arrival -- the hook the elastic control plane
  /// (control::Controller::starter) uses to schedule churn events and
  /// policy ticks on the run's private simulation.
  std::function<void(sim::Simulation&, Engine&)> on_start;
};

struct RunReport {
  std::string engine;
  std::size_t arrived = 0;
  std::size_t finished = 0;
  std::size_t measured = 0;       // finished requests outside the warmup window
  double norm_latency_mean = 0;   // s/token
  double norm_latency_p95 = 0;
  double ttft_p95 = 0;
  double tpot_p95 = 0;
  double mlp_module_p95 = 0;
  double attn_module_p95 = 0;
  double throughput = 0;          // finished requests / makespan
  int preemptions = 0;
  Bytes usable_kv = 0;
  Seconds makespan = 0;
  /// True when the run was cut off by RunOptions::drain_timeout with
  /// requests still in flight -- percentiles then under-count the tail.
  bool drain_timeout_hit = false;

  // SLO block -- populated only when RunOptions::slo was set.  Attainment
  // fractions are over every post-warmup ARRIVAL: a request that never
  // finished counts as a miss, so truncated runs cannot grade only the
  // survivors.  Goodput divides by the measured span (first post-warmup
  // arrival to last post-warmup completion), the same population.
  bool slo_set = false;
  Seconds slo_ttft = 0;           // echoed targets
  Seconds slo_tpot = 0;
  double ttft_attainment = 0;     // fraction of post-warmup arrivals meeting TTFT
  double tpot_attainment = 0;
  double slo_attainment = 0;      // fraction meeting BOTH targets
  double goodput = 0;             // SLO-attaining requests / measured span

  /// Human-readable warning ("" when clean); non-empty iff drain_timeout_hit.
  std::string warning() const;

  // Stable flat serialization, shared by the harness sweep runner.  The
  // column order is fixed: appending columns is allowed, reordering is not.
  static std::string csv_header();
  std::string to_csv_row() const;
  std::string to_json() const;
};

/// Feeds `trace` into the engine on a fresh simulation; runs until the
/// engine drains or `opts.drain_timeout` seconds pass after the last
/// arrival.  Every sink attached to the engine's metrics during the run is
/// detached when it returns or throws.
RunReport run_trace(Engine& engine, const std::vector<workload::Request>& trace,
                    const RunOptions& opts = RunOptions());

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).  Shared by RunReport::to_json and the
/// harness row writers.
std::string json_escape(const std::string& s);

// CSV helpers shared by RunReport and the harness sweep rows -- one
// implementation so the two serializations can never drift apart.

/// Formats a double as %.17g, which round-trips every finite value exactly.
std::string csv_double(double v);
/// Neutralizes the two characters that would break row framing (',' and
/// '\n' become spaces; rows are written unquoted).
std::string csv_field(std::string s);

// run_trace's per-request SLO grading predicates, exported so every other
// grader (harness cost columns, per-tenant summaries) shares the exact
// conventions: targets <= 0 are vacuously met, TTFT needs a prefill
// completion, single-token outputs meet TPOT trivially.

bool meets_ttft_slo(const RequestRecord& rec, const SloSpec& slo);
bool meets_tpot_slo(const RequestRecord& rec, const SloSpec& slo);
/// Both targets at once -- the "SLO-attaining request" predicate behind
/// slo_attainment, goodput and device_seconds_per_slo_request.
bool meets_slo(const RequestRecord& rec, const SloSpec& slo);

}  // namespace hetis::engine
