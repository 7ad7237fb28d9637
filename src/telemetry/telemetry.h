// Telemetry: one observability session for one run.
//
// Owns the three tentpole pieces and feeds them from the engine's lifecycle
// stream:
//
//   * TraceRecorder   -- per-request spans + per-device occupancy tracks,
//                        exported as Chrome trace_event JSON (Perfetto);
//   * MetricsRegistry -- counters / gauges / histograms with per-tenant and
//                        per-device labels, sampled on a sim-time interval
//                        into a plottable time-series table;
//   * AuditTrail      -- the Controller's decision records, received as
//                        on_decision events on the run-event bus.
//
// Wiring: set RunOptions::telemetry (or ExperimentSpec::trace_dir for
// sweeps, or `--trace` on elastic_serving / bench_elastic).  run_trace
// calls attach(), which subscribes the session to the engine's
// MetricsCollector bus (after RunOptions::observer, before a Controller
// attached from on_start) and starts the registry sampler through
// Simulation::every.  The sampler only reads state, so serving results
// (and sweep rows) are byte-identical with telemetry on or off.
//
// The per-request state machine turns the event stream into spans:
//
//   arrival -> queue | prefill_start -> prefill | prefill_done -> decode
//   ... preempt -> preempted | prefill_start -> prefill (re-prefill) ...
//   finish closes the open span; migrate spans nest inside decode.
//
// Spans still open when the run is cut off (drain timeout) are not
// emitted -- a truncated trace shows exactly what completed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "sim/simulation.h"
#include "telemetry/audit.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace hetis::telemetry {

struct TelemetryConfig {
  /// Registry sampling period (sim seconds); <= 0 disables the sampler
  /// (spans and the audit trail still record).
  Seconds sample_interval = 0.5;
  /// Keep sampling at least through this sim time even when the engine is
  /// idle (so curves cover churn windows with nothing in flight); the
  /// sampler also runs until every arrival finished.
  Seconds horizon = 0;
  /// When set, finished requests are graded (engine::meets_slo on the
  /// attached engine's records) into the slo_attainment series.
  std::optional<engine::SloSpec> slo;
};

class Telemetry final : public engine::RunObserver {
 public:
  explicit Telemetry(TelemetryConfig cfg = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  TraceRecorder& recorder() { return recorder_; }
  const TraceRecorder& recorder() const { return recorder_; }
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  AuditTrail& audit() { return audit_; }
  const AuditTrail& audit() const { return audit_; }

  /// Subscribes the session to `engine`'s event bus and starts the
  /// registry sampler on `sim` (first row at t=0; cancelled when the
  /// session dies).  run_trace calls this after Engine::start; the session
  /// must outlive the run.
  void attach(sim::Simulation& sim, engine::Engine& engine);

  // Run-event bus sink.  A re-prefill closes a span like the first prefill;
  // only the first observes the TTFT histogram.
  void on_arrival(const workload::Request& r) override;
  void on_prefill_start(workload::RequestId id, Seconds t) override;
  void on_prefill_done(workload::RequestId id, Seconds t) override;
  void on_reprefill_done(workload::RequestId id, Seconds t) override;
  void on_token(workload::RequestId id, Seconds t, std::int64_t generated) override;
  void on_finish(workload::RequestId id, Seconds t) override;
  void on_preempt(workload::RequestId id, Seconds t) override;
  void on_migrate(workload::RequestId id, Seconds start, Seconds ready, int src_device,
                  int dst_device) override;
  void on_usage(const engine::UsageSample& s) override;
  void on_decision(const AuditRecord& rec) override { audit_.record(rec); }

  // --- Post-run export ---

  /// The full Chrome trace_event document: metadata, request spans, device
  /// occupancy counters, registry curves, audit instants.
  void write_chrome_trace(std::ostream& os) const;
  /// Writes the trace to `trace_path` plus the sibling artifacts
  /// `<base>.metrics.csv` (time-series table + histogram block) and
  /// `<base>.audit.json`, where base strips a ".trace.json" or ".json"
  /// suffix from `trace_path`.  Throws std::runtime_error when a file
  /// cannot be opened.
  void write_artifacts(const std::string& trace_path) const;
  /// [trace, metrics, audit] paths write_artifacts would produce.
  static std::vector<std::string> artifact_paths(const std::string& trace_path);

  /// The 5-line post-run digest elastic_serving --trace prints: replan
  /// count, triggers, worst queue-depth instant, request/span totals, SLO.
  std::string summary() const;

  std::size_t arrivals() const { return arrivals_; }
  std::size_t finishes() const { return finishes_; }
  std::size_t migrations() const { return migrations_; }
  std::size_t preemptions() const { return preemptions_; }

 private:
  /// The span state machine of one request; arrival, first token and
  /// tenant are read from the collector's RequestRecord.
  struct ReqState {
    enum Phase : std::uint8_t { kIdle, kQueue, kPrefill, kDecode, kPreempted };
    Phase phase = kIdle;
    Seconds phase_start = 0;
    std::int32_t tokens = 0;
  };

  /// Dense id -> state slot (creating on demand); nullptr for ids outside
  /// the dense range (hand-built tests with wild ids are simply untraced).
  ReqState* state(workload::RequestId id, bool create);
  /// Emits the open span (if any) as [phase_start, t] and leaves the
  /// request in kIdle.
  void close_span(ReqState& st, workload::RequestId id, Seconds t);
  static SpanPhase span_phase(ReqState::Phase phase);
  void sample(sim::Simulation& sim, engine::Engine& engine);
  int tenant_counter(std::int32_t tenant);

  TelemetryConfig cfg_;
  const engine::MetricsCollector* metrics_ = nullptr;  // set by attach()
  TraceRecorder recorder_;
  MetricsRegistry registry_;
  AuditTrail audit_;

  std::vector<ReqState> req_;
  std::size_t arrivals_ = 0;
  std::size_t finishes_ = 0;
  std::size_t queued_ = 0;  // requests in kQueue or kPreempted (admission +
                            // re-prefill backlog, the controller's view)
  std::size_t in_flight_ = 0;
  std::size_t migrations_ = 0;
  std::size_t preemptions_ = 0;
  std::size_t slo_ok_ = 0;
  std::size_t arrivals_at_last_sample_ = 0;

  // Registry handles (created in the constructor; per-tenant counters and
  // per-device tracks intern lazily).
  int c_arrivals_ = -1;
  int c_finishes_ = -1;
  int c_tokens_ = -1;
  int c_preemptions_ = -1;
  int c_migrations_ = -1;
  int g_queue_depth_ = -1;
  int g_in_flight_ = -1;
  int g_kv_fill_ = -1;
  int g_arrival_rate_ = -1;
  int g_lp_solves_ = -1;
  int g_costmodel_hits_ = -1;
  int g_slo_ = -1;
  int h_ttft_ = -1;
  int h_e2e_ = -1;
  int h_tpot_ = -1;
  std::map<std::int32_t, int> tenant_counters_;
  std::map<int, std::pair<int, int>> device_tracks_;  // dev -> (kv, heads)

  sim::PeriodicTask sample_task_;
};

}  // namespace hetis::telemetry
