// Declarative experiment harness (paper §7-style sweeps).
//
// An ExperimentSpec names WHAT to run -- engines x models x workload points
// (fixed (dataset, rate) traces or scenario generators) on a cluster preset
// -- and run_sweep executes the cross product through the engine registry,
// emitting one aligned SweepRow per (engine, model, workload point).  The
// same trace is served to every engine at a given point, matching the
// paper's methodology.
//
//   harness::ExperimentSpec spec;
//   spec.name = "fig8";
//   spec.models = {"Llama-13B"};
//   spec.add_rates(workload::Dataset::kShareGPT, {3, 6, 9, 12, 15});
//   spec.add_scenario(workload::scenario_preset(workload::Scenario::kBursty,
//                                               4.0, spec.horizon, spec.seed));
//   spec.jobs = 8;  // parallel execution; rows stay byte-identical to serial
//   auto rows = harness::run_sweep(spec);
//   harness::write_csv(std::cout, rows);
//
// Parallelism is deterministic by construction: every cell builds its trace
// from (spec, point) alone, owns a private engine + simulation, and writes
// a pre-assigned row slot, so `jobs` changes wall-clock only -- the
// returned rows (and their CSV/JSON serialization) are byte-identical for
// any thread count.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/controller.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/options.h"
#include "workload/datasets.h"
#include "workload/scenarios.h"

namespace hetis::harness {

/// One workload point of a sweep: a fixed (dataset, rate) Poisson trace, a
/// scenario generator (when `scenario` is set; dataset and rate then mirror
/// the scenario's base values for the CSV columns), or a recorded trace
/// replayed from `trace_file` (workload::load_trace; the scenario column
/// reads "trace").
struct WorkloadPoint {
  WorkloadPoint() = default;
  WorkloadPoint(workload::Dataset d, double r) : dataset(d), rate(r) {}
  explicit WorkloadPoint(workload::ScenarioSpec s)
      : dataset(s.dataset), rate(s.rate), scenario(std::move(s)) {}

  workload::Dataset dataset = workload::Dataset::kShareGPT;
  double rate = 1.0;  // req/s over the spec's horizon
  std::optional<workload::ScenarioSpec> scenario;
  std::string trace_file;  // non-empty: replay this recorded trace instead
};

struct ExperimentSpec {
  std::string name = "experiment";

  // What to run.
  std::vector<std::string> engines{"splitwise", "hexgen", "hetis"};  // registry names
  std::vector<std::string> models{"Llama-13B"};                      // model::model_by_name
  std::vector<WorkloadPoint> workloads;

  // Where and how.
  std::string cluster = "paper";  // harness::cluster_by_name preset
  Seconds horizon = 40.0;         // arrival window per point
  std::uint64_t seed = 20251116;
  engine::RunOptions run;         // drain timeout, warmup, SLO, observer

  /// Worker threads for the sweep: 1 runs strictly serially (default),
  /// 0 uses hardware concurrency, n > 1 uses that many.  Rows are
  /// byte-identical across every value; only wall-clock changes.
  /// RunOptions::observer requires jobs == 1 (a shared lifecycle stream
  /// would interleave events of unrelated cells).
  int jobs = 1;

  /// Plan objectives to sweep (innermost cell dimension; see
  /// parallel/objective.h).  The default single "" entry keeps each
  /// engine's configured objective -- and the historical cell count and
  /// row bytes.  A named entry ("throughput" | "latency" |
  /// "goodput_per_device") overrides HetisConfig::search.objective for
  /// that cell (the spec's RunOptions SLO rides along as the objective's
  /// targets); engines that do not plan through the Parallelizer serve
  /// identically and merely record the objective column.
  std::vector<std::string> objectives{""};

  /// Placement tier for every cell (planner::make name: "exhaustive" |
  /// "flow" | "auto").  The default "" keeps each engine's configured
  /// planner (ParallelizerOptions defaults to "auto") -- and the
  /// historical row bytes, since no CSV column is added.  A scalar rather
  /// than a sweep dimension: planners produce plans, not serving
  /// behaviours, so comparing them is bench_search_overhead's job.
  std::string planner;

  /// Per-engine configuration, keyed by registry name (matched
  /// case-insensitively, like the registry itself); engines without an
  /// entry get defaults.
  std::map<std::string, engine::EngineOptions> engine_options;

  /// Elastic control plane: when set, every cell runs under its own
  /// control::Controller built from this spec (churn script, scale policy,
  /// tick), so controlled sweeps parallelize like any other -- rows stay
  /// byte-identical for every `jobs` value.  Engines in the spec must
  /// implement engine::Reconfigurable when the spec can demand re-deploys.
  std::optional<control::ControlSpec> control;

  /// Per-cell observer factory: called once per (engine, model, point)
  /// cell; the returned observer lives for exactly that cell's run.  This
  /// composes with `jobs != 1` (each cell owns a private stream), unlike
  /// the shared RunOptions::observer.  With a control plane attached both
  /// are sinks on the same run-event bus and see the same events.
  struct CellContext {
    std::string engine;  // registry name (spec spelling)
    std::string model;
    std::size_t point = 0;  // index into `workloads`
    const WorkloadPoint* workload = nullptr;
  };
  using ObserverFactory =
      std::function<std::unique_ptr<engine::RunObserver>(const CellContext&)>;
  ObserverFactory observer_factory;

  /// Telemetry: when non-empty, every cell runs with its OWN telemetry
  /// session (so traced sweeps parallelize like observer_factory cells) and
  /// writes its artifacts into this directory (created if missing) as
  /// `<stem>.trace.json` / `<stem>.metrics.csv` / `<stem>.audit.json`,
  /// where the stem encodes (experiment, engine, model, point, objective,
  /// and -- when controlled -- churn + policy), so no two cells of one
  /// sweep collide.  Hetis cells additionally get per-device usage
  /// sampling switched on (when the spec left it off), so traces carry the
  /// occupancy tracks; UsageSamples never feed RunReports, keeping every
  /// row byte-identical to the untraced sweep.  Mutually exclusive with
  /// RunOptions::telemetry (which is one SHARED session: jobs == 1 only).
  std::string trace_dir;
  /// Registry sampling period of trace_dir sessions (sim seconds).
  Seconds telemetry_interval = 0.5;

  /// Appends one WorkloadPoint per rate for `dataset`.
  void add_rates(workload::Dataset dataset, const std::vector<double>& rates);

  /// Appends one scenario workload point.  The scenario inherits the
  /// spec's seed and horizon (one top-level seed reproduces the whole
  /// experiment); push a WorkloadPoint directly to keep per-scenario
  /// values.
  void add_scenario(workload::ScenarioSpec scenario);

  /// Appends a recorded-trace workload point replaying `path` (see
  /// workload::save_trace / load_trace).  `rate` only labels the CSV row.
  void add_trace_file(const std::string& path, double rate = 0.0);

  /// Installs the control plane.  The churn script inherits the spec's
  /// seed and horizon and the controller keeps ticking through the drain
  /// window (horizon + drain_grace), mirroring add_scenario's stamping.
  void set_control(control::ControlSpec control_spec, Seconds drain_grace = 30.0);
};

/// Per-tenant slice of one executed cell (multi-tenant scenarios only).
/// Attainment follows engine::run_trace's convention: the denominator is
/// every post-warmup arrival of the tenant, targets <= 0 are vacuously met,
/// and goodput divides SLO-attaining requests by the tenant's measured span.
struct TenantSummary {
  std::string tenant;
  std::size_t arrived = 0;   // post-warmup arrivals
  std::size_t finished = 0;  // of those, finished
  double ttft_p95 = 0;
  double tpot_p95 = 0;
  double slo_attainment = 0;
  double goodput = 0;  // SLO-attaining req/s over the tenant's span
};

/// Computes the per-tenant breakdown of a finished run from the engine's
/// request records (records carry the tenant index the workload generator
/// assigned).  Empty for non-multi-tenant scenarios.
std::vector<TenantSummary> tenant_summaries(const engine::MetricsCollector& metrics,
                                            const workload::ScenarioSpec& scenario,
                                            Seconds warmup);

/// One executed (engine, model, workload point) cell.
struct SweepRow {
  std::string experiment;
  std::string cluster;
  std::string model;
  workload::Dataset dataset = workload::Dataset::kShareGPT;
  std::string scenario = "poisson";  // generator name ("poisson" for fixed
                                     // points, "trace" for replayed files)
  double rate = 0;
  std::size_t trace_requests = 0;  // size of the generated trace
  engine::RunReport report;
  /// Per-tenant breakdown; non-empty only for multi-tenant scenario points.
  /// Serialized by write_json; the flat CSV carries the aggregate row only.
  std::vector<TenantSummary> tenants;
  // Control-plane columns (appended to the CSV; "none"/0 without a
  // ControlSpec).  `reconfigurations` comes from the engine's own
  // ReconfigStats so the row reflects applied re-deploys, not decisions.
  std::string control = "none";  // churn script name
  std::string policy = "none";   // scale policy name
  int reconfigurations = 0;
  int migrated_requests = 0;
  int restarted_requests = 0;
  // Objective block (appended columns).  `objective` echoes the sweep's
  // requested plan objective ("default" when the spec left the engine's
  // own).  `device_seconds` integrates the assigned device count over the
  // run's makespan (controlled runs follow every re-deploy; uncontrolled
  // runs charge the engine's active device set, or the whole cluster for
  // engines that do not report one).  `device_seconds_per_slo_request` is
  // the cost-efficiency headline ROADMAP asked for -- device-seconds per
  // SLO-attaining post-warmup request (0 when no SLO was set or nothing
  // attained it).
  std::string objective = "default";
  double device_seconds = 0;
  double device_seconds_per_slo_request = 0;
};

/// Called after each cell completes -- live progress for long sweeps.
/// Under jobs != 1 invocations are serialized (one at a time) but arrive in
/// completion order, not row order; the returned rows are always in
/// deterministic row order regardless.
using RowCallback = std::function<void(const SweepRow&)>;

/// Executes the spec's cross product, on `spec.jobs` threads.  Row order:
/// models outer, workload points middle, engines inner (so one (model,
/// point) group holds every engine on the identical trace, adjacent in the
/// output).  When a cell throws, the exception of the earliest row is
/// rethrown after in-flight cells finish.
std::vector<SweepRow> run_sweep(const ExperimentSpec& spec, const RowCallback& on_row = nullptr);

/// Aligned serialization, sharing RunReport's stable column order.
std::string sweep_csv_header();
std::string to_csv_row(const SweepRow& row);
void write_csv(std::ostream& os, const std::vector<SweepRow>& rows);
void write_json(std::ostream& os, const std::vector<SweepRow>& rows);

}  // namespace hetis::harness
