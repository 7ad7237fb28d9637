#include "harness/experiment.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "engine/registry.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "planner/planner.h"
#include "telemetry/telemetry.h"
#include "workload/trace.h"

namespace hetis::harness {

namespace {

using engine::csv_double;
using engine::csv_field;  // caller-supplied strings land in rows unquoted

/// Finished post-warmup requests meeting BOTH SLO targets -- run_trace's
/// own engine::meets_slo predicate, so the denominator of the
/// device_seconds_per_slo_request cost column can never drift from the
/// reported slo_attainment.
std::size_t slo_attained_count(const engine::MetricsCollector& metrics,
                               const engine::SloSpec& slo, Seconds warmup) {
  std::size_t n = 0;
  for (const engine::RequestRecord& rec : metrics.records()) {
    if (rec.arrival >= warmup && rec.finished() && engine::meets_slo(rec, slo)) ++n;
  }
  return n;
}

/// Absolute sim time of the run's last observed request event -- the end
/// of the device-occupancy window.  (RunReport::makespan is a DURATION
/// from the first arrival and would mis-slice the controller's
/// absolute-time re-deploy history.)
Seconds run_end_time(const engine::MetricsCollector& metrics) {
  Seconds end = 0;
  for (const engine::RequestRecord& rec : metrics.records()) {
    end = std::max(end, rec.arrival);
    if (rec.first_token >= 0) end = std::max(end, rec.first_token);
    if (rec.finished()) end = std::max(end, rec.finish);
  }
  return end;
}

/// Builds the trace of one workload point; a pure function of (spec, point)
/// so every execution order -- and thread count -- yields identical bytes
/// (a trace_file is read once here, before any cell runs).
std::vector<workload::Request> build_point_trace(const ExperimentSpec& spec,
                                                 const WorkloadPoint& point) {
  if (!point.trace_file.empty()) return workload::load_trace(point.trace_file);
  if (point.scenario) return workload::generate_scenario(*point.scenario);
  workload::TraceOptions topts;
  topts.dataset = point.dataset;
  topts.rate = point.rate;
  topts.horizon = spec.horizon;
  topts.seed = spec.seed;
  return workload::build_trace(topts);
}

std::string point_label(const WorkloadPoint& point) {
  if (!point.trace_file.empty()) return "trace";
  return point.scenario ? workload::to_string(point.scenario->kind) : "poisson";
}

/// Tenant priorities of a multi-tenant scenario point (empty when the mix
/// is all best-effort, keeping strict FCFS and the historical bytes).
std::vector<int> point_priorities(const WorkloadPoint& point) {
  if (!point.scenario) return {};
  std::vector<int> prios;
  bool any = false;
  for (const workload::TenantSpec& t : workload::effective_tenants(*point.scenario)) {
    prios.push_back(t.priority);
    any = any || t.priority != 0;
  }
  return any ? prios : std::vector<int>();
}

/// Trace artifacts are named after cell coordinates; model names may hold
/// characters hostile to filenames -- map anything outside [A-Za-z0-9._-]
/// to '-'.
std::string sanitize_stem(std::string stem) {
  for (char& c : stem) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' || c == '-')) {
      c = '-';
    }
  }
  return stem;
}

engine::EngineOptions options_for(const ExperimentSpec& spec, const std::string& engine_name) {
  // Engine names are case-insensitive in the registry; match the options
  // map the same way so a "Hetis"/"hetis" mismatch cannot silently drop the
  // configured options.
  for (const auto& [key, value] : spec.engine_options) {
    if (engine::ascii_lower(key) == engine::ascii_lower(engine_name)) return value;
  }
  return engine::EngineOptions();
}

}  // namespace

void ExperimentSpec::add_rates(workload::Dataset dataset, const std::vector<double>& rates) {
  for (double rate : rates) workloads.push_back(WorkloadPoint(dataset, rate));
}

void ExperimentSpec::add_scenario(workload::ScenarioSpec scenario) {
  scenario.seed = seed;
  scenario.horizon = horizon;
  workloads.push_back(WorkloadPoint(std::move(scenario)));
}

void ExperimentSpec::add_trace_file(const std::string& path, double rate) {
  WorkloadPoint point;
  point.trace_file = path;
  point.rate = rate;
  workloads.push_back(std::move(point));
}

void ExperimentSpec::set_control(control::ControlSpec control_spec, Seconds drain_grace) {
  control_spec.churn.seed = seed;
  control_spec.churn.horizon = horizon;
  control_spec.horizon = horizon + drain_grace;
  control = std::move(control_spec);
}

std::vector<TenantSummary> tenant_summaries(const engine::MetricsCollector& metrics,
                                            const workload::ScenarioSpec& scenario,
                                            Seconds warmup) {
  const std::vector<workload::TenantSpec> tenants = workload::effective_tenants(scenario);
  if (tenants.empty()) return {};
  std::vector<TenantSummary> out(tenants.size());
  std::vector<Summary> ttft(tenants.size()), tpot(tenants.size());
  std::vector<std::size_t> slo_ok(tenants.size(), 0);
  std::vector<Seconds> first(tenants.size(), 0), last(tenants.size(), 0);
  std::vector<bool> any(tenants.size(), false);
  for (std::size_t ti = 0; ti < tenants.size(); ++ti) out[ti].tenant = tenants[ti].name;

  for (const engine::RequestRecord& rec : metrics.records()) {
    if (rec.tenant < 0 || static_cast<std::size_t>(rec.tenant) >= tenants.size()) continue;
    if (rec.arrival < warmup) continue;
    const std::size_t ti = static_cast<std::size_t>(rec.tenant);
    const workload::TenantSpec& t = tenants[ti];
    ++out[ti].arrived;
    if (rec.first_token >= 0) ttft[ti].add(rec.ttft());
    if (!rec.finished()) continue;
    ++out[ti].finished;
    if (rec.output_len > 1) tpot[ti].add(rec.tpot());
    if (!any[ti] || rec.arrival < first[ti]) first[ti] = rec.arrival;
    if (!any[ti] || rec.finish > last[ti]) last[ti] = rec.finish;
    any[ti] = true;
    if (engine::meets_slo(rec, engine::SloSpec{t.ttft_slo, t.tpot_slo})) ++slo_ok[ti];
  }
  for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
    out[ti].ttft_p95 = ttft[ti].p95();
    out[ti].tpot_p95 = tpot[ti].p95();
    out[ti].slo_attainment =
        static_cast<double>(slo_ok[ti]) / std::max<std::size_t>(1, out[ti].arrived);
    out[ti].goodput = any[ti] ? static_cast<double>(slo_ok[ti]) /
                                    std::max(1e-9, last[ti] - first[ti])
                              : 0.0;
  }
  return out;
}

std::vector<SweepRow> run_sweep(const ExperimentSpec& spec, const RowCallback& on_row) {
  if (spec.jobs < 0) throw std::invalid_argument("run_sweep: jobs must be >= 0");
  if (spec.run.observer != nullptr && spec.jobs != 1) {
    throw std::invalid_argument(
        "run_sweep: RunOptions::observer requires jobs == 1 -- a shared lifecycle stream "
        "would interleave events of unrelated cells; use ExperimentSpec::observer_factory "
        "for per-cell observers under parallel sweeps");
  }
  if (spec.run.on_start && spec.control) {
    throw std::invalid_argument(
        "run_sweep: RunOptions::on_start and ExperimentSpec::control are mutually "
        "exclusive (the control plane owns the start hook)");
  }
  if (spec.run.on_start && spec.jobs != 1) {
    throw std::invalid_argument(
        "run_sweep: a shared RunOptions::on_start requires jobs == 1; use "
        "ExperimentSpec::control for per-cell controllers under parallel sweeps");
  }
  if (spec.run.telemetry != nullptr && spec.jobs != 1) {
    throw std::invalid_argument(
        "run_sweep: RunOptions::telemetry requires jobs == 1 -- one shared session "
        "would interleave spans of unrelated cells; use ExperimentSpec::trace_dir for "
        "per-cell sessions under parallel sweeps");
  }
  if (spec.run.telemetry != nullptr && !spec.trace_dir.empty()) {
    throw std::invalid_argument(
        "run_sweep: RunOptions::telemetry and ExperimentSpec::trace_dir are mutually "
        "exclusive (trace_dir builds one telemetry session per cell)");
  }
  if (!spec.trace_dir.empty() && spec.telemetry_interval <= 0) {
    throw std::invalid_argument("run_sweep: telemetry_interval must be > 0");
  }
  planner::validate(spec.planner);  // "" = engine defaults; typos fail here
  hw::Cluster cluster = cluster_by_name(spec.cluster);
  // Created once up front so parallel cells never race the first mkdir.
  if (!spec.trace_dir.empty()) std::filesystem::create_directories(spec.trace_dir);

  // Traces depend only on (spec, point): build each once, shared read-only
  // by every (model, engine) cell of that point.
  std::vector<std::vector<workload::Request>> traces;
  traces.reserve(spec.workloads.size());
  for (const WorkloadPoint& point : spec.workloads) {
    traces.push_back(build_point_trace(spec, point));
  }

  // An empty objective list means "engine defaults", like the default
  // single-"" list (kept non-empty so the cell indexing below holds).
  const std::vector<std::string> objectives =
      spec.objectives.empty() ? std::vector<std::string>{""} : spec.objectives;

  const std::size_t ne = spec.engines.size();
  const std::size_t np = spec.workloads.size();
  const std::size_t no = objectives.size();
  const std::size_t ncells = spec.models.size() * np * ne * no;
  std::vector<SweepRow> rows(ncells);

  // Row order contract: models outer, then points, engines, objectives
  // innermost.
  auto run_cell = [&](std::size_t ci) {
    const std::size_t mi = ci / (np * ne * no);
    const std::size_t pi = (ci / (ne * no)) % np;
    const std::size_t ei = (ci / no) % ne;
    const std::size_t oi = ci % no;
    const std::string& model_name = spec.models[mi];
    const model::ModelSpec& model = model::model_by_name(model_name);
    const WorkloadPoint& point = spec.workloads[pi];
    const std::string& engine_name = spec.engines[ei];
    const std::string& objective_name = objectives[oi];
    engine::EngineOptions options = options_for(spec, engine_name);
    const bool traced = !spec.trace_dir.empty();
    if ((!objective_name.empty() || !spec.planner.empty() || traced) &&
        engine::ascii_lower(engine_name) == "hetis") {
      // Plan under the requested objective and/or planner tier; the run's
      // SLO targets become the objective's targets.  Replacing only the
      // system config keeps tenant priorities and every other knob intact.
      engine::HetisConfig cfg = options.get_or_default<engine::HetisConfig>(engine_name);
      if (!objective_name.empty()) {
        cfg.search.objective.name = objective_name;
        if (spec.run.slo) cfg.search.objective.slo = *spec.run.slo;
      }
      if (!spec.planner.empty()) cfg.search.planner = spec.planner;
      if (traced && cfg.sample_interval <= 0) {
        // Traced Hetis cells get the per-device occupancy tracks for free:
        // UsageSamples feed only the telemetry session, never the
        // RunReport, so the row bytes stay identical to an untraced sweep.
        cfg.sample_interval = spec.telemetry_interval;
        cfg.sample_horizon = spec.horizon;
      }
      options.system = std::move(cfg);
    }
    if (options.tenant_priorities.empty()) {
      options.tenant_priorities = point_priorities(point);
    }
    // A controlled cell serves on its OWN cluster copy: degradation events
    // (device_slow / link_degrade) mutate the condition overlay live, and
    // parallel cells must never see each other's stragglers.  A copy of a
    // healthy cluster is bit-identical, so uncontrolled rows are unchanged.
    std::optional<hw::Cluster> cell_cluster;
    if (spec.control) cell_cluster.emplace(cluster);
    hw::Cluster& cell_hw = cell_cluster ? *cell_cluster : cluster;
    auto eng = engine::make(engine_name, cell_hw, model, options);

    // Everything per-cell below owns private state, so controlled and
    // observed sweeps parallelize without cross-cell interleaving.
    engine::RunOptions run = spec.run;
    std::unique_ptr<engine::RunObserver> cell_observer;
    if (spec.observer_factory) {
      ExperimentSpec::CellContext ctx;
      ctx.engine = engine_name;
      ctx.model = model_name;
      ctx.point = pi;
      ctx.workload = &point;
      cell_observer = spec.observer_factory(ctx);
      run.observer = cell_observer.get();
    }
    std::unique_ptr<control::Controller> controller;
    if (spec.control) {
      // Binds the mutable-cluster overload (cell_hw is the cell's private
      // copy here), so degradation scripts replay onto the same cluster the
      // engine's cost model reads.
      controller = std::make_unique<control::Controller>(*spec.control, cell_hw);
      run.on_start = controller->starter();
    }
    std::unique_ptr<telemetry::Telemetry> cell_telemetry;
    if (traced) {
      telemetry::TelemetryConfig tcfg;
      tcfg.sample_interval = spec.telemetry_interval;
      tcfg.horizon = spec.horizon;
      tcfg.slo = spec.run.slo;
      cell_telemetry = std::make_unique<telemetry::Telemetry>(tcfg);
      run.telemetry = cell_telemetry.get();
    }

    SweepRow row;
    row.experiment = spec.name;
    row.cluster = spec.cluster;
    row.model = model_name;
    row.dataset = point.dataset;
    row.scenario = point_label(point);
    row.rate = point.rate;
    row.trace_requests = traces[pi].size();
    row.report = engine::run_trace(*eng, traces[pi], run);
    if (point.scenario) {
      row.tenants = tenant_summaries(eng->metrics(), *point.scenario, spec.run.warmup);
    }
    const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get());
    if (controller) {
      row.control = control::to_string(spec.control->churn.kind);
      row.policy = controller->policy_name();
      if (rc) {
        row.reconfigurations = rc->reconfig_stats().reconfigurations;
        row.migrated_requests = rc->reconfig_stats().migrated_requests;
        row.restarted_requests = rc->reconfig_stats().restarted_requests;
      }
    }
    // Cost-efficiency columns: device-seconds follow every controlled
    // re-deploy; uncontrolled runs charge a constant device set.  Both
    // integrate over [0, last request event] in ABSOLUTE sim time,
    // matching the controller's re-deploy history.
    row.objective = objective_name.empty() ? "default" : objective_name;
    const Seconds end = run_end_time(eng->metrics());
    if (controller) {
      row.device_seconds = controller->device_seconds(end);
    } else if (rc) {
      row.device_seconds = static_cast<double>(rc->active_devices().size()) * end;
    } else {
      row.device_seconds = static_cast<double>(cluster.num_devices()) * end;
    }
    if (spec.run.slo) {
      const std::size_t ok = slo_attained_count(eng->metrics(), *spec.run.slo, spec.run.warmup);
      row.device_seconds_per_slo_request = ok ? row.device_seconds / ok : 0.0;
    }
    if (cell_telemetry) {
      // Stem = every cell coordinate, so no two cells of one sweep (or of
      // one multi-part bench sharing a trace_dir) collide.
      std::string stem = spec.name + "_" + engine::ascii_lower(engine_name) + "_" +
                         model_name + "_p" + std::to_string(pi) + "_" + row.scenario;
      if (!objective_name.empty()) stem += "_" + objective_name;
      if (controller) stem += "_" + row.control + "_" + row.policy;
      cell_telemetry->write_artifacts(spec.trace_dir + "/" + sanitize_stem(stem) +
                                      ".trace.json");
    }
    rows[ci] = std::move(row);
  };

  if (spec.jobs == 1 || ncells <= 1) {
    for (std::size_t ci = 0; ci < ncells; ++ci) {
      run_cell(ci);
      if (on_row) on_row(rows[ci]);
    }
    return rows;
  }

  // jobs == 0 passes 0 through to ThreadPool, which resolves it to hardware
  // concurrency; explicit job counts are capped at the cell count.
  const std::size_t nthreads =
      spec.jobs == 0 ? 0 : std::min(ncells, static_cast<std::size_t>(spec.jobs));
  ThreadPool pool(nthreads);
  std::mutex on_row_mu;
  pool.run_tasks(ncells, [&](std::size_t ci) {
    run_cell(ci);
    if (on_row) {
      std::lock_guard<std::mutex> lock(on_row_mu);
      on_row(rows[ci]);
    }
  });
  return rows;
}

std::string sweep_csv_header() {
  // Column order is append-only: the control block trails the RunReport
  // columns, the objective/cost block trails the control block, so older
  // readers keep working.
  return "experiment,cluster,model,dataset,scenario,rate,trace_requests," +
         engine::RunReport::csv_header() +
         ",control,policy,reconfigurations,migrated_requests,restarted_requests"
         ",objective,device_seconds,device_seconds_per_slo_request";
}

std::string to_csv_row(const SweepRow& row) {
  std::ostringstream oss;
  oss << csv_field(row.experiment) << ',' << csv_field(row.cluster) << ','
      << csv_field(row.model) << ',' << workload::to_string(row.dataset) << ','
      << csv_field(row.scenario) << ',' << row.rate << ',' << row.trace_requests << ','
      << row.report.to_csv_row() << ',' << csv_field(row.control) << ','
      << csv_field(row.policy) << ',' << row.reconfigurations << ',' << row.migrated_requests
      << ',' << row.restarted_requests << ',' << csv_field(row.objective) << ','
      << csv_double(row.device_seconds) << ',' << csv_double(row.device_seconds_per_slo_request);
  return oss.str();
}

void write_csv(std::ostream& os, const std::vector<SweepRow>& rows) {
  os << sweep_csv_header() << '\n';
  for (const auto& row : rows) os << to_csv_row(row) << '\n';
}

namespace {

void write_tenants_json(std::ostream& os, const std::vector<TenantSummary>& tenants) {
  os << ",\"tenants\":[";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantSummary& ts = tenants[t];
    os << (t ? "," : "") << "{\"tenant\":\"" << engine::json_escape(ts.tenant)
       << "\",\"arrived\":" << ts.arrived << ",\"finished\":" << ts.finished
       << ",\"ttft_p95\":" << ts.ttft_p95 << ",\"tpot_p95\":" << ts.tpot_p95
       << ",\"slo_attainment\":" << ts.slo_attainment << ",\"goodput\":" << ts.goodput << "}";
  }
  os << "]";
}

}  // namespace

void write_json(std::ostream& os, const std::vector<SweepRow>& rows) {
  os << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    os << (i ? ",\n " : "\n ") << "{\"experiment\":\"" << engine::json_escape(row.experiment)
       << "\",\"cluster\":\"" << engine::json_escape(row.cluster) << "\",\"model\":\""
       << engine::json_escape(row.model) << "\",\"dataset\":\""
       << workload::to_string(row.dataset) << "\",\"scenario\":\""
       << engine::json_escape(row.scenario) << "\",\"rate\":" << row.rate
       << ",\"trace_requests\":" << row.trace_requests << ",\"report\":" << row.report.to_json()
       << ",\"control\":\"" << engine::json_escape(row.control) << "\",\"policy\":\""
       << engine::json_escape(row.policy) << "\",\"reconfigurations\":" << row.reconfigurations
       << ",\"migrated_requests\":" << row.migrated_requests
       << ",\"restarted_requests\":" << row.restarted_requests << ",\"objective\":\""
       << engine::json_escape(row.objective)
       << "\",\"device_seconds\":" << csv_double(row.device_seconds)
       << ",\"device_seconds_per_slo_request\":"
       << csv_double(row.device_seconds_per_slo_request);
    if (!row.tenants.empty()) write_tenants_json(os, row.tenants);
    os << "}";
  }
  os << "\n]\n";
}

}  // namespace hetis::harness
