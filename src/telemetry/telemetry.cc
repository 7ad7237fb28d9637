#include "telemetry/telemetry.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hetis::telemetry {

Telemetry::Telemetry(TelemetryConfig cfg) : cfg_(cfg) {
  c_arrivals_ = registry_.counter("arrivals_total");
  c_finishes_ = registry_.counter("finishes_total");
  c_tokens_ = registry_.counter("decode_tokens_total");
  c_preemptions_ = registry_.counter("preemptions_total");
  c_migrations_ = registry_.counter("migrations_total");
  g_queue_depth_ = registry_.gauge("queue_depth");
  g_in_flight_ = registry_.gauge("in_flight");
  g_kv_fill_ = registry_.gauge("kv_fill_fraction");
  g_arrival_rate_ = registry_.gauge("arrival_rate");
  g_lp_solves_ = registry_.gauge("lp_solves");
  g_costmodel_hits_ = registry_.gauge("costmodel_hits");
  if (cfg_.slo.has_value()) g_slo_ = registry_.gauge("slo_attainment");
  h_ttft_ = registry_.histogram("ttft_seconds", {0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30});
  h_e2e_ = registry_.histogram("e2e_seconds", {1, 2, 5, 10, 30, 60, 120, 300, 600});
  h_tpot_ = registry_.histogram("tpot_seconds", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1});
}

void Telemetry::attach(sim::Simulation& sim, engine::Engine& engine) {
  metrics_ = &engine.metrics();
  engine.metrics().attach(this);
  if (cfg_.sample_interval <= 0) return;
  // First row at t=0 captures the pre-arrival state (and the Controller's
  // initial deployment has already landed by the time events run).
  sample_task_ = sim.every(0, cfg_.sample_interval, [this, &sim, &engine] {
    sample(sim, engine);
    return arrivals_ == 0 || in_flight_ > 0 || sim.now() < cfg_.horizon;
  });
}

Telemetry::ReqState* Telemetry::state(workload::RequestId id, bool create) {
  if (id < 0 || id >= workload::kDenseIdLimit) return nullptr;
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= req_.size()) {
    if (!create) return nullptr;
    req_.resize(slot + 1);
  }
  return &req_[slot];
}

SpanPhase Telemetry::span_phase(ReqState::Phase phase) {
  switch (phase) {
    case ReqState::kQueue:
      return SpanPhase::kQueue;
    case ReqState::kPrefill:
      return SpanPhase::kPrefill;
    case ReqState::kDecode:
      return SpanPhase::kDecode;
    case ReqState::kPreempted:
      return SpanPhase::kPreempted;
    case ReqState::kIdle:
      break;
  }
  return SpanPhase::kQueue;
}

void Telemetry::close_span(ReqState& st, workload::RequestId id, Seconds t) {
  if (st.phase == ReqState::kIdle) return;
  if (st.phase == ReqState::kQueue || st.phase == ReqState::kPreempted) --queued_;
  recorder_.add_span(id, span_phase(st.phase), st.phase_start, t,
                     static_cast<std::int32_t>(metrics_->record(id).tenant), st.tokens);
  st.phase = ReqState::kIdle;
}

void Telemetry::on_arrival(const workload::Request& r) {
  ReqState* st = state(r.id, /*create=*/true);
  if (st == nullptr) return;
  st->phase = ReqState::kQueue;
  st->phase_start = r.arrival;
  st->tokens = 0;
  ++queued_;
  ++arrivals_;
  ++in_flight_;
  registry_.add(c_arrivals_);
  registry_.add(tenant_counter(static_cast<std::int32_t>(r.tenant)));
}

void Telemetry::on_prefill_start(workload::RequestId id, Seconds t) {
  ReqState* st = state(id, /*create=*/false);
  if (st == nullptr) return;
  close_span(*st, id, t);
  st->phase = ReqState::kPrefill;
  st->phase_start = t;
}

void Telemetry::on_prefill_done(workload::RequestId id, Seconds t) {
  on_reprefill_done(id, t);
  registry_.observe(h_ttft_, metrics_->record(id).ttft());
}

void Telemetry::on_reprefill_done(workload::RequestId id, Seconds t) {
  ReqState* st = state(id, /*create=*/false);
  if (st == nullptr) return;
  close_span(*st, id, t);
  st->phase = ReqState::kDecode;
  st->phase_start = t;
}

void Telemetry::on_token(workload::RequestId id, Seconds t, std::int64_t generated) {
  (void)t;
  ReqState* st = state(id, /*create=*/false);
  if (st == nullptr) return;
  st->tokens = static_cast<std::int32_t>(generated);
  registry_.add(c_tokens_);
}

void Telemetry::on_finish(workload::RequestId id, Seconds t) {
  ReqState* st = state(id, /*create=*/false);
  if (st == nullptr) return;
  close_span(*st, id, t);
  ++finishes_;
  if (in_flight_ > 0) --in_flight_;
  registry_.add(c_finishes_);
  // The collector stamps the finish before it fans the event out, so the
  // record grades exactly as run_trace will.
  const engine::RequestRecord& rec = metrics_->record(id);
  registry_.observe(h_e2e_, t - rec.arrival);
  if (st->tokens > 1 && rec.first_token >= 0) {
    registry_.observe(h_tpot_, (t - rec.first_token) / static_cast<double>(st->tokens - 1));
  }
  if (cfg_.slo.has_value() && engine::meets_slo(rec, *cfg_.slo)) ++slo_ok_;
}

void Telemetry::on_preempt(workload::RequestId id, Seconds t) {
  ReqState* st = state(id, /*create=*/false);
  if (st == nullptr) return;
  close_span(*st, id, t);
  st->phase = ReqState::kPreempted;
  st->phase_start = t;
  ++queued_;
  ++preemptions_;
  registry_.add(c_preemptions_);
}

void Telemetry::on_migrate(workload::RequestId id, Seconds start, Seconds ready, int src_device,
                           int dst_device) {
  // Nested inside the surrounding decode span; the state machine is not
  // touched (decode continues on the destination once the KV haul lands).
  recorder_.add_span(id, SpanPhase::kMigrate, start, ready,
                     static_cast<std::int32_t>(src_device),
                     static_cast<std::int32_t>(dst_device));
  ++migrations_;
  registry_.add(c_migrations_);
}

void Telemetry::on_usage(const engine::UsageSample& s) {
  auto it = device_tracks_.find(s.device);
  if (it == device_tracks_.end()) {
    const std::string dev = "dev" + std::to_string(s.device);
    const int kv = recorder_.intern_track("kv_fill[" + dev + "]");
    const int heads = recorder_.intern_track("heads[" + dev + "]");
    it = device_tracks_.emplace(s.device, std::make_pair(kv, heads)).first;
  }
  recorder_.add_counter(it->second.first, s.time, s.cache_used_fraction);
  recorder_.add_counter(it->second.second, s.time, s.heads);
}

int Telemetry::tenant_counter(std::int32_t tenant) {
  auto it = tenant_counters_.find(tenant);
  if (it != tenant_counters_.end()) return it->second;
  const int h = registry_.counter(
      MetricsRegistry::labeled("arrivals_total", "tenant", std::to_string(tenant)));
  tenant_counters_.emplace(tenant, h);
  return h;
}

void Telemetry::sample(sim::Simulation& sim, engine::Engine& engine) {
  const Seconds now = sim.now();
  registry_.set(g_queue_depth_, static_cast<double>(queued_));
  registry_.set(g_in_flight_, static_cast<double>(in_flight_));
  registry_.set(g_kv_fill_, engine.kv_fill_fraction());
  registry_.set(g_arrival_rate_, static_cast<double>(arrivals_ - arrivals_at_last_sample_) /
                                     cfg_.sample_interval);
  const engine::PerfCounters pcs = engine.perf_counters();
  registry_.set(g_lp_solves_, static_cast<double>(pcs.lp_solves));
  registry_.set(g_costmodel_hits_, static_cast<double>(pcs.costmodel_hits));
  arrivals_at_last_sample_ = arrivals_;
  if (g_slo_ >= 0) {
    registry_.set(g_slo_, finishes_ > 0
                              ? static_cast<double>(slo_ok_) / static_cast<double>(finishes_)
                              : 1.0);
  }
  registry_.sample(now);
}

void Telemetry::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto process_name = [&](int pid, const char* name) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << R"({"ph":"M","pid":)" << pid
       << R"(,"tid":0,"name":"process_name","args":{"name":")" << name << R"("}})";
  };
  process_name(TraceRecorder::kRequestsPid, "requests");
  process_name(TraceRecorder::kDevicesPid, "devices");
  process_name(TraceRecorder::kControlPid, "control");
  recorder_.write_events(os, first);
  // Registry curves ride the control track so Perfetto shows queue depth /
  // kv fill / slo attainment directly above the audit instants.
  const auto& times = registry_.sample_times();
  for (std::size_t h = 0; h < registry_.series_count(); ++h) {
    const int handle = static_cast<int>(h);
    if (registry_.series_kind(handle) == 'h') continue;
    const std::string name = engine::json_escape(registry_.series_name(handle));
    const std::vector<double>& vals = registry_.samples(handle);
    for (std::size_t row = 0; row < times.size(); ++row) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << R"({"ph":"C","pid":)" << TraceRecorder::kControlPid << R"(,"tid":0,"ts":)"
         << engine::csv_double(times[row] * 1e6) << R"(,"name":")" << name
         << R"(","args":{"value":)"
         << engine::csv_double(row < vals.size() ? vals[row] : 0.0) << "}}";
    }
  }
  audit_.write_trace_events(os, first);
  os << "\n]}\n";
}

std::vector<std::string> Telemetry::artifact_paths(const std::string& trace_path) {
  std::string base = trace_path;
  const auto strip = [&base](const char* suffix) {
    const std::string suf(suffix);
    if (base.size() > suf.size() &&
        base.compare(base.size() - suf.size(), suf.size(), suf) == 0) {
      base.resize(base.size() - suf.size());
      return true;
    }
    return false;
  };
  if (!strip(".trace.json")) strip(".json");
  return {trace_path, base + ".metrics.csv", base + ".audit.json"};
}

void Telemetry::write_artifacts(const std::string& trace_path) const {
  const std::vector<std::string> paths = artifact_paths(trace_path);
  const auto open = [](const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("telemetry: cannot open '" + path + "' for writing");
    return os;
  };
  {
    std::ofstream os = open(paths[0]);
    write_chrome_trace(os);
  }
  {
    std::ofstream os = open(paths[1]);
    registry_.write_series_csv(os);
    os << '\n';
    registry_.write_histograms_csv(os);
  }
  {
    std::ofstream os = open(paths[2]);
    audit_.write_json(os);
  }
}

std::string Telemetry::summary() const {
  std::ostringstream os;
  std::size_t forced = 0, elective = 0;
  for (const AuditRecord& rec : audit_.records()) {
    if (rec.action != "redeploy" && rec.action != "replan_in_place") continue;
    if (rec.forced) {
      ++forced;
    } else {
      ++elective;
    }
  }
  os << "replans: " << audit_.replans() << " (" << forced << " forced, " << elective
     << " elective); audit records: " << audit_.size() << '\n';
  const auto triggers = audit_.trigger_counts();
  os << "triggers:";
  if (triggers.empty()) {
    os << " none";
  } else {
    for (std::size_t i = 0; i < triggers.size(); ++i) {
      os << (i ? ", " : " ") << triggers[i].first << " x" << triggers[i].second;
    }
  }
  os << '\n';
  Seconds worst_at = 0;
  const double worst_queue = registry_.max_sample(g_queue_depth_, &worst_at);
  const double peak_kv = registry_.max_sample(g_kv_fill_);
  os << "worst queue depth: " << static_cast<long long>(worst_queue) << " at t=" << worst_at
     << "s; peak kv fill: " << peak_kv << '\n';
  os << "requests: " << arrivals_ << " arrived, " << finishes_ << " finished, " << preemptions_
     << " preempted, " << migrations_ << " migrated; spans: " << recorder_.span_count() << '\n';
  if (cfg_.slo.has_value() && finishes_ > 0) {
    os << "slo attainment: "
       << static_cast<double>(slo_ok_) / static_cast<double>(finishes_) << " (" << slo_ok_ << "/"
       << finishes_ << " finished within targets)";
  } else {
    os << "slo: no targets set";
  }
  return os.str();
}

}  // namespace hetis::telemetry
