#include "telemetry/audit.h"

#include <algorithm>
#include <ostream>

#include "engine/engine.h"  // csv_double / json_escape
#include "telemetry/trace.h"

namespace hetis::telemetry {

namespace {

using engine::csv_double;
using engine::json_escape;

void write_int_array(std::ostream& os, const std::vector<int>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

/// Devices in `a` but not in `b` (both sorted ascending, as the controller
/// keeps them).
std::vector<int> set_minus(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

void write_signals(std::ostream& os, const control::ControlSignals& s) {
  os << "{\"now\":" << csv_double(s.now) << ",\"queue_depth\":" << s.queue_depth
     << ",\"in_flight\":" << s.in_flight
     << ",\"slo_attainment\":" << csv_double(s.slo_attainment)
     << ",\"kv_pressure\":" << csv_double(s.kv_pressure)
     << ",\"load_forecast\":" << csv_double(s.load_forecast)
     << ",\"active_devices\":" << s.active_devices
     << ",\"available_devices\":" << s.available_devices
     << ",\"degraded_devices\":" << s.degraded_devices << "}";
}

void write_diagnostics(std::ostream& os, const parallel::SearchDiagnostics& d) {
  os << "{\"planner\":\"" << json_escape(d.planner) << "\",\"objective\":\""
     << json_escape(d.objective)
     << "\",\"configurations_evaluated\":" << d.configurations_evaluated
     << ",\"instances_considered\":" << d.instances_considered
     << ",\"pruned_devices\":" << d.pruned_devices << ",\"best_cost\":" << csv_double(d.best_cost)
     << ",\"wall_time\":" << csv_double(d.wall_time) << ",\"lp_solves\":" << d.lp_solves
     << ",\"relaxation_gap\":" << csv_double(d.relaxation_gap) << ",\"fallback_reason\":\""
     << json_escape(d.fallback_reason) << "\"}";
}

}  // namespace

std::size_t AuditTrail::replans() const {
  std::size_t n = 0;
  for (const AuditRecord& rec : records_) {
    if (rec.action == "redeploy" || rec.action == "replan_in_place") ++n;
  }
  return n;
}

std::vector<std::pair<std::string, int>> AuditTrail::trigger_counts() const {
  std::vector<std::pair<std::string, int>> out;
  for (const AuditRecord& rec : records_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == rec.trigger; });
    if (it == out.end()) {
      out.emplace_back(rec.trigger, 1);
    } else {
      ++it->second;
    }
  }
  return out;
}

void AuditTrail::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const AuditRecord& rec = records_[i];
    os << (i ? ",\n " : "\n ") << "{\"time\":" << csv_double(rec.time) << ",\"trigger\":\""
       << json_escape(rec.trigger) << "\",\"action\":\"" << json_escape(rec.action)
       << "\",\"forced\":" << (rec.forced ? "true" : "false") << ",\"device\":" << rec.device
       << ",\"signals\":";
    write_signals(os, rec.signals);
    os << ",\"devices_before\":";
    write_int_array(os, rec.devices_before);
    os << ",\"devices_after\":";
    write_int_array(os, rec.devices_after);
    os << ",\"devices_added\":";
    write_int_array(os, set_minus(rec.devices_after, rec.devices_before));
    os << ",\"devices_removed\":";
    write_int_array(os, set_minus(rec.devices_before, rec.devices_after));
    os << ",\"plan_before\":\"" << json_escape(rec.plan_before) << "\",\"plan_after\":\""
       << json_escape(rec.plan_after) << "\"";
    if (rec.has_diagnostics) {
      os << ",\"search\":";
      write_diagnostics(os, rec.diagnostics);
    }
    os << "}";
  }
  os << "\n]\n";
}

void AuditTrail::write_trace_events(std::ostream& os, bool& first) const {
  for (const AuditRecord& rec : records_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << R"({"ph":"i","pid":)" << TraceRecorder::kControlPid << R"(,"tid":0,"ts":)"
       << csv_double(rec.time * 1e6) << R"(,"name":")" << json_escape(rec.trigger) << ':'
       << json_escape(rec.action) << R"(","s":"g","cat":"control","args":{"signals":)";
    write_signals(os, rec.signals);
    os << ",\"devices_before\":";
    write_int_array(os, rec.devices_before);
    os << ",\"devices_after\":";
    write_int_array(os, rec.devices_after);
    if (rec.has_diagnostics) {
      os << ",\"planner\":\"" << json_escape(rec.diagnostics.planner) << "\"";
    }
    os << "}}";
  }
}

}  // namespace hetis::telemetry
