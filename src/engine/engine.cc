#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/stats.h"
#include "telemetry/telemetry.h"

namespace hetis::engine {

namespace {

// Stable CSV column order.  Append-only: scripts key on these names.
constexpr const char* kCsvColumns =
    "engine,arrived,finished,measured,norm_latency_mean,norm_latency_p95,ttft_p95,tpot_p95,"
    "mlp_module_p95,attn_module_p95,throughput,preemptions,usable_kv_bytes,makespan,"
    "drain_timeout_hit,slo_set,slo_ttft,slo_tpot,ttft_attainment,tpot_attainment,"
    "slo_attainment,goodput";

}  // namespace

std::string csv_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string csv_field(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n') c = ' ';
  }
  return s;
}

bool meets_ttft_slo(const RequestRecord& rec, const SloSpec& slo) {
  return slo.ttft <= 0 || (rec.first_token >= 0 && rec.ttft() <= slo.ttft);
}

bool meets_tpot_slo(const RequestRecord& rec, const SloSpec& slo) {
  return slo.tpot <= 0 || rec.output_len <= 1 || rec.tpot() <= slo.tpot;
}

bool meets_slo(const RequestRecord& rec, const SloSpec& slo) {
  return meets_ttft_slo(rec, slo) && meets_tpot_slo(rec, slo);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string RunReport::warning() const {
  // Built lazily, and only on truncation: a clean drain must not pay for
  // (or ever observe) the assembled message -- see the invariant check at
  // the end of run_trace.
  if (!drain_timeout_hit) return "";
  std::ostringstream oss;
  oss << engine << ": drain timeout hit with " << (arrived - finished) << "/" << arrived
      << " requests unfinished; latency percentiles under-count the tail";
  return oss.str();
}

std::string RunReport::csv_header() { return kCsvColumns; }

std::string RunReport::to_csv_row() const {
  std::ostringstream oss;
  oss << csv_field(engine) << ',' << arrived << ',' << finished << ',' << measured << ','
      << csv_double(norm_latency_mean) << ',' << csv_double(norm_latency_p95) << ',' << csv_double(ttft_p95) << ','
      << csv_double(tpot_p95) << ',' << csv_double(mlp_module_p95) << ',' << csv_double(attn_module_p95) << ','
      << csv_double(throughput) << ',' << preemptions << ',' << usable_kv << ',' << csv_double(makespan) << ','
      << (drain_timeout_hit ? 1 : 0) << ',' << (slo_set ? 1 : 0) << ',' << csv_double(slo_ttft) << ','
      << csv_double(slo_tpot) << ',' << csv_double(ttft_attainment) << ',' << csv_double(tpot_attainment) << ','
      << csv_double(slo_attainment) << ',' << csv_double(goodput);
  return oss.str();
}

std::string RunReport::to_json() const {
  std::ostringstream oss;
  oss << "{\"engine\":\"" << json_escape(engine) << "\",\"arrived\":" << arrived
      << ",\"finished\":" << finished << ",\"measured\":" << measured
      << ",\"norm_latency_mean\":" << csv_double(norm_latency_mean)
      << ",\"norm_latency_p95\":" << csv_double(norm_latency_p95) << ",\"ttft_p95\":" << csv_double(ttft_p95)
      << ",\"tpot_p95\":" << csv_double(tpot_p95) << ",\"mlp_module_p95\":" << csv_double(mlp_module_p95)
      << ",\"attn_module_p95\":" << csv_double(attn_module_p95) << ",\"throughput\":" << csv_double(throughput)
      << ",\"preemptions\":" << preemptions << ",\"usable_kv_bytes\":" << usable_kv
      << ",\"makespan\":" << csv_double(makespan)
      << ",\"drain_timeout_hit\":" << (drain_timeout_hit ? "true" : "false")
      << ",\"slo_set\":" << (slo_set ? "true" : "false") << ",\"slo_ttft\":" << csv_double(slo_ttft)
      << ",\"slo_tpot\":" << csv_double(slo_tpot) << ",\"ttft_attainment\":" << csv_double(ttft_attainment)
      << ",\"tpot_attainment\":" << csv_double(tpot_attainment)
      << ",\"slo_attainment\":" << csv_double(slo_attainment) << ",\"goodput\":" << csv_double(goodput) << "}";
  return oss.str();
}

RunReport run_trace(Engine& engine, const std::vector<workload::Request>& trace,
                    const RunOptions& opts) {
  sim::Simulation sim;
  // Detach on every exit path: if the run throws, the engine must not keep
  // a pointer to a caller-owned sink (observer, telemetry session,
  // controller) that may die first.
  struct ObserverGuard {
    MetricsCollector& metrics;
    ~ObserverGuard() { metrics.detach_all(); }
  } guard{engine.metrics()};
  engine.metrics().detach_all();
  if (opts.observer != nullptr) engine.metrics().attach(opts.observer);
  engine.metrics().reserve(trace.size());
  engine.start(sim);
  // Telemetry subscribes before on_start, so the control plane's initial
  // deployment decision (made from on_start) already reaches its audit trail.
  if (opts.telemetry != nullptr) opts.telemetry->attach(sim, engine);
  if (opts.on_start) opts.on_start(sim, engine);
  // Arrivals stream through one pending event, ordered exactly as if all of
  // them were queued here; unsorted arrivals throw before any is served.
  sim.schedule_sorted(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [&engine, &sim, &trace](std::size_t i) { engine.submit(sim, trace[i]); });
  Seconds last_arrival = trace.empty() ? 0.0 : trace.back().arrival;
  sim.run_until(last_arrival + opts.drain_timeout);

  RunReport rep;
  rep.engine = engine.name();
  const MetricsCollector& m = engine.metrics();
  rep.arrived = m.arrived();
  rep.finished = m.finished();
  rep.mlp_module_p95 = m.mlp_module_time().p95();
  rep.attn_module_p95 = m.attn_module_time().p95();
  rep.preemptions = m.total_preemptions();
  rep.usable_kv = engine.usable_kv_capacity();
  // Keyed on unfinished requests, not on sim.idle(): engines may keep
  // benign periodic events (e.g. usage sampling) queued past the deadline.
  rep.drain_timeout_hit = rep.finished < rep.arrived;

  const SloSpec* slo = opts.slo ? &*opts.slo : nullptr;
  Summary norm, ttft, tpot;
  // Attainment denominator: every post-warmup ARRIVAL.  A request that
  // never finished cannot have met its SLO, so a truncated or saturated
  // run reports honestly low attainment instead of grading only the
  // survivors.
  std::size_t slo_denom = 0, ttft_ok = 0, tpot_ok = 0, slo_ok = 0;
  // Serving span: first arrival to last completion (not the idle drain).
  // The measured span covers only post-warmup requests so goodput uses the
  // same population as the attainment fractions.
  Seconds first = 0, last = 0, mfirst = 0, mlast = 0;
  bool any = false, many = false;
  for (const RequestRecord& rec : m.records()) {
    const bool in_window = rec.arrival >= opts.warmup;
    if (in_window) ++slo_denom;
    // TTFT is defined for any prefilled request, finished or not (it keeps
    // the prefill tail visible even when decode is still in flight).
    if (in_window && rec.first_token >= 0) ttft.add(rec.ttft());
    if (!rec.finished()) continue;
    if (!any || rec.arrival < first) first = rec.arrival;
    if (!any || rec.finish > last) last = rec.finish;
    any = true;
    if (!in_window) continue;
    if (!many || rec.arrival < mfirst) mfirst = rec.arrival;
    if (!many || rec.finish > mlast) mlast = rec.finish;
    many = true;
    ++rep.measured;
    norm.add(rec.norm_latency());
    if (rec.output_len > 1) tpot.add(rec.tpot());
    if (slo) {
      const bool meets_ttft = meets_ttft_slo(rec, *slo);
      const bool meets_tpot = meets_tpot_slo(rec, *slo);
      if (meets_ttft) ++ttft_ok;
      if (meets_tpot) ++tpot_ok;
      if (meets_ttft && meets_tpot) ++slo_ok;
    }
  }
  rep.norm_latency_mean = norm.mean();
  rep.norm_latency_p95 = norm.p95();
  rep.ttft_p95 = ttft.p95();
  rep.tpot_p95 = tpot.p95();
  rep.makespan = any ? last - first : 0.0;
  rep.throughput = any ? static_cast<double>(rep.finished) / std::max(1e-9, rep.makespan) : 0.0;
  if (slo) {
    rep.slo_set = true;
    rep.slo_ttft = slo->ttft;
    rep.slo_tpot = slo->tpot;
    const double denom = std::max<std::size_t>(1, slo_denom);
    rep.ttft_attainment = static_cast<double>(ttft_ok) / denom;
    rep.tpot_attainment = static_cast<double>(tpot_ok) / denom;
    rep.slo_attainment = static_cast<double>(slo_ok) / denom;
    rep.goodput = many ? static_cast<double>(slo_ok) / std::max(1e-9, mlast - mfirst) : 0.0;
  }
  // Invariant: the drain-timeout warning exists iff truncation occurred; a
  // clean drain reports an empty warning (the sweep tests rely on this).
  assert(rep.drain_timeout_hit ? !rep.warning().empty() : rep.warning().empty());
  return rep;
}

}  // namespace hetis::engine
