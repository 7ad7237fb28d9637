// Simulator hot-path speed: simulated-requests-per-wall-second on
// million-request traces.
//
// The paper's evaluation replays ~200-request traces; the ROADMAP's north
// star is datacenter-scale serving, which means the simulator itself must
// sustain 10^6+-request traces.  This bench is the scoreboard for that hot
// path: it replays a deterministic poisson and bursty trace (same seed =>
// same trace, byte for byte) through all three registered engines and
// reports wall-clock speed, committed as BENCH_simspeed.json so speedups
// (or regressions) are tracked PR-over-PR like the other benches.
//
// The poisson trace is additionally replayed with a telemetry session
// installed ("poisson_traced" rows, no artifact export): the tracing-off
// rows guard the hot path itself, the traced rows price the observability
// tax so a PR cannot quietly make tracing unaffordable.
//
// --check PATH is the determinism guard: against a reference written by this
// bench at the same --requests (e.g. the committed BENCH_simspeed_100k.json)
// it exits 2 unless every (engine, scenario) row has a reference row with the
// same request count whose finished, events and lp_solves match EXACTLY --
// the contract behind every hot-path shortcut.  Wall-clock speed is not
// gated here: one host's noisy wall time is no evidence either way
// (perfbench measures it over interleaved runs).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness.h"
#include "telemetry/telemetry.h"
#include "workload/scenarios.h"

namespace {

using namespace hetis;

struct SpeedRow {
  std::string engine;
  std::string scenario;
  std::size_t requests = 0;
  std::size_t finished = 0;
  std::size_t events = 0;     // simulation events executed
  double sim_span = 0;        // simulated seconds covered by the run
  double wall_seconds = 0;
  double requests_per_wall_second = 0;
  double events_per_wall_second = 0;
  // Hot-path counters (engine::PerfCounters).  Observational only -- the
  // dense-stage memo returns bit-identical results -- but CI greps them: a
  // Hetis row with costmodel_hits == 0 means the memo silently stopped
  // firing.
  std::uint64_t lp_solves = 0;
  std::uint64_t costmodel_hits = 0;
};

constexpr const char* kCsvHeader =
    "engine,scenario,requests,finished,events,sim_span,wall_seconds,"
    "requests_per_wall_second,events_per_wall_second,"
    "lp_solves,costmodel_hits";

std::string row_csv(const SpeedRow& r) {
  std::ostringstream oss;
  oss << engine::csv_field(r.engine) << ',' << engine::csv_field(r.scenario) << ','
      << r.requests << ',' << r.finished << ',' << r.events << ','
      << engine::csv_double(r.sim_span) << ',' << engine::csv_double(r.wall_seconds) << ','
      << engine::csv_double(r.requests_per_wall_second) << ','
      << engine::csv_double(r.events_per_wall_second) << ','
      << r.lp_solves << ',' << r.costmodel_hits;
  return oss.str();
}

std::string row_json(const SpeedRow& r) {
  std::ostringstream oss;
  oss << "{\"engine\":\"" << engine::json_escape(r.engine) << "\",\"scenario\":\""
      << engine::json_escape(r.scenario) << "\",\"requests\":" << r.requests
      << ",\"finished\":" << r.finished << ",\"events\":" << r.events
      << ",\"sim_span\":" << engine::csv_double(r.sim_span)
      << ",\"wall_seconds\":" << engine::csv_double(r.wall_seconds)
      << ",\"requests_per_wall_second\":" << engine::csv_double(r.requests_per_wall_second)
      << ",\"events_per_wall_second\":" << engine::csv_double(r.events_per_wall_second)
      << ",\"lp_solves\":" << r.lp_solves << ",\"costmodel_hits\":" << r.costmodel_hits
      << "}";
  return oss.str();
}

/// Replays `trace` through a freshly built engine, mirroring
/// engine::run_trace's scheduling exactly (arrivals streamed in trace order
/// by Simulation::schedule_sorted, run_until(last_arrival + drain)) but
/// timing the event loop and counting executed events.  When `telem` is
/// non-null the session is attached exactly as RunOptions::telemetry would
/// be (after Engine::start), so the timed window includes the full tracing
/// tax: span capture, registry sampling events, the lot.
SpeedRow timed_run(const std::string& engine_name, const std::string& scenario,
                   const hw::Cluster& cluster, const model::ModelSpec& model,
                   const engine::EngineOptions& opts,
                   const std::vector<workload::Request>& trace, Seconds drain,
                   telemetry::Telemetry* telem = nullptr) {
  auto eng = engine::make(engine_name, cluster, model, opts);
  sim::Simulation sim;

  const auto t0 = std::chrono::steady_clock::now();
  eng->start(sim);
  if (telem != nullptr) telem->attach(sim, *eng);
  sim.schedule_sorted(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [&eng, &sim, &trace](std::size_t i) { eng->submit(sim, trace[i]); });
  const Seconds last_arrival = trace.empty() ? 0.0 : trace.back().arrival;
  const std::size_t events = sim.run_until(last_arrival + drain);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  SpeedRow row;
  row.engine = eng->name();
  row.scenario = scenario;
  row.requests = trace.size();
  row.finished = eng->metrics().finished();
  row.events = events;
  const engine::PerfCounters pcs = eng->perf_counters();
  row.lp_solves = pcs.lp_solves;
  row.costmodel_hits = pcs.costmodel_hits;
  row.sim_span = sim.now();
  row.wall_seconds = wall;
  row.requests_per_wall_second = static_cast<double>(trace.size()) / std::max(1e-9, wall);
  row.events_per_wall_second = static_cast<double>(events) / std::max(1e-9, wall);
  return row;
}

/// Minimal scanner for the rows of a BENCH_simspeed.json written by this
/// bench: extracts (engine, scenario, requests) plus the exact counters
/// behind the determinism guard (each unset when the row does not record
/// it).
struct RefRow {
  std::string engine;
  std::string scenario;
  std::size_t requests = 0;
  std::optional<std::uint64_t> finished;
  std::optional<std::uint64_t> events;
  std::optional<std::uint64_t> lp_solves;
};

std::vector<RefRow> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ERROR: --check cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::vector<RefRow> rows;
  std::size_t row_end = 0;  // a key is read from its own row only
  auto grab = [&text, &row_end](std::size_t from, const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":";
    std::size_t k = text.find(needle, from);
    if (k == std::string::npos || k >= row_end) return "";
    k += needle.size();
    bool quoted = k < text.size() && text[k] == '"';
    if (quoted) ++k;
    std::size_t end = text.find_first_of(quoted ? "\"" : ",}", k);
    if (end == std::string::npos) return "";
    return text.substr(k, end - k);
  };
  std::size_t pos = 0;
  auto count = [&grab](std::size_t from, const std::string& key) {
    const std::string v = grab(from, key);
    return v.empty() ? std::nullopt
                     : std::optional<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
  };
  while ((pos = text.find("{\"engine\":", pos)) != std::string::npos) {
    row_end = std::min(text.find("{\"engine\":", pos + 1), text.size());
    RefRow r;
    r.engine = grab(pos, "engine");
    r.scenario = grab(pos, "scenario");
    const std::string reqs = grab(pos, "requests");
    r.requests = reqs.empty() ? 0 : static_cast<std::size_t>(std::atoll(reqs.c_str()));
    r.finished = count(pos, "finished");
    r.events = count(pos, "events");
    r.lp_solves = count(pos, "lp_solves");
    if (!r.engine.empty() && !r.scenario.empty() && r.requests > 0) rows.push_back(r);
    ++pos;
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_simspeed")
          .flag("--csv", "dump the rows instead of the table")
          .flag("--csv-header", "print the CSV header and exit")
          .option("--requests", "N", "trace length per scenario, an integer > 0 (default 1000000)")
          .option("--rate", "R", "arrival rate in req/s; the horizon is requests/rate (default 2)")
          .option("--out", "PATH", "JSON artifact path (default BENCH_simspeed.json; - disables)")
          .option("--check", "PATH", "exit 2 unless every row's counters match this reference")
          .parse(argc, argv);
  if (args.has("--csv-header")) {
    std::printf("%s\n", kCsvHeader);
    return 0;
  }
  const std::size_t requests = args.count("--requests", 1000000);
  const double rate = args.positive("--rate", 2.0);
  const std::string out_path = args.text("--out", "BENCH_simspeed.json");
  const std::string check_path = args.text("--check", "");
  const bool csv = args.has("--csv");

  const hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec model = model::model_by_name("Llama-13B");
  engine::EngineOptions hetis_opts{bench::hetis_options()};
  const engine::EngineOptions default_opts;

  // The horizon is sized so the poisson generator lands slightly above the
  // target count; the trace is then truncated to exactly `requests` so every
  // row (and every future PR) replays the identical workload.
  const Seconds horizon = (static_cast<double>(requests) + 6.0 * std::sqrt(static_cast<double>(requests))) / rate;
  std::vector<std::pair<std::string, std::vector<workload::Request>>> traces;
  for (const char* name : {"poisson", "bursty"}) {
    workload::ScenarioSpec spec =
        workload::scenario_preset(workload::scenario_by_name(name), rate, horizon, bench::kSeed);
    std::vector<workload::Request> trace = workload::generate_scenario(spec);
    if (trace.size() > requests) trace.resize(requests);
    traces.emplace_back(name, std::move(trace));
  }

  const std::size_t total_rows = traces.size() * 3 + 3;
  std::vector<SpeedRow> rows;
  auto progress = [&rows, csv, total_rows] {
    if (csv) return;
    const SpeedRow& r = rows.back();
    std::fprintf(stderr, "[%zu/%zu] %s/%s: %.0f req/s-wall (%.2fs wall, %zu events)\n",
                 rows.size(), total_rows, r.engine.c_str(), r.scenario.c_str(),
                 r.requests_per_wall_second, r.wall_seconds, r.events);
  };
  for (const auto& [scenario, trace] : traces) {
    for (const std::string& engine_name : {std::string("splitwise"), std::string("hexgen"),
                                           std::string("hetis")}) {
      const engine::EngineOptions& opts =
          engine_name == "hetis" ? hetis_opts : default_opts;
      rows.push_back(timed_run(engine_name, scenario, cluster, model, opts, trace,
                               /*drain=*/600.0));
      progress();
    }
  }

  // Tracing-on rows: the poisson trace again, with a fresh telemetry
  // session per run (spans + registry sampling; nothing exported -- the
  // row prices capture, not serialization).  Engine options are identical
  // to the tracing-off rows, so the req/s-wall delta IS the tracing tax.
  const std::vector<workload::Request>& poisson_trace = traces.front().second;
  for (const std::string& engine_name : {std::string("splitwise"), std::string("hexgen"),
                                         std::string("hetis")}) {
    const engine::EngineOptions& opts = engine_name == "hetis" ? hetis_opts : default_opts;
    telemetry::TelemetryConfig tcfg;
    tcfg.horizon = horizon;  // sample the whole span, not just until idle
    telemetry::Telemetry telem(tcfg);
    rows.push_back(timed_run(engine_name, "poisson_traced", cluster, model, opts,
                             poisson_trace, /*drain=*/600.0, &telem));
    progress();
  }

  if (out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"simspeed\",\"model\":\"Llama-13B\",\"cluster\":\"paper\""
        << ",\"seed\":" << bench::kSeed << ",\"rate\":" << rate
        << ",\"requests\":" << requests << ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i) out << ",";
      out << row_json(rows[i]);
    }
    out << "]}\n";
  }

  if (csv) {
    std::printf("%s\n", kCsvHeader);
    for (const auto& r : rows) std::printf("%s\n", row_csv(r).c_str());
  } else {
    std::printf("=== Simulator speed: %zu-request traces, Llama-13B, paper cluster ===\n",
                requests);
    std::printf("%-10s %-8s %10s %10s %12s %10s %14s\n", "engine", "scenario", "requests",
                "finished", "events", "wall(s)", "req/s-wall");
    for (const auto& r : rows) {
      std::printf("%-10s %-8s %10zu %10zu %12zu %10.2f %14.0f\n", r.engine.c_str(),
                  r.scenario.c_str(), r.requests, r.finished, r.events, r.wall_seconds,
                  r.requests_per_wall_second);
    }
    if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  }

  // Determinism guard: the same trace must finish the same requests through
  // the exact same event sequence and dispatch solves -- the hot-path
  // shortcuts are only legal because they change no decision.  A run row
  // without a reference row at its request count fails: a guard that
  // compares nothing must not pass.
  if (!check_path.empty()) {
    const std::vector<RefRow> ref = load_reference(check_path);
    int failures = 0;
    for (const SpeedRow& cur : rows) {
      const auto r = std::find_if(ref.begin(), ref.end(), [&cur](const RefRow& x) {
        return x.engine == cur.engine && x.scenario == cur.scenario &&
               x.requests == cur.requests;
      });
      if (r == ref.end()) {
        std::fprintf(stderr, "FAIL: %s/%s has no reference row at %zu requests in %s\n",
                     cur.engine.c_str(), cur.scenario.c_str(), cur.requests,
                     check_path.c_str());
        ++failures;
        continue;
      }
      const struct {
        const char* name;
        std::optional<std::uint64_t> ref;
        std::uint64_t cur;
      } exact[] = {{"finished", r->finished, cur.finished},
                   {"events", r->events, cur.events},
                   {"lp_solves", r->lp_solves, cur.lp_solves}};
      for (const auto& c : exact) {
        if (c.ref && *c.ref == c.cur) continue;
        std::fprintf(stderr, "FAIL: %s/%s %s diverged: %llu != reference %s at %zu requests\n",
                     cur.engine.c_str(), cur.scenario.c_str(), c.name,
                     static_cast<unsigned long long>(c.cur),
                     c.ref ? std::to_string(*c.ref).c_str() : "(missing)", cur.requests);
        ++failures;
      }
    }
    if (failures > 0) return 2;
    std::fprintf(stderr, "simspeed determinism guard passed (%zu rows at %zu requests)\n",
                 rows.size(), requests);
  }
  return 0;
}
