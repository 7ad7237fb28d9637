// Unit + integration tests: the telemetry subsystem (trace recorder,
// metrics registry, audit trail) and its wiring through run_trace and the
// experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "telemetry/telemetry.h"
#include "workload/scenarios.h"

namespace hetis {
namespace {

// --- registry ---

TEST(Registry, CountersGaugesAndSampling) {
  telemetry::MetricsRegistry reg;
  const int c = reg.counter("reqs");
  reg.add(c);
  reg.sample(0.0);
  // A series created after sampling started is zero back-filled.
  const int g = reg.gauge("depth");
  reg.set(g, 3);
  reg.add(c, 2);
  reg.sample(1.0);

  EXPECT_EQ(reg.counter("reqs"), c);  // create-once: same handle back
  EXPECT_EQ(reg.find("reqs"), c);
  EXPECT_EQ(reg.find("missing"), -1);
  EXPECT_EQ(reg.series_kind(c), 'c');
  EXPECT_EQ(reg.series_kind(g), 'g');
  EXPECT_DOUBLE_EQ(reg.value(c), 3.0);
  ASSERT_EQ(reg.sample_count(), 2u);
  EXPECT_EQ(reg.samples(c), (std::vector<double>{1, 3}));
  EXPECT_EQ(reg.samples(g), (std::vector<double>{0, 3}));
  Seconds at = -1;
  EXPECT_DOUBLE_EQ(reg.max_sample(g, &at), 3.0);
  EXPECT_DOUBLE_EQ(at, 1.0);

  std::ostringstream os;
  reg.write_series_csv(os);
  std::istringstream lines(os.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "time,reqs,depth");
  std::string row;
  std::size_t rows = 0;
  while (std::getline(lines, row)) ++rows;
  EXPECT_EQ(rows, 2u);
}

TEST(Registry, LabeledSeriesName) {
  EXPECT_EQ(telemetry::MetricsRegistry::labeled("arrivals_total", "tenant", "chat"),
            "arrivals_total{tenant=chat}");
}

TEST(Registry, HistogramBucketMath) {
  telemetry::MetricsRegistry reg;
  const int h = reg.histogram("lat", {10.0, 0.1, 1.0});  // sorted internally
  for (double v : {0.05, 0.1, 0.5, 5.0, 50.0}) reg.observe(h, v);
  EXPECT_EQ(reg.series_kind(h), 'h');

  const auto snaps = reg.histograms();
  ASSERT_EQ(snaps.size(), 1u);
  const telemetry::HistogramSnapshot& s = snaps[0];
  EXPECT_EQ(s.name, "lat");
  EXPECT_EQ(s.upper_bounds, (std::vector<double>{0.1, 1.0, 10.0}));
  // Prometheus `le` convention: bounds are inclusive; the +inf bucket
  // closes at the total count.
  EXPECT_EQ(s.cumulative, (std::vector<std::uint64_t>{2, 3, 4, 5}));
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 55.65);
}

TEST(Registry, HistogramCsvLayout) {
  // One cumulative row per finite bound (%.17g, inclusive `le`), then a
  // +inf row carrying the total; histograms appear in creation order.
  telemetry::MetricsRegistry reg;
  const int a = reg.histogram("ttft_seconds", {0.05, 0.25, 1.0});
  for (double v : {0.01, 0.05, 0.2, 0.9, 3.0, 7.5}) reg.observe(a, v);
  reg.histogram("empty_hist", {1.0, 2.0});      // zero observations
  const int c = reg.histogram("only_inf", {});  // no finite bounds
  reg.observe(c, 42.0);

  std::ostringstream os;
  reg.write_histograms_csv(os);
  EXPECT_EQ(os.str(),
            "histogram,le,count\n"
            "ttft_seconds,0.050000000000000003,2\n"
            "ttft_seconds,0.25,3\n"
            "ttft_seconds,1,4\n"
            "ttft_seconds,+inf,6\n"
            "empty_hist,1,0\n"
            "empty_hist,2,0\n"
            "empty_hist,+inf,0\n"
            "only_inf,+inf,1\n");
}

// --- trace recorder ---

TEST(Trace, RecorderStoresSpansAndTracks) {
  telemetry::TraceRecorder rec;
  rec.add_span(7, telemetry::SpanPhase::kQueue, 0.0, 0.5, 1, 0);
  rec.add_span(7, telemetry::SpanPhase::kPrefill, 0.5, 0.8, 1, 0);
  const int kv = rec.intern_track("kv_fill[dev0]");
  EXPECT_EQ(rec.intern_track("kv_fill[dev0]"), kv);
  rec.add_counter(kv, 1.0, 0.25);
  EXPECT_EQ(rec.span_count(), 2u);
  EXPECT_EQ(rec.counter_count(), 1u);
  ASSERT_EQ(rec.tracks().size(), 1u);
  EXPECT_EQ(rec.tracks()[0], "kv_fill[dev0]");

  std::vector<telemetry::SpanPhase> phases;
  rec.each_span([&](const telemetry::SpanEvent& ev) {
    EXPECT_EQ(ev.tid, 7);
    phases.push_back(ev.phase);
  });
  EXPECT_EQ(phases, (std::vector<telemetry::SpanPhase>{telemetry::SpanPhase::kQueue,
                                                       telemetry::SpanPhase::kPrefill}));
}

TEST(Trace, SpanPhaseNames) {
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanPhase::kQueue), "queue");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanPhase::kPrefill), "prefill");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanPhase::kDecode), "decode");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanPhase::kPreempted), "preempted");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanPhase::kMigrate), "migrate");
}

// --- controlled-run integration ---

/// Minimal structural JSON validator: strings and escapes respected,
/// braces/brackets balanced and properly nested.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_str && stack.empty();
}

constexpr Seconds kHorizon = 8.0;

/// One controlled run mirroring elastic_serving: bursty trace, a churn
/// script replayed onto a mutable cluster, static policy, telemetry on.
engine::RunReport run_controlled(const std::string& engine_name, control::Churn churn,
                                 telemetry::Telemetry& telem) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::ScenarioSpec scenario =
      workload::scenario_preset(workload::Scenario::kBursty, 4.0, kHorizon, 20251116);
  const auto trace = workload::generate_scenario(scenario);

  control::ControlSpec cs;
  cs.churn = control::churn_preset(churn, kHorizon, 20251116);
  cs.policy = "static";
  cs.min_devices = 4;
  cs.horizon = kHorizon + 30.0;
  cs.slo.ttft = 2.0;
  cs.slo.tpot = 0.15;
  control::Controller controller(cs, cluster);  // mutable-cluster overload

  engine::EngineOptions options;
  if (engine_name == "hetis") {
    engine::HetisConfig cfg;
    cfg.sample_interval = 0.5;  // occupancy tracks for the trace
    cfg.sample_horizon = kHorizon;
    options.system = std::move(cfg);
  }
  auto eng = engine::make(engine_name, cluster, model, options);
  engine::RunOptions run(900.0);
  run.slo = cs.slo;
  run.on_start = controller.starter();
  run.telemetry = &telem;
  return engine::run_trace(*eng, trace, run);
}

/// Well-formedness of one request's span set: lifecycle spans are ordered
/// and non-overlapping, a queue span opens the track, decode never starts
/// before some prefill completed, and migrate spans (which nest inside the
/// lifecycle) stay within the request's observed window.
void check_request_spans(std::int64_t tid, std::vector<telemetry::SpanEvent> spans) {
  constexpr double kEps = 1e-9;
  for (const auto& ev : spans) {
    EXPECT_LE(ev.t0, ev.t1 + kEps) << "inverted span on request " << tid;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const auto& a, const auto& b) { return a.t0 < b.t0; });
  const Seconds window_start = spans.front().t0;
  Seconds window_end = 0;
  for (const auto& ev : spans) window_end = std::max(window_end, ev.t1);

  std::vector<telemetry::SpanEvent> life;
  for (const auto& ev : spans) {
    if (ev.phase == telemetry::SpanPhase::kMigrate) {
      EXPECT_GE(ev.t0, window_start - kEps) << "migrate before arrival on request " << tid;
      EXPECT_LE(ev.t1, window_end + kEps) << "migrate past finish on request " << tid;
    } else {
      life.push_back(ev);
    }
  }
  ASSERT_FALSE(life.empty()) << "request " << tid << " has only migrate spans";
  EXPECT_EQ(life.front().phase, telemetry::SpanPhase::kQueue)
      << "request " << tid << " does not open with a queue span";
  Seconds first_prefill_done = -1;
  for (std::size_t i = 0; i < life.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(life[i].t0, life[i - 1].t1 - kEps)
          << "overlapping lifecycle spans on request " << tid;
    }
    if (life[i].phase == telemetry::SpanPhase::kPrefill && first_prefill_done < 0) {
      first_prefill_done = life[i].t1;
    }
    if (life[i].phase == telemetry::SpanPhase::kDecode) {
      ASSERT_GE(first_prefill_done, 0.0)
          << "decode without a prior prefill on request " << tid;
      EXPECT_GE(life[i].t0, first_prefill_done - kEps)
          << "decode before prefill completion on request " << tid;
    }
  }
}

TEST(Telemetry, SpanNestingWellFormedUnderChurn) {
  for (const control::Churn churn : {control::Churn::kStraggler, control::Churn::kSpotNotice}) {
    for (const std::string engine_name : {"splitwise", "hexgen", "hetis"}) {
      SCOPED_TRACE(engine_name + "/" +
                   control::to_string(control::churn_preset(churn, kHorizon, 20251116).kind));
      telemetry::Telemetry telem;
      const engine::RunReport report = run_controlled(engine_name, churn, telem);
      EXPECT_GT(report.finished, 0u);
      EXPECT_GT(telem.recorder().span_count(), 0u);

      std::map<std::int64_t, std::vector<telemetry::SpanEvent>> by_request;
      telem.recorder().each_span(
          [&](const telemetry::SpanEvent& ev) { by_request[ev.tid].push_back(ev); });
      EXPECT_GE(by_request.size(), report.finished);
      for (auto& [tid, spans] : by_request) check_request_spans(tid, std::move(spans));
    }
  }
}

TEST(Telemetry, AuditTrailRecordsReplanWithSignals) {
  telemetry::Telemetry telem;
  run_controlled("hetis", control::Churn::kStraggler, telem);
  const telemetry::AuditTrail& audit = telem.audit();
  ASSERT_GE(audit.size(), 1u);
  EXPECT_GE(audit.replans(), 1u);

  bool saw_straggler = false;
  for (const telemetry::AuditRecord& rec : audit.records()) {
    EXPECT_TRUE(rec.action == "redeploy" || rec.action == "replan_in_place" ||
                rec.action == "evacuate")
        << rec.action;
    EXPECT_FALSE(rec.trigger.empty());
    EXPECT_GE(rec.signals.now, 0.0);
    EXPECT_FALSE(rec.devices_before.empty());
    EXPECT_FALSE(rec.devices_after.empty());
    if (rec.trigger == "straggler_crossing") {
      saw_straggler = true;
      EXPECT_TRUE(rec.forced);
      EXPECT_EQ(rec.action, "replan_in_place");
      EXPECT_GE(rec.device, 0);
      // Hetis replans through the Parallelizer, so the record carries the
      // planner tier's diagnostics and plan digests.
      EXPECT_TRUE(rec.has_diagnostics);
      EXPECT_FALSE(rec.plan_before.empty());
      EXPECT_FALSE(rec.plan_after.empty());
      EXPECT_EQ(rec.signals.degraded_devices, 1);
    }
  }
  EXPECT_TRUE(saw_straggler);

  std::ostringstream os;
  audit.write_json(os);
  EXPECT_TRUE(json_well_formed(os.str()));
  EXPECT_NE(os.str().find("\"trigger\":\"straggler_crossing\""), std::string::npos);
}

TEST(Telemetry, ChromeTraceWellFormedWithOccupancyTracks) {
  telemetry::Telemetry telem;
  run_controlled("hetis", control::Churn::kStraggler, telem);
  std::ostringstream os;
  telem.write_chrome_trace(os);
  const std::string doc = os.str();
  EXPECT_TRUE(json_well_formed(doc));
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"prefill\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"decode\""), std::string::npos);
  // Per-device occupancy counters (Hetis usage sampling was on).
  EXPECT_GT(telem.recorder().counter_count(), 0u);
  EXPECT_NE(doc.find("kv_fill[dev"), std::string::npos);
  // Audit instants ride on the control track.
  EXPECT_NE(doc.find("straggler_crossing"), std::string::npos);

  // Five-line digest: 4 separators, headline fields present.
  const std::string digest = telem.summary();
  EXPECT_EQ(std::count(digest.begin(), digest.end(), '\n'), 4);
  EXPECT_NE(digest.find("replans:"), std::string::npos);
  EXPECT_NE(digest.find("worst queue depth:"), std::string::npos);
}

TEST(Telemetry, ArtifactPaths) {
  const auto paths = telemetry::Telemetry::artifact_paths("out/run.trace.json");
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], "out/run.trace.json");
  EXPECT_EQ(paths[1], "out/run.metrics.csv");
  EXPECT_EQ(paths[2], "out/run.audit.json");
}

// --- run-event bus ---

/// Logs every bus event as one line, so two sinks compare event for event.
class BusRecorder : public engine::RunObserver {
 public:
  void on_arrival(const workload::Request& r) override { log("arrival", r.id, r.arrival); }
  void on_prefill_start(workload::RequestId id, Seconds t) override {
    log("prefill_start", id, t);
  }
  void on_prefill_done(workload::RequestId id, Seconds t) override {
    log("prefill_done", id, t);
    ++prefill_done[id];
  }
  void on_reprefill_done(workload::RequestId id, Seconds t) override {
    log("reprefill_done", id, t);
    ++reprefill_done[id];
  }
  void on_token(workload::RequestId id, Seconds t, std::int64_t generated) override {
    log("token" + std::to_string(generated), id, t);
  }
  void on_finish(workload::RequestId id, Seconds t) override { log("finish", id, t); }
  void on_preempt(workload::RequestId id, Seconds t) override { log("preempt", id, t); }
  void on_migrate(workload::RequestId id, Seconds start, Seconds /*ready*/, int src_device,
                  int dst_device) override {
    log("migrate" + std::to_string(src_device) + ">" + std::to_string(dst_device), id, start);
  }
  void on_usage(const engine::UsageSample& s) override { log("usage", s.device, s.time); }
  void on_decision(const telemetry::AuditRecord& rec) override {
    log("decision " + rec.trigger + "/" + rec.action, rec.device, rec.time);
    decisions.push_back(rec.trigger + "/" + rec.action + "@" + engine::csv_double(rec.time));
  }

  std::vector<std::string> events;
  std::map<workload::RequestId, int> prefill_done;
  std::map<workload::RequestId, int> reprefill_done;
  std::vector<std::string> decisions;

 private:
  void log(const std::string& what, std::int64_t id, Seconds t) {
    events.push_back(what + " " + std::to_string(id) + " " + engine::csv_double(t));
  }
};

/// A controlled, traced run with two more sinks on the bus: `first` through
/// RunOptions::observer, `second` attached from on_start ahead of the
/// Controller.  Spot churn restarts the baselines' in-flight requests, so
/// preempted requests re-prefill.
struct BusRun {
  explicit BusRun(const std::string& engine_name) {
    control::ControlSpec cs;
    cs.churn = control::churn_preset(control::Churn::kSpot, kHorizon, 20251116);
    cs.policy = "static";
    cs.min_devices = 4;
    cs.horizon = kHorizon + 30.0;
    controller = std::make_unique<control::Controller>(cs, cluster);
    engine::EngineOptions options;
    if (engine_name == "hetis") {
      engine::HetisConfig cfg;
      cfg.sample_interval = 0.5;  // usage samples ride the bus too
      cfg.sample_horizon = kHorizon;
      options.system = std::move(cfg);
    }
    eng = engine::make(engine_name, cluster, model::model_by_name("Llama-13B"), options);
  }

  engine::RunReport run(const std::vector<workload::Request>& trace, telemetry::Telemetry& telem,
                        BusRecorder& first, BusRecorder& second) {
    engine::RunOptions opts(900.0);
    opts.observer = &first;
    opts.telemetry = &telem;
    opts.on_start = [&](sim::Simulation& sim, engine::Engine& e) {
      e.metrics().attach(&second);
      controller->attach(sim, e);
    };
    return engine::run_trace(*eng, trace, opts);
  }

  hw::Cluster cluster = harness::cluster_by_name("paper");
  std::unique_ptr<control::Controller> controller;
  std::unique_ptr<engine::Engine> eng;
};

std::vector<workload::Request> bus_trace() {
  return workload::generate_scenario(
      workload::scenario_preset(workload::Scenario::kBursty, 4.0, kHorizon, 20251116));
}

TEST(RunEventBus, EverySinkSeesOneEventSetAndEveryDecision) {
  int reprefilled = 0;
  for (const std::string engine_name : {"splitwise", "hexgen", "hetis"}) {
    SCOPED_TRACE(engine_name);
    const std::vector<workload::Request> trace = bus_trace();
    telemetry::Telemetry telem;
    BusRecorder first, second;
    BusRun bus(engine_name);
    const engine::RunReport report = bus.run(trace, telem, first, second);
    ASSERT_EQ(report.finished, trace.size());
    EXPECT_TRUE(bus.eng->metrics().sinks().empty());

    // Both observers saw the same events in the same order.
    EXPECT_FALSE(first.events.empty());
    EXPECT_EQ(first.events, second.events);

    // on_prefill_done fires exactly once per request; later completions
    // are on_reprefill_done, and telemetry opened a decode span for each.
    ASSERT_EQ(first.prefill_done.size(), trace.size());
    for (const auto& [id, n] : first.prefill_done) EXPECT_EQ(n, 1) << "request " << id;
    std::map<std::int64_t, int> decode_spans;
    telem.recorder().each_span([&](const telemetry::SpanEvent& ev) {
      if (ev.phase == telemetry::SpanPhase::kDecode) ++decode_spans[ev.tid];
    });
    for (const auto& [id, n] : first.prefill_done) {
      const auto re = first.reprefill_done.find(id);
      const int completions = n + (re == first.reprefill_done.end() ? 0 : re->second);
      EXPECT_EQ(decode_spans[id], completions) << "request " << id;
    }
    for (const auto& [id, n] : first.reprefill_done) reprefilled += n;
    EXPECT_EQ(telem.preemptions(), static_cast<std::size_t>(report.preemptions));

    // Every decision reached the audit trail through on_decision, and the
    // other sinks saw the same decisions.
    ASSERT_GE(telem.audit().size(), 1u);
    ASSERT_EQ(first.decisions.size(), telem.audit().size());
    for (std::size_t i = 0; i < first.decisions.size(); ++i) {
      const telemetry::AuditRecord& rec = telem.audit().records()[i];
      EXPECT_EQ(first.decisions[i],
                rec.trigger + "/" + rec.action + "@" + engine::csv_double(rec.time));
    }
  }
  // The spot script restarts in-flight requests, so re-prefills happen.
  EXPECT_GT(reprefilled, 0);
}

TEST(RunEventBus, NothingStaysAttachedWhenTheRunThrows) {
  std::vector<workload::Request> trace = bus_trace();
  ASSERT_GE(trace.size(), 2u);
  trace[1].id = trace[0].id;  // duplicate arrival: MetricsCollector throws
  telemetry::Telemetry telem;
  BusRecorder first, second;
  BusRun bus("hetis");
  EXPECT_THROW(bus.run(trace, telem, first, second), std::logic_error);
  EXPECT_TRUE(bus.eng->metrics().sinks().empty());
  EXPECT_EQ(first.events, second.events);
}

// --- harness integration ---

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

harness::ExperimentSpec traced_spec(const std::string& dir, int jobs) {
  harness::ExperimentSpec spec;
  spec.name = "telemetry_sweep";
  spec.horizon = 6.0;
  engine::SloSpec slo;
  slo.ttft = 2.0;
  slo.tpot = 0.15;
  spec.run.slo = slo;
  spec.add_scenario(
      workload::scenario_preset(workload::Scenario::kBursty, 4.0, spec.horizon, spec.seed));
  control::ControlSpec cs;
  cs.policy = "static";
  cs.min_devices = 4;
  cs.slo = slo;
  cs.churn = control::churn_preset(control::Churn::kStraggler, spec.horizon, spec.seed);
  spec.set_control(cs);
  spec.trace_dir = dir;
  spec.jobs = jobs;
  return spec;
}

TEST(Harness, TraceArtifactsByteIdenticalAcrossJobsAndRowsUnperturbed) {
  const std::filesystem::path base = std::filesystem::path(::testing::TempDir()) / "hetis_tm";
  const std::filesystem::path dir1 = base / "jobs1";
  const std::filesystem::path dir8 = base / "jobs8";
  std::filesystem::remove_all(base);

  const auto rows1 = harness::run_sweep(traced_spec(dir1.string(), 1));
  const auto rows8 = harness::run_sweep(traced_spec(dir8.string(), 8));
  harness::ExperimentSpec untraced = traced_spec("", 8);
  const auto rows_off = harness::run_sweep(untraced);

  // Rows: identical bytes at jobs 1 vs 8, and telemetry never perturbs
  // serving results.
  ASSERT_EQ(rows1.size(), rows8.size());
  ASSERT_EQ(rows1.size(), rows_off.size());
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_EQ(harness::to_csv_row(rows1[i]), harness::to_csv_row(rows8[i]));
    EXPECT_EQ(harness::to_csv_row(rows1[i]), harness::to_csv_row(rows_off[i]));
  }

  // Artifacts: same file set, byte-identical content.
  std::vector<std::string> names1, names8;
  for (const auto& e : std::filesystem::directory_iterator(dir1)) {
    names1.push_back(e.path().filename().string());
  }
  for (const auto& e : std::filesystem::directory_iterator(dir8)) {
    names8.push_back(e.path().filename().string());
  }
  std::sort(names1.begin(), names1.end());
  std::sort(names8.begin(), names8.end());
  ASSERT_EQ(names1, names8);
  // 3 engines x (trace + metrics + audit).
  EXPECT_EQ(names1.size(), 9u);
  for (const std::string& name : names1) {
    const std::string a = slurp(dir1 / name);
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, slurp(dir8 / name)) << name << " differs between jobs=1 and jobs=8";
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      EXPECT_TRUE(json_well_formed(a)) << name;
    }
  }

  // Every metrics CSV carries a histogram block with at least the ttft,
  // e2e and tpot histograms, each closed by its +inf row.
  for (const std::string& name : names1) {
    if (name.find(".metrics.csv") == std::string::npos) continue;
    std::istringstream is(slurp(dir1 / name));
    std::string line;
    while (std::getline(is, line) && line != "histogram,le,count") {
    }
    ASSERT_EQ(line, "histogram,le,count") << name << " lacks a histogram block";
    int closed = 0;
    while (std::getline(is, line) && !line.empty()) {
      if (line.find(",+inf,") != std::string::npos) ++closed;
    }
    EXPECT_GE(closed, 3) << name;
  }
  std::filesystem::remove_all(base);
}

TEST(Harness, SharedTelemetryValidation) {
  telemetry::Telemetry telem;
  harness::ExperimentSpec spec;
  spec.run.telemetry = &telem;
  spec.jobs = 8;
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
  spec.jobs = 1;
  spec.trace_dir = "somewhere";
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
  spec.run.telemetry = nullptr;
  spec.telemetry_interval = 0;
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace hetis
