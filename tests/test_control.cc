// Elastic control plane: churn generators, scale policies, controller
// determinism, and mid-run reconfiguration correctness (no lost or
// double-counted finishes under gpu_leave with requests in flight).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/restart.h"
#include "control/controller.h"
#include "control/events.h"
#include "control/policy.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "hetis/hetis_engine.h"
#include "model/llm.h"
#include "telemetry/audit.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis {
namespace {

// ---------------------------------------------------------------------------
// Churn generators
// ---------------------------------------------------------------------------

TEST(ChurnEvents, NamesRoundTripAndUnknownThrows) {
  for (const std::string& name : control::churn_names()) {
    EXPECT_EQ(control::to_string(control::churn_by_name(name)), name);
  }
  EXPECT_THROW(control::churn_by_name("meteor"), std::out_of_range);
}

TEST(ChurnEvents, PreemptibleDevicesAreLowestPowerFirst) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  std::vector<int> spot = control::preemptible_devices(cluster);
  ASSERT_EQ(spot.size(), 12u);
  // Paper cluster: P100s (ids 8-11) churn first, A100s (ids 0-3) last.
  EXPECT_EQ(cluster.device(spot.front()).type, hw::GpuType::kP100);
  EXPECT_EQ(cluster.device(spot.back()).type, hw::GpuType::kA100_80G);
}

TEST(ChurnEvents, DipLeavesThenRejoinsSameDevices) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kDip, 40.0, 7);
  spec.leave_count = 3;
  auto events = control::generate_churn(spec, cluster);
  ASSERT_EQ(events.size(), 6u);
  std::vector<int> left, joined;
  for (const auto& ev : events) {
    EXPECT_LT(ev.time, spec.horizon);
    if (ev.kind == control::ClusterEventKind::kGpuLeave) left.push_back(ev.device);
    if (ev.kind == control::ClusterEventKind::kGpuJoin) joined.push_back(ev.device);
  }
  EXPECT_EQ(left, joined);
  // Sorted by time: all leaves precede all joins.
  EXPECT_LT(events.front().time, events.back().time);
  EXPECT_EQ(events.front().kind, control::ClusterEventKind::kGpuLeave);
  EXPECT_EQ(events.back().kind, control::ClusterEventKind::kGpuJoin);
}

TEST(ChurnEvents, SpotIsSeedDeterministicAndBounded) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kSpot, 60.0, 11);
  auto a = control::generate_churn(spec, cluster);
  auto b = control::generate_churn(spec, cluster);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].device, b[i].device);
  }
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].time, a[i - 1].time);
  spec.seed = 12;
  auto c = control::generate_churn(spec, cluster);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = c[i].time != a[i].time;
  EXPECT_TRUE(differs);
}

TEST(ChurnEvents, SurgeEmitsForecastShifts) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kSurge, 50.0, 1);
  auto events = control::generate_churn(spec, cluster);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, control::ClusterEventKind::kLoadShift);
  EXPECT_DOUBLE_EQ(events[0].factor, spec.surge_factor);
  EXPECT_DOUBLE_EQ(events[1].factor, 1.0);
}

TEST(ChurnEvents, ValidationRejectsBadParameters) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kDip, 10.0, 1);
  spec.rejoin_frac = 0.1;
  spec.leave_frac = 0.5;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
  spec = control::churn_preset(control::Churn::kSpot, 10.0, 1);
  spec.mean_up = 0;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scale policies
// ---------------------------------------------------------------------------

control::ControlSignals calm_signals() {
  control::ControlSignals s;
  s.queue_depth = 0;
  s.kv_pressure = 0.1;
  s.slo_attainment = 1.0;
  s.active_devices = 8;
  s.available_devices = 12;
  return s;
}

TEST(ScalePolicies, StaticNeverMoves) {
  auto p = control::make_policy("static");
  control::ControlSignals s = calm_signals();
  s.queue_depth = 1000;
  s.kv_pressure = 1.0;
  EXPECT_EQ(p->target_devices(s, 8), 8);
}

TEST(ScalePolicies, ThresholdScalesUpDownWithHysteresis) {
  auto p = control::make_policy("threshold");
  control::ControlSignals s = calm_signals();
  s.queue_depth = 20;  // above up_queue
  EXPECT_EQ(p->target_devices(s, 8), 9);
  s = calm_signals();
  s.kv_pressure = 0.95;  // above up_kv
  EXPECT_EQ(p->target_devices(s, 8), 9);
  s = calm_signals();  // both below the down thresholds
  EXPECT_EQ(p->target_devices(s, 8), 7);
  s.queue_depth = 4;  // inside the hysteresis band: hold
  EXPECT_EQ(p->target_devices(s, 8), 8);
}

TEST(ScalePolicies, ThresholdFollowsForecastToMax) {
  auto p = control::make_policy("threshold");
  control::ControlSignals s = calm_signals();
  s.load_forecast = 3.0;
  EXPECT_EQ(p->target_devices(s, 6), s.available_devices);
}

TEST(ScalePolicies, SloPolicyTracksAttainmentBand) {
  auto p = control::make_policy("slo");
  control::ControlSignals s = calm_signals();
  s.slo_attainment = 0.5;
  EXPECT_EQ(p->target_devices(s, 8), 9);
  s.slo_attainment = 0.99;
  s.queue_depth = 0;
  EXPECT_EQ(p->target_devices(s, 8), 7);
  s.slo_attainment = 0.9;  // inside the dead band
  EXPECT_EQ(p->target_devices(s, 8), 8);
  EXPECT_THROW(control::make_policy("oracle"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Controller + engines
// ---------------------------------------------------------------------------

/// Counts lifecycle events per id; fails on double finishes.
class FinishLedger : public engine::RunObserver {
 public:
  void on_arrival(const workload::Request& r) override { ++arrivals_[r.id]; }
  void on_finish(workload::RequestId id, Seconds t) override {
    (void)t;
    ++finishes_[id];
  }
  const std::map<workload::RequestId, int>& arrivals() const { return arrivals_; }
  const std::map<workload::RequestId, int>& finishes() const { return finishes_; }

 private:
  std::map<workload::RequestId, int> arrivals_;
  std::map<workload::RequestId, int> finishes_;
};

control::ControlSpec dip_spec(Seconds horizon, int leave_count = 2) {
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kDip, horizon, 5);
  cs.churn.leave_count = leave_count;
  cs.churn.leave_frac = 0.3;
  cs.churn.rejoin_frac = 0.7;
  cs.policy = "static";
  cs.horizon = horizon + 30.0;
  cs.min_devices = 4;
  return cs;
}

/// One controlled run's re-deploy and controller counters.
struct ChurnRun {
  engine::ReconfigStats reconfig;
  control::ControllerStats control;
};

/// Runs `trace` on engine `name` under `cs` and checks the ledger: every
/// arrival finishes exactly once, through the chained observer (the
/// controller forwards downstream).
ChurnRun expect_each_arrival_finishes_once(const std::string& name, const hw::Cluster& cluster,
                                           const model::ModelSpec& model,
                                           const std::vector<workload::Request>& trace,
                                           const control::ControlSpec& cs) {
  auto eng = engine::make(name, cluster, model);
  FinishLedger ledger;
  control::Controller ctl(cs, cluster);
  engine::RunOptions run(900.0);
  run.observer = &ledger;
  run.on_start = ctl.starter();
  engine::RunReport rep = engine::run_trace(*eng, trace, run);

  EXPECT_EQ(rep.arrived, trace.size());
  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_FALSE(rep.drain_timeout_hit);
  EXPECT_EQ(ledger.arrivals().size(), trace.size());
  EXPECT_EQ(ledger.finishes().size(), trace.size());
  for (const auto& [id, n] : ledger.finishes()) EXPECT_EQ(n, 1) << "request " << id;
  const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get());
  EXPECT_NE(rc, nullptr);
  // The churn actually forced re-deploys.
  ChurnRun out{rc != nullptr ? rc->reconfig_stats() : engine::ReconfigStats{}, ctl.stats()};
  EXPECT_GE(out.reconfig.reconfigurations, 2);
  return out;
}

TEST(Controller, MidRunGpuLeaveLosesNoFinishes) {
  // Acceptance: a gpu_leave with requests in flight must not lose or
  // double-count a single finish, on any engine.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 4.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);
  ASSERT_GT(trace.size(), 10u);

  for (const std::string name : {"hetis", "splitwise", "hexgen"}) {
    SCOPED_TRACE(name);
    // Leave + rejoin.
    const ChurnRun dip = expect_each_arrival_finishes_once(name, cluster, model, trace,
                                                           dip_spec(8.0));
    EXPECT_GE(dip.control.forced_reconfigs, 2);
  }

  // Spot preemptions with notice re-deploy again while a baseline's reload
  // window is still open: the newer restart supersedes the older flush and
  // inherits its backlog, which must still reach the new deployment once.
  topts.horizon = 40.0;
  trace = workload::build_trace(topts);
  const Seconds dead = baselines::restart_dead_time(cluster, model);
  for (const std::string name : {"hetis", "splitwise", "hexgen"}) {
    Seconds overlap = 0;  // pause time the overlapping windows shared
    for (const std::uint64_t seed : {3u, 7u, 11u}) {
      SCOPED_TRACE(name + " spot_notice seed " + std::to_string(seed));
      control::ControlSpec cs;
      cs.churn = control::churn_preset(control::Churn::kSpotNotice, topts.horizon, seed);
      cs.horizon = topts.horizon;
      cs.min_devices = 4;
      const engine::ReconfigStats st =
          expect_each_arrival_finishes_once(name, cluster, model, trace, cs).reconfig;
      overlap += st.reconfigurations * dead - st.restart_dead_time;
    }
    // More than a whole window's worth shared: restarts really overlapped.
    if (name != "hetis") {
      EXPECT_GT(overlap, dead) << name;
    }
  }
}

TEST(Controller, HetisMigratesWhereBaselinesRestart) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 4.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  auto run_one = [&](const std::string& name) {
    auto eng = engine::make(name, cluster, model);
    control::Controller ctl(dip_spec(8.0), cluster);
    engine::RunOptions run(900.0);
    run.on_start = ctl.starter();
    engine::run_trace(*eng, trace, run);
    return dynamic_cast<const engine::Reconfigurable*>(eng.get())->reconfig_stats();
  };

  engine::ReconfigStats hetis = run_one("hetis");
  EXPECT_GT(hetis.migrated_requests, 0);
  EXPECT_GT(hetis.migrated_kv_bytes, 0);
  EXPECT_EQ(hetis.restart_dead_time, 0.0);
  engine::ReconfigStats splitwise = run_one("splitwise");
  EXPECT_EQ(splitwise.migrated_requests, 0);
  EXPECT_GT(splitwise.restart_dead_time, 0.0);
  engine::ReconfigStats hexgen = run_one("hexgen");
  EXPECT_EQ(hexgen.migrated_requests, 0);
  EXPECT_GT(hexgen.restarted_requests, 0);
}

TEST(Controller, RejectsNonReconfigurableEnginesWhenChurnDemands) {
  class FixedEngine : public engine::Engine {
   public:
    std::string name() const override { return "Fixed"; }
    void submit(sim::Simulation&, const workload::Request& r) override {
      metrics_.on_arrival(r);
    }
    Bytes usable_kv_capacity() const override { return 0; }
  };
  hw::Cluster cluster = harness::cluster_by_name("paper");
  FixedEngine eng;
  sim::Simulation sim;

  control::ControlSpec churny = dip_spec(10.0);
  control::Controller ctl(churny, cluster);
  EXPECT_THROW(ctl.attach(sim, eng), std::invalid_argument);

  // A pure observer attachment (no churn, static policy) is fine.
  control::ControlSpec calm;
  calm.policy = "static";
  calm.horizon = 1.0;
  control::Controller watcher(calm, cluster);
  EXPECT_NO_THROW(watcher.attach(sim, eng));
}

TEST(Controller, ValidatesSpecBounds) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  control::ControlSpec cs;
  cs.min_devices = 0;
  EXPECT_THROW(control::Controller(cs, cluster), std::invalid_argument);
  cs.min_devices = 2;
  cs.initial_devices = 99;
  EXPECT_THROW(control::Controller(cs, cluster), std::invalid_argument);
}

// The Controller's signal state, kept the plain way: one ordered container
// per field.  A re-prefill leaves the queue at its prefill completion; a
// preemption before the first prefill completes is ignored (arrived minus
// prefilled already counts the request).  Finishes are graded by
// engine::meets_slo's definition, spelled out, into the one EWMA.  Like the
// collector's record, arrival, first token and output length outlive a
// finish: a finished id that finishes again is graded on its restamped
// record.
struct ReferenceSignals {
  double alpha;
  engine::SloSpec slo;
  std::size_t arrived = 0, prefilled = 0, finished = 0;
  std::set<workload::RequestId> reprefilling;
  std::map<workload::RequestId, Seconds> arrival, first_token;
  std::map<workload::RequestId, std::int64_t> output_len;
  bool slo_seeded = false;
  double slo_attainment = control::ControlSignals{}.slo_attainment;

  ReferenceSignals(double a, engine::SloSpec s) : alpha(a), slo(s) {}

  std::size_t queue_depth() const { return arrived - prefilled + reprefilling.size(); }
  std::size_t in_flight() const { return arrived - finished; }

  void on_arrival(workload::RequestId id, Seconds t, std::int64_t out) {
    ++arrived;
    arrival[id] = t;
    output_len[id] = out;
  }
  /// A prefill completion; returns whether it was a re-prefill.
  bool on_prefill(workload::RequestId id, Seconds t) {
    if (first_token.count(id) != 0) {
      reprefilling.erase(id);
      return true;
    }
    ++prefilled;
    first_token[id] = t;
    return false;
  }
  void on_finish(workload::RequestId id, Seconds t) {
    ++finished;
    const Seconds ft = first_token.count(id) != 0 ? first_token.at(id) : -1.0;
    const std::int64_t out = output_len.at(id);
    const bool ttft_ok = slo.ttft <= 0 || (ft >= 0 && ft - arrival.at(id) <= slo.ttft);
    const bool tpot_ok =
        slo.tpot <= 0 || out <= 1 || (t - ft) / static_cast<double>(out - 1) <= slo.tpot;
    const double sample = ttft_ok && tpot_ok ? 1.0 : 0.0;
    if (!slo_seeded) {
      slo_attainment = sample;
      slo_seeded = true;
    } else {
      slo_attainment = alpha * sample + (1.0 - alpha) * slo_attainment;
    }
    reprefilling.erase(id);
  }
  /// Returns whether the preemption counts (the first prefill completed).
  bool on_preempt(workload::RequestId id) {
    if (first_token.count(id) == 0) return false;
    reprefilling.insert(id);
    return true;
  }
};

TEST(Controller, SignalsMatchThePerFieldReferenceOnASeededLifecycleStream) {
  // A request-free engine: the Controller only sees the events fed below
  // through the engine's collector.
  class IdleEngine : public engine::Engine {
   public:
    std::string name() const override { return "Idle"; }
    void submit(sim::Simulation&, const workload::Request&) override {}
    Bytes usable_kv_capacity() const override { return 0; }
  };

  // Seeded lifecycles, interleaved at random: arrival, sometimes a
  // preemption before the first prefill, prefill, tokens, preemptions,
  // an occasional re-prefill, and a finish -- or none, so some requests
  // stay in flight to the end.  A request's output length is its last
  // token count (carried in the arrival event's `generated`).
  enum Kind { kArrival, kPrefill, kToken, kPreempt, kFinish };
  struct Ev {
    Kind kind;
    workload::RequestId id;
    Seconds t;
    std::int64_t generated;
  };
  std::mt19937_64 rng(20251116);
  std::vector<workload::RequestId> ids = {3, 0, 41, 2, 17};
  for (int i = 0; i < 40; ++i) ids.push_back(static_cast<workload::RequestId>(rng() % 200));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::shuffle(ids.begin(), ids.end(), rng);  // out-of-order ids
  std::vector<std::vector<Ev>> lifecycles;
  for (workload::RequestId id : ids) {
    std::vector<Ev> life;
    Seconds t = std::uniform_real_distribution<double>(0.0, 5.0)(rng);
    life.push_back({kArrival, id, t, 0});
    if (rng() % 4 == 0) life.push_back({kPreempt, id, t + 0.1, 0});
    t += std::uniform_real_distribution<double>(0.0, 6.0)(rng);
    life.push_back({kPrefill, id, t, 0});
    const int tokens = static_cast<int>(rng() % 12);
    for (int k = 1; k <= tokens; ++k) {
      t += 0.05 * static_cast<double>(rng() % 8);
      life.push_back({kToken, id, t, k});
      if (rng() % 6 == 0) life.push_back({kPreempt, id, t, 0});
      if (rng() % 15 == 0) life.push_back({kPrefill, id, t + 0.5, 0});
    }
    if (rng() % 8 != 0) life.push_back({kFinish, id, t + 0.1, 0});
    life.front().generated = tokens;
    lifecycles.push_back(std::move(life));
  }
  std::vector<Ev> stream;
  std::vector<std::size_t> next(lifecycles.size(), 0);
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t r = 0; r < lifecycles.size(); ++r) {
      if (next[r] < lifecycles[r].size()) open.push_back(r);
    }
    if (open.empty()) break;
    const std::size_t r = open[rng() % open.size()];
    stream.push_back(lifecycles[r][next[r]++]);
  }
  // A token for an id that never arrived reaches the Controller's bus (the
  // collector fans tokens out without a lookup) and changes nothing.
  const auto at = [&](std::size_t frac) { return stream.begin() + stream.size() * frac / 8; };
  stream.insert(at(3), Ev{kToken, 9'002, 4.5, 3});
  // A request that finishes, then reappears under the same id with a token
  // and a second finish, inserted back to front.  The collector restamps
  // the finish on the kept record, so the second finish misses the TPOT
  // target ((9.0 - 1.0) / 19 > 0.2) where the first met both
  // ((1.6 - 1.0) / 19).
  stream.insert(at(7), Ev{kFinish, 250, 9.0, 0});
  stream.insert(at(6), Ev{kToken, 250, 8.0, 20});
  stream.insert(at(5), Ev{kFinish, 250, 1.6, 0});
  stream.insert(at(4), Ev{kToken, 250, 1.4, 2});
  stream.insert(at(3), Ev{kPrefill, 250, 1.0, 0});
  stream.insert(at(2), Ev{kArrival, 250, 0.5, 20});
  // An id far above every other, arriving mid-stream while the requests
  // above are in flight.
  stream.insert(at(6), Ev{kFinish, 70'000, 7.9, 0});
  stream.insert(at(5), Ev{kToken, 70'000, 7.3, 2});
  stream.insert(at(5), Ev{kPrefill, 70'000, 7.0, 0});
  stream.insert(at(4), Ev{kArrival, 70'000, 6.0, 2});

  // Both targets, then TPOT alone.
  for (const engine::SloSpec slo : {engine::SloSpec{3.0, 0.2}, engine::SloSpec{0.0, 0.2}}) {
    SCOPED_TRACE("slo.ttft " + std::to_string(slo.ttft));
    control::ControlSpec spec;
    spec.policy = "static";
    spec.tick = 1.0;
    spec.horizon = static_cast<Seconds>(stream.size() + 1);
    spec.slo = slo;
    hw::Cluster cluster = harness::cluster_by_name("paper");
    IdleEngine eng;
    sim::Simulation sim;
    control::Controller ctl(spec, cluster);
    ctl.attach(sim, eng);
    ReferenceSignals ref(spec.signal_alpha, spec.slo);

    engine::MetricsCollector& bus = eng.metrics();
    std::size_t finishes = 0, preempts = 0, early_preempts = 0, reprefills = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Ev& ev = stream[i];
      switch (ev.kind) {
        case kArrival: {
          workload::Request r;
          r.id = ev.id;
          r.arrival = ev.t;
          r.output_len = ev.generated;
          bus.on_arrival(r);
          ref.on_arrival(ev.id, ev.t, ev.generated);
          break;
        }
        case kPrefill:
          // The collector tells a first prefill (on_prefill_done) from a
          // re-prefill (on_reprefill_done).
          bus.on_first_token(ev.id, ev.t);
          if (ref.on_prefill(ev.id, ev.t)) ++reprefills;
          break;
        case kToken:
          bus.on_token(ev.id, ev.t, ev.generated);
          break;
        case kPreempt:
          bus.on_preemption(ev.id, ev.t);
          ++(ref.on_preempt(ev.id) ? preempts : early_preempts);
          break;
        case kFinish:
          bus.on_finish(ev.id, ev.t);
          ref.on_finish(ev.id, ev.t);
          ++finishes;
          break;
      }
      const control::ControlSignals& s = ctl.signals();
      ASSERT_EQ(s.slo_attainment, ref.slo_attainment) << "event " << i;
      // One tick per event: queue depth and in-flight are sampled there.
      const int ticks = ctl.stats().ticks;
      sim.run_until(static_cast<Seconds>(i + 1));
      ASSERT_EQ(ctl.stats().ticks, ticks + 1) << "event " << i;
      ASSERT_EQ(s.queue_depth, ref.queue_depth()) << "event " << i;
      ASSERT_EQ(s.in_flight, ref.in_flight()) << "event " << i;
    }
    // The stream exercised what it claims to.
    EXPECT_GT(preempts, 5u);
    EXPECT_GT(early_preempts, 3u);
    EXPECT_GT(reprefills, 0u);
    EXPECT_GT(finishes, ids.size() / 2);
    EXPECT_GT(ref.slo_attainment, 0.0);
    EXPECT_LT(ref.slo_attainment, 1.0);
    EXPECT_FALSE(ref.reprefilling.empty());
  }
}

TEST(Controller, SplitwiseQueueDepthNeverExceedsInFlightUnderSpotNotice) {
  // Splitwise emits a request's first token only when its KV migration to
  // the decode pool lands, so a restart can preempt a request that the
  // prefill pool already prefilled but that never reached on_prefill_done.
  // arrived - prefilled still counts it; it must not count again as
  // re-prefilling.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 8.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, 8.0, 13);
  cs.policy = "static";
  cs.horizon = 38.0;
  cs.min_devices = 4;

  auto eng = engine::make("splitwise", cluster, model);
  control::Controller ctl(cs, cluster);
  sim::PeriodicTask check;
  int checks = 0;
  engine::RunOptions run(900.0);
  run.on_start = [&](sim::Simulation& sim, engine::Engine& e) {
    ctl.attach(sim, e);
    // Same period and phase as the Controller's tick and queued after it,
    // so each check reads the signals that tick just refreshed.
    check = sim.every(cs.tick, cs.tick, [&] {
      ++checks;
      EXPECT_LE(ctl.signals().queue_depth, ctl.signals().in_flight) << "t=" << sim.now();
      return sim.now() + cs.tick <= cs.horizon;
    });
  };
  const engine::RunReport rep = engine::run_trace(*eng, trace, run);

  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_EQ(checks, ctl.stats().ticks);
  EXPECT_GT(rep.preemptions, 0);
}

// ---------------------------------------------------------------------------
// Harness integration: determinism + per-cell observers
// ---------------------------------------------------------------------------

harness::ExperimentSpec controlled_spec() {
  harness::ExperimentSpec spec;
  spec.name = "controlled";
  spec.engines = {"hetis", "splitwise", "hexgen"};
  spec.models = {"Llama-13B"};
  spec.horizon = 8.0;
  spec.seed = 29;
  spec.run = engine::RunOptions(900.0);
  engine::SloSpec slo;
  slo.ttft = 5.0;
  slo.tpot = 0.15;
  spec.run.slo = slo;
  spec.add_scenario(
      workload::scenario_preset(workload::Scenario::kBursty, 3.0, spec.horizon, spec.seed));
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kDip, spec.horizon, spec.seed);
  cs.policy = "threshold";
  cs.min_devices = 4;
  cs.slo = slo;
  spec.set_control(cs);
  return spec;
}

std::string controlled_csv(int jobs) {
  harness::ExperimentSpec spec = controlled_spec();
  spec.jobs = jobs;
  std::ostringstream csv;
  harness::write_csv(csv, harness::run_sweep(spec));
  return csv.str();
}

TEST(ControlledSweep, SameSeedAndEventsAreByteIdenticalAcrossJobs) {
  // Acceptance: same seed + event trace => byte-identical reports at jobs
  // 1 / 2 / 8 (each cell owns a private controller).
  const std::string serial = controlled_csv(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(controlled_csv(2), serial);
  EXPECT_EQ(controlled_csv(8), serial);
  // The control columns are populated.
  EXPECT_NE(serial.find("dip,threshold,"), std::string::npos);
}

TEST(ControlledSweep, SetControlStampsSeedAndHorizon) {
  harness::ExperimentSpec spec = controlled_spec();
  ASSERT_TRUE(spec.control.has_value());
  EXPECT_EQ(spec.control->churn.seed, spec.seed);
  EXPECT_DOUBLE_EQ(spec.control->churn.horizon, spec.horizon);
  EXPECT_GT(spec.control->horizon, spec.horizon);
}

TEST(ControlledSweep, SweepHeaderCarriesControlColumns) {
  const std::string header = harness::sweep_csv_header();
  EXPECT_NE(header.find(",control,policy,reconfigurations,"), std::string::npos);
  harness::SweepRow blank;
  const std::string row = harness::to_csv_row(blank);
  EXPECT_EQ(static_cast<std::size_t>(std::count(header.begin(), header.end(), ',')),
            static_cast<std::size_t>(std::count(row.begin(), row.end(), ',')));
}

TEST(ObserverFactory, PerCellObserversLiftTheParallelRestriction) {
  // Acceptance: a per-cell observer factory composes with jobs != 1 (the
  // shared RunOptions::observer still throws there) and each observer sees
  // exactly its own cell's lifecycle.
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen", "splitwise"};
  spec.models = {"Llama-13B"};
  spec.horizon = 4.0;
  spec.seed = 23;
  spec.run = engine::RunOptions(900.0);
  spec.add_rates(workload::Dataset::kShareGPT, {2.0, 4.0});
  spec.jobs = 4;

  struct CountingObserver : engine::RunObserver {
    explicit CountingObserver(std::atomic<std::size_t>* slot) : slot_(slot) {}
    void on_finish(workload::RequestId, Seconds) override { ++*slot_; }
    std::atomic<std::size_t>* slot_;
  };
  std::array<std::atomic<std::size_t>, 4> finishes{};
  spec.observer_factory = [&](const harness::ExperimentSpec::CellContext& ctx)
      -> std::unique_ptr<engine::RunObserver> {
    EXPECT_LT(ctx.point, 2u);
    EXPECT_EQ(ctx.model, "Llama-13B");
    EXPECT_NE(ctx.workload, nullptr);
    const std::size_t cell = ctx.point * 2 + (ctx.engine == "hexgen" ? 0 : 1);
    return std::make_unique<CountingObserver>(&finishes[cell]);
  };

  auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t pi = 0; pi < 2; ++pi) {
    for (std::size_t ei = 0; ei < 2; ++ei) {
      EXPECT_EQ(finishes[pi * 2 + ei].load(), rows[pi * 2 + ei].report.finished)
          << "cell (" << pi << ", " << ei << ")";
    }
  }

  // The shared-observer restriction is still enforced under jobs != 1.
  engine::RunObserver shared;
  spec.observer_factory = nullptr;
  spec.run.observer = &shared;
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degradation churn generators
// ---------------------------------------------------------------------------

TEST(DegradationChurn, NamesCoverEveryScriptAndErrorsListThemSorted) {
  const std::vector<std::string> want{"dip",         "flaky_link", "none",
                                     "spot",        "spot_notice", "straggler",
                                     "surge",       "throttle_wave"};
  EXPECT_EQ(control::churn_names(), want);
  EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
  try {
    control::churn_by_name("glacier");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("glacier"), std::string::npos);
    for (const auto& n : want) EXPECT_NE(msg.find(n), std::string::npos) << n;
  }
  try {
    control::make_policy("oracle");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("slo, static, threshold"), std::string::npos);
  }
}

TEST(DegradationChurn, StragglerSlowsAnchorsThenRecovers) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kStraggler, 40.0, 9);
  spec.straggler_count = 2;
  auto events = control::generate_churn(spec, cluster);
  ASSERT_EQ(events.size(), 4u);  // two onsets + one synchronized recovery each
  int onsets = 0, recoveries = 0;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.kind, control::ClusterEventKind::kDeviceSlow);
    EXPECT_TRUE(control::mutates_cluster(ev.kind));
    // The ANCHORS straggle: highest-power devices, i.e. A100s on paper.
    EXPECT_EQ(cluster.device(ev.device).type, hw::GpuType::kA100_80G);
    if (ev.factor < 1.0) {
      EXPECT_DOUBLE_EQ(ev.factor, spec.straggler_ratio);
      // Onset jitter stays in the first fifth of the slow window, so it
      // always precedes the recovery.
      EXPECT_GE(ev.time, spec.slow_frac * spec.horizon);
      EXPECT_LT(ev.time, spec.recover_frac * spec.horizon);
      ++onsets;
    } else {
      EXPECT_DOUBLE_EQ(ev.time, spec.recover_frac * spec.horizon);
      ++recoveries;
    }
  }
  EXPECT_EQ(onsets, 2);
  EXPECT_EQ(recoveries, 2);

  // Determinism: same seed => identical stream; different seed => different.
  auto again = control::generate_churn(spec, cluster);
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].time, events[i].time);
    EXPECT_EQ(again[i].device, events[i].device);
    EXPECT_EQ(again[i].factor, events[i].factor);
  }
  spec.seed = 10;
  auto other = control::generate_churn(spec, cluster);
  bool differs = other.size() != events.size();
  for (std::size_t i = 0; !differs && i < events.size(); ++i) {
    differs = other[i].time != events[i].time;
  }
  EXPECT_TRUE(differs);
}

TEST(DegradationChurn, ThrottleWaveIsASeedlessIdOrderWave) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kThrottleWave, 40.0, 3);
  auto events = control::generate_churn(spec, cluster);
  // Every device throttles once and recovers once (horizon 40 fits all).
  ASSERT_EQ(events.size(), 2u * static_cast<std::size_t>(cluster.num_devices()));
  for (const auto& d : cluster.devices()) {
    const Seconds onset = spec.wave_frac * spec.horizon + d.id * spec.wave_stagger;
    bool found_onset = false, found_recover = false;
    for (const auto& ev : events) {
      if (ev.device != d.id) continue;
      if (ev.factor < 1.0) {
        EXPECT_DOUBLE_EQ(ev.time, onset);
        EXPECT_DOUBLE_EQ(ev.factor, spec.throttle_ratio);
        found_onset = true;
      } else {
        EXPECT_DOUBLE_EQ(ev.time, onset + spec.throttle_dwell);
        found_recover = true;
      }
    }
    EXPECT_TRUE(found_onset && found_recover) << "device " << d.id;
  }
  // The wave is deterministic: the seed plays no part.
  spec.seed = 999;
  auto reseeded = control::generate_churn(spec, cluster);
  ASSERT_EQ(reseeded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(reseeded[i].time, events[i].time);
    EXPECT_EQ(reseeded[i].device, events[i].device);
  }
}

TEST(DegradationChurn, FlakyLinkAlternatesDegradeAndRecover) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kFlakyLink, 60.0, 17);
  auto events = control::generate_churn(spec, cluster);
  ASSERT_FALSE(events.empty());
  std::map<int, std::vector<double>> factors_by_device;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.kind, control::ClusterEventKind::kLinkDegrade);
    // The cheap capacity flakes: P100s churn first on the paper cluster.
    EXPECT_EQ(cluster.device(ev.device).type, hw::GpuType::kP100);
    factors_by_device[ev.device].push_back(ev.factor);
  }
  EXPECT_LE(factors_by_device.size(), static_cast<std::size_t>(spec.flaky_count));
  for (const auto& [dev, factors] : factors_by_device) {
    for (std::size_t i = 0; i < factors.size(); ++i) {
      // Starts healthy, so the first event degrades; then alternates.
      EXPECT_DOUBLE_EQ(factors[i], i % 2 == 0 ? spec.link_degrade_scale : 1.0)
          << "device " << dev << " event " << i;
    }
  }
  auto again = control::generate_churn(spec, cluster);
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(again[i].time, events[i].time);
}

TEST(DegradationChurn, SpotNoticeAnnouncesEveryLeaveWithinLead) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kSpotNotice, 60.0, 11);
  auto events = control::generate_churn(spec, cluster);

  // The underlying leave/join schedule is the kSpot one for the same seed:
  // warnings are pure additions, never perturbations.
  control::ChurnSpec plain = spec;
  plain.kind = control::Churn::kSpot;
  auto spot_events = control::generate_churn(plain, cluster);
  std::vector<control::ClusterEvent> sans_notice;
  for (const auto& ev : events) {
    if (ev.kind != control::ClusterEventKind::kPreemptNotice) sans_notice.push_back(ev);
  }
  ASSERT_EQ(sans_notice.size(), spot_events.size());
  for (std::size_t i = 0; i < spot_events.size(); ++i) {
    EXPECT_EQ(sans_notice[i].time, spot_events[i].time);
    EXPECT_EQ(sans_notice[i].kind, spot_events[i].kind);
    EXPECT_EQ(sans_notice[i].device, spot_events[i].device);
  }

  // Every leave is announced: a prior kPreemptNotice for the same device
  // whose time + factor equals the leave time, at most notice_lead ahead.
  std::size_t leaves = 0, notices = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == control::ClusterEventKind::kPreemptNotice) {
      ++notices;
      EXPECT_GT(events[i].factor, 0.0);
      EXPECT_LE(events[i].factor, spec.notice_lead + 1e-9);
      continue;
    }
    if (events[i].kind != control::ClusterEventKind::kGpuLeave) continue;
    ++leaves;
    bool announced = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (events[j].kind == control::ClusterEventKind::kPreemptNotice &&
          events[j].device == events[i].device &&
          std::abs(events[j].time + events[j].factor - events[i].time) < 1e-9) {
        announced = true;
      }
    }
    EXPECT_TRUE(announced) << "unannounced leave of device " << events[i].device << " at t="
                           << events[i].time;
  }
  ASSERT_GT(leaves, 0u);
  EXPECT_EQ(notices, leaves);
}

TEST(DegradationChurn, ValidationRejectsBadDegradationParameters) {
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  control::ChurnSpec spec = control::churn_preset(control::Churn::kStraggler, 10.0, 1);
  spec.straggler_ratio = 1.2;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
  spec = control::churn_preset(control::Churn::kStraggler, 10.0, 1);
  spec.recover_frac = 0.1;
  spec.slow_frac = 0.5;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
  spec = control::churn_preset(control::Churn::kThrottleWave, 10.0, 1);
  spec.throttle_dwell = 0;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
  spec = control::churn_preset(control::Churn::kFlakyLink, 10.0, 1);
  spec.link_degrade_scale = 0;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
  spec = control::churn_preset(control::Churn::kSpotNotice, 10.0, 1);
  spec.notice_lead = 0;
  EXPECT_THROW(control::generate_churn(spec, cluster), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Controller + engines under degradation
// ---------------------------------------------------------------------------

TEST(Degradation, ConstClusterControllerRejectsDegradationScripts) {
  const hw::Cluster cluster = harness::cluster_by_name("paper");
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kStraggler, 10.0, 5);
  // The const overload cannot replay overlay mutations: fail at build time,
  // not silently at nameplate speed mid-run.
  EXPECT_THROW(control::Controller(cs, cluster), std::invalid_argument);
  // The same spec on a mutable cluster is fine.
  hw::Cluster mut = harness::cluster_by_name("paper");
  EXPECT_NO_THROW(control::Controller(cs, mut));
  // Threshold is validated either way.
  control::ControlSpec bad;
  bad.straggler_threshold = 0.0;
  EXPECT_THROW(control::Controller(bad, mut), std::invalid_argument);
}

control::ControlSpec straggler_spec(Seconds horizon, double recover_frac) {
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kStraggler, horizon, 5);
  cs.churn.recover_frac = recover_frac;
  cs.policy = "static";
  cs.replan_objective = "latency";
  cs.horizon = horizon + 30.0;
  cs.min_devices = 4;
  return cs;
}

TEST(Degradation, HetisDemotesTheStragglerInsteadOfDroppingIt) {
  // Acceptance: under straggler churn the slowed device is REASSIGNED to
  // Attention work (where a slow device costs least) -- never dropped from
  // the deployment -- and every request still finishes.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 4.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  // recover_frac = 1.0 puts the recovery AT the horizon (skipped by the
  // generator contract), so the run ends with the straggler still slow and
  // the final plan inspectable.
  control::ControlSpec cs = straggler_spec(8.0, 1.0);
  const auto script = control::generate_churn(cs.churn, cluster);
  ASSERT_EQ(script.size(), 1u);
  const int straggler = script[0].device;

  auto eng = engine::make("hetis", cluster, model);
  control::Controller ctl(cs, cluster);
  engine::RunOptions run(900.0);
  run.on_start = ctl.starter();
  engine::RunReport rep = engine::run_trace(*eng, trace, run);

  // Demote, not drop: zero lost requests, zero restarts, and the engine
  // reconfigured in response to the threshold crossing.
  EXPECT_EQ(rep.arrived, trace.size());
  EXPECT_EQ(rep.finished, trace.size());
  const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get());
  ASSERT_NE(rc, nullptr);
  EXPECT_GE(rc->reconfig_stats().reconfigurations, 1);
  EXPECT_EQ(rc->reconfig_stats().restarted_requests, 0);
  EXPECT_EQ(ctl.stats().degradation_events, 1);
  EXPECT_EQ(ctl.signals().degraded_devices, 1);
  // The overlay stuck (no recovery event fired).
  EXPECT_DOUBLE_EQ(cluster.device_speed(straggler), cs.churn.straggler_ratio);

  // The final plan serves WITH the straggler -- as an Attention worker,
  // not a primary pipeline device.
  const auto* hetis = dynamic_cast<const core::HetisEngine*>(eng.get());
  ASSERT_NE(hetis, nullptr);
  bool is_primary = false, is_worker = false, assigned = false;
  for (const auto& inst : hetis->plan().instances) {
    for (int dev : inst.primary_devices()) is_primary |= dev == straggler;
    for (int dev : inst.attention_workers) is_worker |= dev == straggler;
  }
  assigned = is_primary || is_worker;
  EXPECT_TRUE(assigned) << "straggler " << straggler << " was dropped from the plan";
  EXPECT_FALSE(is_primary) << "straggler " << straggler << " still drives a primary stage";
  EXPECT_TRUE(is_worker);
}

TEST(Degradation, StragglerRecoveryReplansBackAndRestoresHealth) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 4.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  control::ControlSpec cs = straggler_spec(8.0, 0.75);  // recovers mid-run
  auto eng = engine::make("hetis", cluster, model);
  control::Controller ctl(cs, cluster);
  engine::RunOptions run(900.0);
  run.on_start = ctl.starter();
  engine::RunReport rep = engine::run_trace(*eng, trace, run);

  EXPECT_EQ(rep.finished, trace.size());
  // Slow + recover both crossed the threshold: two degradation events, two
  // replans (demote, then restore), and a healthy cluster at the end.
  EXPECT_EQ(ctl.stats().degradation_events, 2);
  EXPECT_EQ(ctl.signals().degraded_devices, 0);
  EXPECT_FALSE(cluster.degraded());
  const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get());
  EXPECT_GE(rc->reconfig_stats().reconfigurations, 2);
}

TEST(Degradation, PreemptNoticeLetsHetisEvacuateWithoutRestarts) {
  // Acceptance: with warnings, Hetis pre-migrates KV off the doomed device
  // during the lead window -- zero restarts where the same schedule
  // without notices forces none either (Hetis live-migrates) but the
  // notices must strictly reduce work done AT the leave.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 4.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, 8.0, 13);
  cs.churn.spot_count = 2;
  cs.policy = "static";
  cs.horizon = 38.0;
  cs.min_devices = 4;

  auto eng = engine::make("hetis", cluster, model);
  control::Controller ctl(cs, cluster);
  engine::RunOptions run(900.0);
  run.on_start = ctl.starter();
  engine::RunReport rep = engine::run_trace(*eng, trace, run);

  EXPECT_EQ(rep.finished, trace.size());
  EXPECT_GT(ctl.stats().preempt_notices, 0);
  const auto* rc = dynamic_cast<const engine::Reconfigurable*>(eng.get());
  ASSERT_NE(rc, nullptr);
  EXPECT_GT(rc->reconfig_stats().reconfigurations, 0);
  EXPECT_EQ(rc->reconfig_stats().restarted_requests, 0);
  EXPECT_EQ(rc->reconfig_stats().restart_dead_time, 0.0);
}

TEST(Degradation, NoticeForIdleDeviceAuditsNoSearch) {
  // Serving on the four strongest devices leaves the low-power spot
  // devices idle, so their preemption notices reach
  // HetisEngine::on_preempt_notice, which has nothing to evacuate and runs
  // no search.  Those "evacuate" records must carry no search block -- the
  // engine's last diagnostics belong to the initial re-deploy.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& model = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 2.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto trace = workload::build_trace(topts);

  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, 8.0, 13);
  cs.churn.spot_count = 2;
  cs.policy = "static";
  cs.horizon = 38.0;
  cs.initial_devices = 4;

  struct DecisionLog : engine::RunObserver {
    std::vector<telemetry::AuditRecord> records;
    void on_decision(const telemetry::AuditRecord& rec) override { records.push_back(rec); }
  } log;
  auto eng = engine::make("hetis", cluster, model);
  control::Controller ctl(cs, cluster);
  engine::RunOptions run(900.0);
  run.on_start = ctl.starter();
  run.observer = &log;
  engine::run_trace(*eng, trace, run);

  int idle_notices = 0;
  for (const telemetry::AuditRecord& rec : log.records) {
    const bool serving = std::find(rec.devices_before.begin(), rec.devices_before.end(),
                                   rec.device) != rec.devices_before.end();
    if (rec.action == "evacuate" && !serving) {
      ++idle_notices;
      EXPECT_FALSE(rec.has_diagnostics) << "notice for idle device " << rec.device;
      EXPECT_EQ(rec.devices_after, rec.devices_before);
    } else {
      EXPECT_TRUE(rec.has_diagnostics) << rec.action << " at t=" << rec.time;
    }
  }
  EXPECT_GT(idle_notices, 0);
  EXPECT_GT(log.records.size(), static_cast<std::size_t>(idle_notices));
}

TEST(Degradation, ControlledSweepWithDegradationIsByteIdenticalAcrossJobs) {
  // Each cell owns a private cluster copy, so degradation scripts compose
  // with parallel sweeps deterministically.
  auto csv_at = [](int jobs) {
    harness::ExperimentSpec spec;
    spec.name = "degraded";
    spec.engines = {"hetis", "splitwise"};
    spec.models = {"Llama-13B"};
    spec.horizon = 6.0;
    spec.seed = 29;
    spec.run = engine::RunOptions(900.0);
    spec.add_scenario(
        workload::scenario_preset(workload::Scenario::kPoisson, 3.0, spec.horizon, spec.seed));
    control::ControlSpec cs;
    cs.churn = control::churn_preset(control::Churn::kStraggler, spec.horizon, spec.seed);
    cs.policy = "static";
    spec.set_control(cs);
    spec.jobs = jobs;
    std::ostringstream csv;
    harness::write_csv(csv, harness::run_sweep(spec));
    return csv.str();
  };
  const std::string serial = csv_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(csv_at(4), serial);
  EXPECT_NE(serial.find("straggler,static,"), std::string::npos);
}

}  // namespace
}  // namespace hetis
