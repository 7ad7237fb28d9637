// RunOptions semantics: warmup-window exclusion, SLO attainment/goodput
// math (on a deterministic synthetic engine), drain-timeout surfacing, and
// RunObserver event ordering on real engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "control/controller.h"
#include "engine/engine.h"
#include "engine/instance.h"
#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "hetis/hetis_engine.h"
#include "model/llm.h"
#include "sim/simulation.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis {
namespace {

// A deterministic engine: per request, first token at arrival + ttft(r)
// and one decode token every tpot(r) seconds until output_len is reached.
class FakeEngine : public engine::Engine {
 public:
  std::function<Seconds(const workload::Request&)> ttft = [](const workload::Request&) {
    return 0.1;
  };
  std::function<Seconds(const workload::Request&)> tpot = [](const workload::Request&) {
    return 0.01;
  };
  std::function<bool(const workload::Request&)> completes = [](const workload::Request&) {
    return true;
  };

  std::string name() const override { return "Fake"; }
  Bytes usable_kv_capacity() const override { return GiB; }

  void submit(sim::Simulation& sim, const workload::Request& r) override {
    metrics_.on_arrival(r);
    if (!completes(r)) return;
    Seconds first = r.arrival + ttft(r);
    sim.schedule_at(first, [this, id = r.id, first] { metrics_.on_first_token(id, first); });
    Seconds step = tpot(r);
    Seconds fin = first + static_cast<double>(r.output_len - 1) * step;
    sim.schedule_at(fin, [this, id = r.id, fin] { metrics_.on_finish(id, fin); });
  }
};

std::vector<workload::Request> synthetic_trace(std::size_t n, Seconds spacing,
                                               std::int64_t output_len) {
  std::vector<workload::Request> trace;
  for (std::size_t i = 0; i < n; ++i) {
    workload::Request r;
    r.id = static_cast<workload::RequestId>(i);
    r.arrival = spacing * static_cast<double>(i);
    r.prompt_len = 64;
    r.output_len = output_len;
    trace.push_back(r);
  }
  return trace;
}

TEST(RunOptionsWarmup, ExcludesEarlyRequestsFromPercentiles) {
  FakeEngine eng;
  // Requests arriving before t=5 are 100x slower -- a classic cold start.
  eng.ttft = [](const workload::Request& r) { return r.arrival < 5.0 ? 10.0 : 0.1; };
  auto trace = synthetic_trace(10, 1.0, /*output_len=*/2);

  engine::RunOptions cold(600.0);
  auto rep_all = engine::run_trace(eng, trace, cold);
  EXPECT_EQ(rep_all.measured, 10u);
  EXPECT_GT(rep_all.ttft_p95, 5.0);  // dominated by the cold start

  FakeEngine eng2;
  eng2.ttft = eng.ttft;
  engine::RunOptions warm(600.0);
  warm.warmup = 5.0;
  auto rep = engine::run_trace(eng2, trace, warm);
  EXPECT_EQ(rep.arrived, 10u);
  EXPECT_EQ(rep.finished, 10u);   // warmup requests still served...
  EXPECT_EQ(rep.measured, 5u);    // ...but not measured
  EXPECT_LE(rep.ttft_p95, 0.1 + 1e-12);
  EXPECT_FALSE(rep.drain_timeout_hit);
}

TEST(RunOptionsSlo, AttainmentAndGoodputMath) {
  FakeEngine eng;
  // ids 0-3 meet TTFT (<= 0.5); ids 0-5 meet TPOT (<= 0.1); both: ids 0-3.
  eng.ttft = [](const workload::Request& r) { return r.id < 4 ? 0.05 : 1.0; };
  eng.tpot = [](const workload::Request& r) { return r.id < 6 ? 0.01 : 0.5; };
  auto trace = synthetic_trace(10, 1.0, /*output_len=*/2);

  engine::RunOptions opts(600.0);
  engine::SloSpec slo;
  slo.ttft = 0.5;
  slo.tpot = 0.1;
  opts.slo = slo;
  auto rep = engine::run_trace(eng, trace, opts);

  EXPECT_TRUE(rep.slo_set);
  EXPECT_DOUBLE_EQ(rep.slo_ttft, 0.5);
  EXPECT_DOUBLE_EQ(rep.slo_tpot, 0.1);
  EXPECT_DOUBLE_EQ(rep.ttft_attainment, 0.4);
  EXPECT_DOUBLE_EQ(rep.tpot_attainment, 0.6);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 0.4);
  // Makespan: first arrival t=0 to the last finish (id 9: 9 + 1.0 + 0.5).
  EXPECT_NEAR(rep.makespan, 10.5, 1e-9);
  EXPECT_NEAR(rep.goodput, 4.0 / 10.5, 1e-9);
  EXPECT_NEAR(rep.throughput, 10.0 / 10.5, 1e-9);
}

TEST(RunOptionsSlo, GoodputUsesTheMeasuredSpanUnderWarmup) {
  FakeEngine eng;
  eng.ttft = [](const workload::Request&) { return 0.05; };
  eng.tpot = [](const workload::Request&) { return 0.01; };
  auto trace = synthetic_trace(10, 1.0, /*output_len=*/2);

  engine::RunOptions opts(600.0);
  opts.warmup = 5.0;
  engine::SloSpec slo;
  slo.ttft = 0.5;
  slo.tpot = 0.1;
  opts.slo = slo;
  auto rep = engine::run_trace(eng, trace, opts);

  EXPECT_EQ(rep.measured, 5u);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 1.0);
  // Denominator is the measured span (first measured arrival t=5 to the
  // last measured finish t=9.06), not the warmup-inclusive makespan.
  EXPECT_NEAR(rep.goodput, 5.0 / 4.06, 1e-9);
  EXPECT_NEAR(rep.makespan, 9.06, 1e-9);
}

TEST(RunOptionsSlo, UnfinishedRequestsCountAsMisses) {
  FakeEngine eng;
  // Half the requests never finish (overload); the surviving half all meet
  // the targets.  Attainment must grade the whole arrived population.
  eng.completes = [](const workload::Request& r) { return r.id < 5; };
  auto trace = synthetic_trace(10, 1.0, /*output_len=*/2);

  engine::RunOptions opts(600.0);
  engine::SloSpec slo;
  slo.ttft = 0.5;
  slo.tpot = 0.1;
  opts.slo = slo;
  auto rep = engine::run_trace(eng, trace, opts);

  EXPECT_EQ(rep.finished, 5u);
  EXPECT_TRUE(rep.drain_timeout_hit);
  EXPECT_DOUBLE_EQ(rep.ttft_attainment, 0.5);
  EXPECT_DOUBLE_EQ(rep.tpot_attainment, 0.5);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 0.5);
}

TEST(RunOptionsSlo, UnsetLeavesSloBlockEmpty) {
  FakeEngine eng;
  auto rep = engine::run_trace(eng, synthetic_trace(3, 1.0, 2), engine::RunOptions(600.0));
  EXPECT_FALSE(rep.slo_set);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 0.0);
  EXPECT_DOUBLE_EQ(rep.goodput, 0.0);
}

TEST(RunOptionsDrain, TimeoutHitIsSurfacedNotSilent) {
  FakeEngine eng;
  eng.completes = [](const workload::Request&) { return false; };  // nothing ever completes
  auto rep = engine::run_trace(eng, synthetic_trace(4, 1.0, 2), engine::RunOptions(5.0));
  EXPECT_EQ(rep.finished, 0u);
  EXPECT_TRUE(rep.drain_timeout_hit);
  std::string warning = rep.warning();
  EXPECT_NE(warning.find("drain timeout"), std::string::npos) << warning;
  EXPECT_NE(warning.find("Fake"), std::string::npos) << warning;
  EXPECT_NE(warning.find("4/4"), std::string::npos) << warning;
}

TEST(RunOptionsDrain, CleanDrainHasNoWarning) {
  FakeEngine eng;
  auto rep = engine::run_trace(eng, synthetic_trace(4, 1.0, 2), engine::RunOptions(600.0));
  EXPECT_FALSE(rep.drain_timeout_hit);
  EXPECT_EQ(rep.warning(), "");
}

TEST(RunOptionsDrain, PeriodicEngineEventsAreNotMistakenForTruncation) {
  // An unbounded usage-sampling chain keeps the event queue non-empty
  // forever; a fully-drained run must still report a clean drain.
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  engine::EngineOptions opts = [] {
    engine::HetisConfig cfg;
    cfg.sample_interval = 1.0;
    cfg.sample_horizon = 0.0;  // unbounded
    return cfg;
  }();
  auto eng = engine::make("hetis", cluster, m, opts);
  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kShareGPT;
  topts.rate = 2.0;
  topts.horizon = 8.0;
  topts.seed = 31;
  auto rep = engine::run_trace(*eng, workload::build_trace(topts), engine::RunOptions(900.0));
  EXPECT_EQ(rep.finished, rep.arrived);
  EXPECT_FALSE(rep.drain_timeout_hit);
  EXPECT_EQ(rep.warning(), "");
}

// --- RunObserver ---

struct Events {
  Seconds arrival = -1;
  Seconds prefill_done = -1;
  Seconds finish = -1;
  std::vector<Seconds> token_times;
  std::vector<std::int64_t> token_counts;
  int preempts = 0;
};

class RecordingObserver : public engine::RunObserver {
 public:
  void on_arrival(const workload::Request& r) override { events_[r.id].arrival = r.arrival; }
  void on_prefill_done(workload::RequestId id, Seconds t) override {
    events_[id].prefill_done = t;
  }
  void on_token(workload::RequestId id, Seconds t, std::int64_t generated) override {
    events_[id].token_times.push_back(t);
    events_[id].token_counts.push_back(generated);
  }
  void on_finish(workload::RequestId id, Seconds t) override { events_[id].finish = t; }
  void on_preempt(workload::RequestId id, Seconds t) override {
    (void)t;
    ++events_[id].preempts;
  }

  const std::map<workload::RequestId, Events>& events() const { return events_; }

 private:
  std::map<workload::RequestId, Events> events_;
};

std::vector<workload::Request> observer_trace() {
  workload::TraceOptions opts;
  opts.dataset = workload::Dataset::kShareGPT;
  opts.rate = 2.0;
  opts.horizon = 8.0;
  opts.seed = 31;
  return workload::build_trace(opts);
}

// run_trace streams arrivals through Simulation::schedule_sorted.  Every
// engine must serve exactly what queuing all arrivals up front served --
// the same records, bit for bit -- including arrivals that tie in time.
TEST(StreamedArrivals, RunTraceMatchesAPreScheduledReplay) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  std::vector<workload::Request> trace = observer_trace();
  ASSERT_GE(trace.size(), 8u);
  // Pairs of requests arrive together, and the first four in one burst.
  for (std::size_t i = 1; i < trace.size(); i += 2) trace[i].arrival = trace[i - 1].arrival;
  for (std::size_t i = 1; i < 4; ++i) trace[i].arrival = trace[0].arrival;
  const Seconds drain = 900.0;
  auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  for (const char* name : {"hetis", "splitwise", "hexgen"}) {
    SCOPED_TRACE(name);
    auto streamed = engine::make(name, cluster, m);
    const engine::RunReport rep = engine::run_trace(*streamed, trace, engine::RunOptions(drain));
    ASSERT_EQ(rep.finished, trace.size());

    // run_trace's set-up, with every arrival queued before the run.
    auto queued = engine::make(name, cluster, m);
    sim::Simulation sim;
    queued->metrics().reserve(trace.size());
    queued->start(sim);
    for (const workload::Request& r : trace) {
      sim.schedule_at(r.arrival, [&queued, &sim, &r] { queued->submit(sim, r); });
    }
    sim.run_until(trace.back().arrival + drain);

    const auto& got = streamed->metrics().records();
    const auto& want = queued->metrics().records();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(bits(got[i].arrival), bits(want[i].arrival));
      EXPECT_EQ(bits(got[i].first_token), bits(want[i].first_token));
      EXPECT_EQ(bits(got[i].finish), bits(want[i].finish));
      EXPECT_EQ(got[i].prompt_len, want[i].prompt_len);
      EXPECT_EQ(got[i].output_len, want[i].output_len);
      EXPECT_EQ(got[i].tenant, want[i].tenant);
      EXPECT_EQ(got[i].preemptions, want[i].preemptions);
    }
  }
}

void check_event_ordering(const std::string& engine_name) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto eng = engine::make(engine_name, cluster, m);
  RecordingObserver obs;
  engine::RunOptions opts(900.0);
  opts.observer = &obs;
  auto trace = observer_trace();
  auto rep = engine::run_trace(*eng, trace, opts);

  ASSERT_EQ(rep.finished, trace.size()) << engine_name;
  ASSERT_EQ(obs.events().size(), trace.size()) << engine_name;
  for (const auto& [id, ev] : obs.events()) {
    SCOPED_TRACE(engine_name + " request " + std::to_string(id));
    // Every lifecycle stage was observed, in causal order.
    ASSERT_GE(ev.arrival, 0.0);
    ASSERT_GE(ev.prefill_done, 0.0);
    ASSERT_GE(ev.finish, 0.0);
    EXPECT_LE(ev.arrival, ev.prefill_done);
    EXPECT_LE(ev.prefill_done, ev.finish);
    for (std::size_t i = 0; i < ev.token_times.size(); ++i) {
      EXPECT_GE(ev.token_times[i], ev.prefill_done);
      EXPECT_LE(ev.token_times[i], ev.finish);
      if (i > 0) {
        EXPECT_GE(ev.token_times[i], ev.token_times[i - 1]);
        // Monotone progress -- except across a preemption, which recomputes.
        if (ev.preempts == 0) {
          EXPECT_GT(ev.token_counts[i], ev.token_counts[i - 1]);
        }
      }
    }
    if (ev.preempts == 0) {
      // The prefill-produced first token is signaled by prefill_done;
      // on_token covers the remaining output_len - 1 decode tokens.
      auto it = std::find_if(trace.begin(), trace.end(),
                             [id = id](const workload::Request& r) { return r.id == id; });
      ASSERT_NE(it, trace.end());
      EXPECT_EQ(static_cast<std::int64_t>(ev.token_times.size()), it->output_len - 1);
    }
  }
}

TEST(RunObserver, EventOrderingHetis) { check_event_ordering("hetis"); }
TEST(RunObserver, EventOrderingHexgen) { check_event_ordering("hexgen"); }
TEST(RunObserver, EventOrderingSplitwise) { check_event_ordering("splitwise"); }

// Folds every callback -- its kind, ids and the bit patterns of its times
// and counters -- into one FNV-1a hash, so a test can pin a whole event
// stream, ordering included, as a single constant.
class HashingObserver : public engine::RunObserver {
 public:
  void on_arrival(const workload::Request& r) override { mix('a', r.id, r.arrival); }
  void on_prefill_start(workload::RequestId id, Seconds t) override { mix('s', id, t); }
  void on_prefill_done(workload::RequestId id, Seconds t) override { mix('p', id, t); }
  void on_reprefill_done(workload::RequestId id, Seconds t) override { mix('r', id, t); }
  void on_token(workload::RequestId id, Seconds t, std::int64_t generated) override {
    mix('t', id, t);
    word(static_cast<std::uint64_t>(generated));
  }
  void on_finish(workload::RequestId id, Seconds t) override { mix('f', id, t); }
  void on_preempt(workload::RequestId id, Seconds t) override {
    mix('x', id, t);
    ++preemptions_;
  }
  void on_migrate(workload::RequestId id, Seconds start, Seconds ready, int src,
                  int dst) override {
    mix('m', id, start);
    word(bits(ready));
    word(static_cast<std::uint64_t>(src));
    word(static_cast<std::uint64_t>(dst));
  }
  void on_usage(const engine::UsageSample& u) override {
    mix('u', u.device, u.time);
    word(bits(u.cache_used_fraction));
    word(bits(u.heads));
  }

  std::uint64_t hash() const { return hash_; }
  std::uint64_t events() const { return events_; }
  int preemptions() const { return preemptions_; }

 private:
  static std::uint64_t bits(double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((w >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void mix(char kind, std::int64_t id, Seconds t) {
    ++events_;
    word(static_cast<std::uint64_t>(kind));
    word(static_cast<std::uint64_t>(id));
    word(bits(t));
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t events_ = 0;
  int preemptions_ = 0;
};

// A baseline overloaded past its KV capacity: Llama-70B on the paper
// cluster at 6 req/s preempts (LIFO, recompute) over a thousand times.
// The hash pins every callback of the run -- preemption victims and their
// order, each token's time and count, the survivors' on_token order -- so
// any drift in how PipelineInstance picks victims or prices iterations
// shows.  The constants were recorded from the per-victim linear scan and
// per-sequence pricing that LifoIndex and the running Σctx replaced.
void check_event_stream_under_pressure(const std::string& engine_name,
                                       const engine::EngineOptions& options,
                                       std::uint64_t want_hash, std::uint64_t want_events) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-70B");
  workload::TraceOptions topts;
  topts.rate = 6.0;
  topts.horizon = 210.0;
  topts.seed = 20251116;
  const auto trace = workload::build_trace(topts);
  auto eng = engine::make(engine_name, cluster, m, options);
  HashingObserver obs;
  engine::RunOptions opts(900.0);
  opts.observer = &obs;
  const engine::RunReport rep = engine::run_trace(*eng, trace, opts);
  ASSERT_EQ(rep.finished, trace.size());
  EXPECT_GE(obs.preemptions(), 1000);
  EXPECT_EQ(obs.preemptions(), rep.preemptions);
  EXPECT_EQ(obs.events(), want_events);
  EXPECT_EQ(obs.hash(), want_hash) << std::hex << "0x" << obs.hash();
}

TEST(RunObserver, HexgenEventStreamUnderPreemptionPressure) {
  // HexGen's own plan never runs out of KV on this cluster, so pin it to
  // the A100 pipeline with 40 GiB of every device spoken for.
  parallel::StageConfig s0;
  s0.devices = {0, 1};
  s0.layers = 40;
  s0.extra_reserved = 40 * GiB;
  parallel::StageConfig s1 = s0;
  s1.devices = {2, 3};
  parallel::InstanceConfig inst;
  inst.stages = {s0, s1};
  engine::HexgenConfig cfg;
  cfg.plan = parallel::ParallelPlan{{inst}};
  check_event_stream_under_pressure("hexgen", cfg, 0xe6b52f92ad8c67e6ull, 300811u);
}

TEST(RunObserver, SplitwiseEventStreamUnderPreemptionPressure) {
  check_event_stream_under_pressure("splitwise", engine::EngineOptions{}, 0x9de24194ec65ad71ull,
                                    295833u);
}

// The Hetis twin of the two pins above: LongBench prompts on Llama-70B and
// the paper cluster under spot preemptions with notice, replanned by a
// Controller, with a low re-dispatch trigger.  One run preempts, rescues
// heads into spare memory (§5.3.2), rebalances (§5.3.1) and live-migrates
// requests across re-deploys, so the hash pins every path of
// HetisInstance's batching, dispatch and migration.  The constants were
// recorded before both instance kinds moved onto engine::BatchingLoop.
TEST(RunObserver, HetisEventStreamUnderChurn) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-70B");
  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kLongBench;
  topts.rate = 8.0;
  topts.horizon = 90.0;
  topts.seed = 20251116;
  const auto trace = workload::build_trace(topts);
  engine::HetisConfig hcfg;
  hcfg.theta = 0.1;
  auto eng = engine::make("hetis", cluster, m, hcfg);
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, topts.horizon, 11);
  cs.horizon = topts.horizon;
  cs.min_devices = 4;
  control::Controller ctl(cs, cluster);
  HashingObserver obs;
  engine::RunOptions opts(900.0);
  opts.on_start = ctl.starter();
  opts.observer = &obs;
  const engine::RunReport rep = engine::run_trace(*eng, trace, opts);
  const auto& hetis = dynamic_cast<const core::HetisEngine&>(*eng);
  ASSERT_EQ(rep.finished, trace.size());
  EXPECT_GE(obs.preemptions(), 1);
  EXPECT_EQ(obs.preemptions(), rep.preemptions);
  EXPECT_GE(hetis.rescue_redispatches(), 1);
  EXPECT_GE(hetis.balance_redispatches(), 1);
  EXPECT_GE(hetis.reconfig_stats().migrated_requests, 1);
  EXPECT_EQ(obs.events(), 111456u);
  EXPECT_EQ(obs.hash(), 0xc3b3dc7326a35855ull) << std::hex << "0x" << obs.hash();
}

// The baselines' twins of the Hetis pin above: ShareGPT on Llama-13B at a
// rate both static layouts are overloaded by, under spot preemptions with
// notice.  Every churn event checkpoint-restarts the deployment, so the
// hash pins the restart path end to end: which drained requests report a
// preemption and in what order, and the order the reload flush resubmits
// the backlog in (HexGen routes each resubmission by the load it meets).
// The constants were recorded before the restart backlog moved from a
// std::map to one id-sorted vector.
void check_event_stream_under_churn(const std::string& engine_name, std::uint64_t want_hash,
                                    std::uint64_t want_events, int want_preemptions) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  workload::TraceOptions topts;
  topts.rate = 6.0;
  topts.horizon = 120.0;
  topts.seed = 20251116;
  const auto trace = workload::build_trace(topts);
  auto eng = engine::make(engine_name, cluster, m);
  control::ControlSpec cs;
  cs.churn = control::churn_preset(control::Churn::kSpotNotice, topts.horizon, 11);
  cs.horizon = topts.horizon;
  cs.min_devices = 4;
  control::Controller ctl(cs, cluster);
  HashingObserver obs;
  engine::RunOptions opts(900.0);
  opts.on_start = ctl.starter();
  opts.observer = &obs;
  const engine::RunReport rep = engine::run_trace(*eng, trace, opts);
  const auto& rc = dynamic_cast<const engine::Reconfigurable&>(*eng);
  ASSERT_EQ(rep.finished, trace.size());
  EXPECT_GE(rc.reconfig_stats().reconfigurations, 2);
  EXPECT_GE(rc.reconfig_stats().restarted_requests, 1);
  EXPECT_EQ(obs.preemptions(), rep.preemptions);
  EXPECT_EQ(obs.preemptions(), want_preemptions);
  EXPECT_EQ(obs.events(), want_events);
  EXPECT_EQ(obs.hash(), want_hash) << std::hex << "0x" << obs.hash();
}

TEST(RunObserver, HexgenEventStreamUnderChurn) {
  check_event_stream_under_churn("hexgen", 0xc74dc932191b99bbull, 220576u, 936);
}

TEST(RunObserver, SplitwiseEventStreamUnderChurn) {
  check_event_stream_under_churn("splitwise", 0xc12adf379886b811ull, 236654u, 1312);
}

TEST(RunObserver, ObserverIsDetachedAfterTheRun) {
  FakeEngine eng;
  RecordingObserver obs;
  engine::RunOptions opts(600.0);
  opts.observer = &obs;
  engine::run_trace(eng, synthetic_trace(2, 1.0, 2), opts);
  std::size_t seen = obs.events().size();
  EXPECT_EQ(seen, 2u);
  // Post-run events on the SAME engine's metrics must no longer reach the
  // observer -- run_trace detaches it on exit.
  workload::Request late;
  late.id = 99;
  late.arrival = 100.0;
  late.prompt_len = 8;
  late.output_len = 2;
  EXPECT_TRUE(eng.metrics().sinks().empty());
  eng.metrics().on_arrival(late);
  EXPECT_EQ(obs.events().size(), seen);
  EXPECT_EQ(obs.events().count(99), 0u);
}

TEST(RunObserver, ObserverIsDetachedWhenTheRunThrows) {
  FakeEngine eng;
  RecordingObserver obs;
  engine::RunOptions opts(600.0);
  opts.observer = &obs;
  // Duplicate ids make MetricsCollector throw mid-run; the observer must
  // still be detached so the engine holds no dangling pointer.
  auto trace = synthetic_trace(2, 1.0, 2);
  trace[1].id = trace[0].id;
  EXPECT_THROW(engine::run_trace(eng, trace, opts), std::logic_error);
  EXPECT_TRUE(eng.metrics().sinks().empty());
  workload::Request late;
  late.id = 98;
  late.arrival = 100.0;
  late.prompt_len = 8;
  late.output_len = 2;
  eng.metrics().on_arrival(late);
  EXPECT_EQ(obs.events().count(98), 0u);
}

TEST(RequestIds, EveryEngineRejectsAnIdOutsideTheRange) {
  // Telemetry and the Controller index per-request tables by id, so an id
  // of 2^24 or more is refused where it enters instead of dropped there.
  const hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto trace = synthetic_trace(2, 1.0, 2);
  trace[1].id = workload::kDenseIdLimit;
  for (const std::string& name : engine::engine_names()) {
    auto eng = engine::make(name, cluster, m);
    EXPECT_THROW(engine::run_trace(*eng, trace), std::invalid_argument) << name;
  }
}

// --- Tenant-priority admission ---

TEST(TenantPriority, PriorityEnqueueOrdersByClassThenId) {
  auto make = [](workload::RequestId id, int tenant) {
    engine::LiveRequest lr;
    lr.req.id = id;
    lr.req.tenant = tenant;
    return lr;
  };
  const std::vector<int> prios{2, 0, 1};
  std::deque<engine::LiveRequest> q;
  engine::priority_enqueue(q, make(0, 1), prios, false);  // prio 0
  engine::priority_enqueue(q, make(1, 0), prios, false);  // prio 2
  engine::priority_enqueue(q, make(2, 2), prios, false);  // prio 1
  engine::priority_enqueue(q, make(3, 0), prios, false);  // prio 2, later id
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[0].req.id, 1);  // highest priority, lowest id first
  EXPECT_EQ(q[1].req.id, 3);
  EXPECT_EQ(q[2].req.id, 2);
  EXPECT_EQ(q[3].req.id, 0);
  // Unknown tenants fall back to priority 0.
  engine::priority_enqueue(q, make(4, 17), prios, false);
  EXPECT_EQ(q.back().req.id, 4);

  // Empty priorities keep the historical FCFS semantics exactly.
  std::deque<engine::LiveRequest> fcfs;
  engine::priority_enqueue(fcfs, make(0, 0), {}, false);
  engine::priority_enqueue(fcfs, make(1, 0), {}, false);
  engine::priority_enqueue(fcfs, make(2, 0), {}, /*requeue_front=*/true);
  EXPECT_EQ(fcfs[0].req.id, 2);
  EXPECT_EQ(fcfs[1].req.id, 0);
  EXPECT_EQ(fcfs[2].req.id, 1);
}

/// A backlog of low-priority prompts followed by one high-priority arrival:
/// with priorities installed the high-priority request must jump the queue.
std::vector<workload::Request> backlog_trace() {
  std::vector<workload::Request> trace;
  for (int i = 0; i < 12; ++i) {
    workload::Request r;
    r.id = i;
    r.arrival = 0.005 * i;
    r.prompt_len = 512;
    r.output_len = 8;
    r.tenant = 1;  // best-effort class
    trace.push_back(r);
  }
  workload::Request vip;
  vip.id = 12;
  vip.arrival = 0.1;  // arrives behind the whole backlog
  vip.prompt_len = 512;
  vip.output_len = 8;
  vip.tenant = 0;  // interactive class
  trace.push_back(vip);
  return trace;
}

TEST(TenantPriority, HighPriorityTenantJumpsTheAdmissionQueue) {
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");
  auto trace = backlog_trace();

  auto ttft_of_vip = [&](bool prioritized, Seconds* fcfs_sum = nullptr) {
    engine::HexgenConfig cfg;
    cfg.max_prefill_tokens = 512;  // one prompt per prefill iteration
    engine::EngineOptions opts(cfg);
    if (prioritized) opts.tenant_priorities = {2, 0};
    auto eng = engine::make("hexgen", cluster, m, opts);
    engine::RunReport rep = engine::run_trace(*eng, trace, engine::RunOptions(900.0));
    EXPECT_EQ(rep.finished, trace.size());
    if (fcfs_sum) {
      for (const auto& rec : eng->metrics().records()) *fcfs_sum += rec.ttft();
    }
    return eng->metrics().record(12).ttft();
  };

  const Seconds fcfs = ttft_of_vip(false);
  const Seconds prioritized = ttft_of_vip(true);
  EXPECT_LT(prioritized, fcfs);
}

TEST(TenantPriority, HarnessWiresMultiTenantPrioritiesAutomatically) {
  // A multi_tenant sweep row must equal a direct run WITH the scenario's
  // tenant priorities installed -- and differ from a FCFS run, proving the
  // harness actually forwarded them.
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.models = {"Llama-13B"};
  spec.horizon = 6.0;
  spec.seed = 41;
  spec.run = engine::RunOptions(900.0);
  spec.add_scenario(workload::scenario_preset(workload::Scenario::kMultiTenant, 8.0,
                                              spec.horizon, spec.seed));
  auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);

  auto trace = workload::generate_scenario(*spec.workloads[0].scenario);
  hw::Cluster cluster = harness::cluster_by_name("paper");
  const model::ModelSpec& m = model::model_by_name("Llama-13B");

  engine::EngineOptions with_prios;
  for (const auto& t : workload::effective_tenants(*spec.workloads[0].scenario)) {
    with_prios.tenant_priorities.push_back(t.priority);
  }
  auto eng = engine::make("hexgen", cluster, m, with_prios);
  auto direct = engine::run_trace(*eng, trace, engine::RunOptions(900.0));
  EXPECT_EQ(rows[0].report.to_csv_row(), direct.to_csv_row());

  auto fcfs_eng = engine::make("hexgen", cluster, m);
  auto fcfs = engine::run_trace(*fcfs_eng, trace, engine::RunOptions(900.0));
  EXPECT_NE(rows[0].report.to_csv_row(), fcfs.to_csv_row());
}

}  // namespace
}  // namespace hetis
