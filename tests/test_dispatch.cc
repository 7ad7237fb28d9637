// Unit + property tests: the head-wise Dispatcher (§5).
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dispatch/dispatcher.h"

namespace hetis::dispatch {
namespace {

// A two-stage primary (fast A100-like + slower 3090-like) with two slow
// attention workers, MHA model with 32 heads.
DispatcherConfig basic_config(int heads = 32, int group = 1) {
  DispatcherConfig cfg;
  cfg.heads = heads;
  cfg.group_size = group;
  cfg.bytes_per_head_token_layer = 512.0 / group;  // 2*d*dtype/r with d=128
  cfg.total_layers = 40;
  cfg.theta = 0.5;

  StageDesc s0;
  s0.devices = {0, 1};
  s0.layers = 28;
  s0.attn = costmodel::AttnParams{2e-8, 1.0 / 1.1e12, 3e-6};
  s0.capacity = 40ll * GiB;
  StageDesc s1;
  s1.devices = {2, 3};
  s1.layers = 12;
  s1.attn = costmodel::AttnParams{4.5e-8, 1.0 / 0.6e12, 4e-6};
  s1.capacity = 20ll * GiB;
  cfg.stages = {s0, s1};

  for (int w = 0; w < 2; ++w) {
    WorkerDesc wd;
    wd.device = 8 + w;
    wd.attn = costmodel::AttnParams{1.1e-7, 1.0 / 0.34e12, 8e-6};
    wd.transfer = costmodel::TransferParams{1.0 / 12.5e9, 4e-5};
    wd.capacity = 10ll * GiB;
    cfg.workers.push_back(wd);
  }
  return cfg;
}

/// Dispatches `reqs` one at a time, as HetisInstance admits them; nullopt
/// at the first request the instance cannot host.
std::optional<std::vector<PlacementCounts>> dispatch_each(
    Dispatcher& d, const std::vector<std::pair<workload::RequestId, std::int64_t>>& reqs,
    Seconds now) {
  std::vector<PlacementCounts> out;
  for (const auto& [id, ctx] : reqs) {
    std::optional<PlacementCounts> pc = d.dispatch(id, ctx, now);
    if (!pc) return std::nullopt;
    out.push_back(std::move(*pc));
  }
  return out;
}

TEST(Dispatcher, ConstructionValidation) {
  DispatcherConfig cfg = basic_config();
  cfg.stages.clear();
  EXPECT_THROW(Dispatcher{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.heads = 33;
  cfg.group_size = 8;
  EXPECT_THROW(Dispatcher{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.bytes_per_head_token_layer = 0;
  EXPECT_THROW(Dispatcher{cfg}, std::invalid_argument);
}

TEST(Dispatcher, DispatchMeetsHeadIntegrity) {
  Dispatcher d(basic_config());
  auto placed = dispatch_each(d, {{1, 500}, {2, 1200}}, 0.0);
  ASSERT_TRUE(placed.has_value());
  for (const auto& pc : *placed) {
    EXPECT_EQ(pc.total(), 32);
    EXPECT_GE(pc.local, 0);
    for (int h : pc.worker_heads) EXPECT_GE(h, 0);
  }
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.contains(1));
  EXPECT_EQ(d.context(2), 1200);
}

TEST(Dispatcher, LightLoadStaysLocal) {
  // A single short request must not be offloaded: the transfer constants
  // exceed any conceivable balance gain (the Fig. 14 "3090s start later"
  // behaviour).
  Dispatcher d(basic_config());
  auto placed = d.dispatch(1, 300, 0.0);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->local, 32);
}

TEST(Dispatcher, HeavyLoadSpillsToWorkers) {
  Dispatcher d(basic_config());
  // Load that exceeds the primary's cache budget but fits the cluster:
  // memory alone forces offloading onto the workers.
  std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
  for (int i = 0; i < 100; ++i) reqs.emplace_back(i, 1200);
  auto placed = dispatch_each(d, reqs, 0.0);
  ASSERT_TRUE(placed.has_value());
  int offloaded = 0;
  for (const auto& pc : *placed) {
    for (int h : pc.worker_heads) offloaded += h;
  }
  EXPECT_GT(offloaded, 0);
}

TEST(Dispatcher, GqaGroupGranularity) {
  DispatcherConfig cfg = basic_config(64, 8);  // Llama-70B-like
  Dispatcher d(cfg);
  std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
  for (int i = 0; i < 100; ++i) reqs.emplace_back(i, 4000);
  auto placed = dispatch_each(d, reqs, 0.0);
  ASSERT_TRUE(placed.has_value());
  for (const auto& pc : *placed) {
    EXPECT_EQ(pc.local % 8, 0);
    for (int h : pc.worker_heads) EXPECT_EQ(h % 8, 0);
    EXPECT_EQ(pc.total(), 64);
  }
}

TEST(Dispatcher, InfeasibleWhenOutOfMemory) {
  DispatcherConfig cfg = basic_config();
  for (auto& s : cfg.stages) s.capacity = 1 * MiB;
  for (auto& w : cfg.workers) w.capacity = 1 * MiB;
  Dispatcher d(cfg);
  auto placed = d.dispatch(1, 100000, 0.0);
  EXPECT_FALSE(placed.has_value());
  EXPECT_EQ(d.size(), 0u);  // nothing registered on failure
}

TEST(Dispatcher, AppendAndRemoveLifecycle) {
  Dispatcher d(basic_config());
  ASSERT_TRUE(d.dispatch(1, 100, 0.0).has_value());
  d.append_tokens({1});
  EXPECT_EQ(d.context(1), 101);
  d.remove(1);
  EXPECT_FALSE(d.contains(1));
  EXPECT_THROW(d.append_tokens({1}), std::out_of_range);
  EXPECT_THROW(d.placement(1), std::out_of_range);
}

TEST(Dispatcher, AttentionTimeGrowsWithLoad) {
  Dispatcher d(basic_config());
  ASSERT_TRUE(d.dispatch(1, 500, 0.0).has_value());
  Seconds t1 = d.attention_iteration_time();
  ASSERT_TRUE(dispatch_each(d, {{2, 500}, {3, 500}, {4, 500}}, 0.0).has_value());
  Seconds t4 = d.attention_iteration_time();
  EXPECT_GT(t4, t1);
}

TEST(Dispatcher, EmptyStateIsFree) {
  Dispatcher d(basic_config());
  EXPECT_DOUBLE_EQ(d.attention_iteration_time(), 0.0);
  EXPECT_DOUBLE_EQ(d.worst_per_layer(), 0.0);
  EXPECT_DOUBLE_EQ(d.ideal_per_layer(), 0.0);
  EXPECT_FALSE(d.should_rebalance());
  EXPECT_FALSE(d.first_overflowed().has_value());
  EXPECT_TRUE(d.has_global_spare());
}

TEST(Dispatcher, IdealNeverExceedsWorst) {
  Dispatcher d(basic_config());
  std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
  for (int i = 0; i < 50; ++i) reqs.emplace_back(i, 200 + 57 * i);
  ASSERT_TRUE(dispatch_each(d, reqs, 0.0).has_value());
  // Ideal (everything re-dispatchable, global memory) is computed by
  // waterfilling; must not exceed the current bottleneck meaningfully.
  EXPECT_LE(d.ideal_per_layer(), d.worst_per_layer() * 1.05 + 1e-9);
}

TEST(Dispatcher, RebalanceTriggerAfterSkew) {
  Dispatcher d(basic_config());
  // Dispatch a batch, then grow one request's context enormously to skew
  // the load (the §5.3.1 long-context scenario).
  ASSERT_TRUE(dispatch_each(d, {{1, 100}, {2, 100}}, 0.0).has_value());
  for (int i = 0; i < 30000; ++i) d.append_tokens({1});
  if (d.should_rebalance()) {
    Rebalance rb = d.plan_rebalance();
    if (rb.valid) {
      Seconds before = d.worst_per_layer();
      d.apply(rb);
      EXPECT_LE(d.worst_per_layer(), before + 1e-12);
      EXPECT_GT(rb.moved_heads, 0);
      EXPECT_GT(rb.moved_bytes, 0);
    }
  }
  // At minimum the machinery must run without error.
  SUCCEED();
}

TEST(Dispatcher, RescuePlanMovesVictimOffDevice) {
  DispatcherConfig cfg = basic_config();
  // Tight stage memory so appends overflow the primary.
  cfg.stages[0].capacity = 600ll * MiB;
  cfg.stages[1].capacity = 250ll * MiB;
  Dispatcher d(cfg);
  ASSERT_TRUE(dispatch_each(d, {{1, 2000}, {2, 2000}}, 0.0).has_value());
  // Grow until something overflows.
  int guard = 0;
  while (!d.first_overflowed() && guard++ < 200000) {
    d.append_tokens({1});
    d.append_tokens({2});
  }
  ASSERT_TRUE(d.first_overflowed().has_value());
  workload::RequestId victim = d.evict_candidate_on(*d.first_overflowed());
  ASSERT_GE(victim, 0);
  Rebalance rb = d.plan_rescue(victim);
  if (rb.valid) {
    d.apply(rb);
    EXPECT_EQ(d.placement(victim).total(), cfg.heads);
  }
}

TEST(Dispatcher, HaulerSourceIsTheDeviceThatLosesTheMostHeads) {
  // One stage with room for exactly half of a request's heads, a cheap
  // worker w0 and a worker w1 whose per-head cost is 100x higher.  Forcing
  // the request's other half onto w1 and re-planning moves those heads to
  // w0, so the Hauler must carry them from w1, not from the primary.
  DispatcherConfig cfg = basic_config();
  cfg.stages.resize(1);
  cfg.stages[0].layers = cfg.total_layers;
  const std::int64_t ctx = 1000;
  cfg.stages[0].capacity =
      static_cast<Bytes>(16 * ctx * cfg.bytes_per_head_token_layer * cfg.total_layers);
  cfg.workers[1].attn = costmodel::AttnParams{1.1e-5, 1.0 / 0.34e10, 8e-6};
  Dispatcher d(cfg);
  ASSERT_TRUE(d.dispatch(1, ctx, 0.0).has_value());
  Rebalance forced;
  forced.victim = 1;
  forced.to.local = 16;
  forced.to.worker_heads = {0, 16};
  forced.valid = true;
  d.apply(forced);

  Rebalance rb = d.plan_rescue(1);
  ASSERT_TRUE(rb.valid);
  EXPECT_EQ(rb.to.local, 16);
  EXPECT_EQ(rb.to.worker_heads, (std::vector<int>{16, 0}));
  EXPECT_EQ(rb.src_device, cfg.workers[1].device);
  EXPECT_EQ(rb.dst_device, cfg.workers[0].device);
}

TEST(Dispatcher, HaulerDestinationIsTheDeviceThatGainsTheMostHeads) {
  // The same one-stage setup: the optimum is 16 heads local, 16 on the
  // cheap worker w0 and none on w1.  Forcing 8 local, 12 on w0 and 12 on w1
  // and re-planning grows `local` by 8 and w0 by only 4, so the Hauler must
  // carry the heads to the primary, not to w0.
  DispatcherConfig cfg = basic_config();
  cfg.stages.resize(1);
  cfg.stages[0].layers = cfg.total_layers;
  const std::int64_t ctx = 1000;
  cfg.stages[0].capacity =
      static_cast<Bytes>(16 * ctx * cfg.bytes_per_head_token_layer * cfg.total_layers);
  cfg.workers[1].attn = costmodel::AttnParams{1.1e-5, 1.0 / 0.34e10, 8e-6};
  Dispatcher d(cfg);
  ASSERT_TRUE(d.dispatch(1, ctx, 0.0).has_value());
  Rebalance forced;
  forced.victim = 1;
  forced.to.local = 8;
  forced.to.worker_heads = {12, 12};
  forced.valid = true;
  d.apply(forced);

  Rebalance rb = d.plan_rescue(1);
  ASSERT_TRUE(rb.valid);
  EXPECT_EQ(rb.to.local, 16);
  EXPECT_EQ(rb.to.worker_heads, (std::vector<int>{16, 0}));
  EXPECT_EQ(rb.src_device, cfg.workers[1].device);
  EXPECT_EQ(rb.dst_device, cfg.stages[0].devices.front());
}

TEST(Dispatcher, ApplyRejectsImpossiblePlacements) {
  // A Llama-70B-like instance (64 heads in groups of 8) with four workers,
  // and rebalances shaped like the dense simplex's -704 / +768 answer and
  // its relatives.  None may reach the accounting.
  DispatcherConfig cfg = basic_config(64, 8);
  cfg.workers.resize(4, cfg.workers.front());
  Dispatcher d(cfg);
  ASSERT_TRUE(d.dispatch(1, 600, 0.0).has_value());
  const PlacementCounts before = d.placement(1);
  const Seconds worst = d.worst_per_layer();
  const auto rebalance = [](int local, std::vector<int> workers) {
    Rebalance rb;
    rb.victim = 1;
    rb.to.local = local;
    rb.to.worker_heads = std::move(workers);
    rb.valid = true;
    return rb;
  };
  for (const Rebalance& rb : {
           rebalance(768, {-704, 0, 0, 0}),  // negative count, total 64
           rebalance(-8, {72, 0, 0, 0}),     // negative local
           rebalance(128, {0, 0, 0, 0}),     // above H
           rebalance(60, {4, 0, 0, 0}),      // not a multiple of r
           rebalance(64, {0, 0, 0}),         // one worker missing
           rebalance(32, {16, 0, 0, 0}),     // total below H
       }) {
    EXPECT_THROW(d.apply(rb), std::logic_error);
  }
  EXPECT_EQ(d.placement(1).local, before.local);
  EXPECT_EQ(d.placement(1).worker_heads, before.worker_heads);
  EXPECT_EQ(d.worst_per_layer(), worst);
  d.apply(rebalance(48, {16, 0, 0, 0}));  // a possible placement still lands
  EXPECT_EQ(d.placement(1).local, 48);
}

TEST(Dispatcher, EvictCandidateIsLifo) {
  Dispatcher d(basic_config());
  ASSERT_TRUE(d.dispatch(1, 500, 10.0).has_value());
  ASSERT_TRUE(d.dispatch(2, 500, 20.0).has_value());
  ASSERT_TRUE(d.dispatch(3, 500, 15.0).has_value());
  // All requests have local heads; the primary's LIFO victim is the
  // latest arrival (id 2, t=20).
  EXPECT_EQ(d.evict_candidate_on(0), 2);
}

TEST(Dispatcher, EvictCandidateRestrictedToDevice) {
  // §5.3.2: only requests actually holding cache on the exhausted device
  // are candidates.
  Dispatcher d(basic_config());
  ASSERT_TRUE(d.dispatch(1, 500, 10.0).has_value());
  // Worker 0 has no heads -> no candidate there.
  EXPECT_EQ(d.evict_candidate_on(1), -1);
}

TEST(Dispatcher, PhysicalIntrospection) {
  Dispatcher d(basic_config());
  ASSERT_TRUE(d.dispatch(1, 1000, 0.0).has_value());
  // Stage 0 devices share the local heads evenly.
  EXPECT_DOUBLE_EQ(d.physical_heads(0), d.physical_heads(1));
  EXPECT_GT(d.physical_heads(0), 0);
  EXPECT_GE(d.physical_cache_fraction(0), 0);
  EXPECT_LE(d.physical_cache_fraction(0), 1.0);
  // Unknown device reads as empty.
  EXPECT_DOUBLE_EQ(d.physical_heads(99), 0.0);
}

TEST(Dispatcher, GreedyFallbackMatchesLpFeasibility) {
  DispatcherConfig lp_cfg = basic_config();
  DispatcherConfig greedy_cfg = basic_config();
  greedy_cfg.use_lp = false;
  Dispatcher lp(lp_cfg), greedy(greedy_cfg);
  std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
  for (int i = 0; i < 40; ++i) reqs.emplace_back(i, 800);
  auto a = dispatch_each(lp, reqs, 0.0);
  auto b = dispatch_each(greedy, reqs, 0.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The LP makespan should be no worse than greedy's (same model).
  EXPECT_LE(lp.worst_per_layer(), greedy.worst_per_layer() * 1.10 + 1e-9);
}

// Property sweep: memory accounting is exact under random workloads.
class DispatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(DispatchProperty, MemoryNeverOverflowsAtDispatchTime) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  DispatcherConfig cfg = basic_config();
  Dispatcher d(cfg);
  workload::RequestId next = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
    int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n; ++i) {
      reqs.emplace_back(next++, rng.uniform_int(50, 4000));
    }
    auto placed = dispatch_each(d, reqs, static_cast<double>(round));
    if (!placed) break;
    // Dispatch must never leave a device overflowed.
    EXPECT_FALSE(d.first_overflowed().has_value()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace hetis::dispatch
