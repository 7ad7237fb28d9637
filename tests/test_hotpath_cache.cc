// Differential tests for the hot path's shortcuts: recycled waterfill buffers,
// the closed-form decode-attention cost, the dense-stage memo, the
// Dispatcher's running totals and its certified skip of the re-dispatch
// waterfill.  The contract under test is strict: every
// shortcut must return results BIT-identical to the plain computation it
// replaces -- not approximately equal, byte-for-byte equal -- because the
// repo's golden CSVs are byte-compared in CI and a single ULP of drift in
// a dispatch decision cascades into a different event trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "costmodel/kernel_model.h"
#include "dispatch/dispatcher.h"
#include "engine/exec.h"
#include "hw/topology.h"
#include "lp/minmax.h"
#include "model/llm.h"
#include "parallel/plan.h"

namespace hetis {
namespace {

/// Bit pattern of a double: the identity the golden-determinism contract
/// actually needs.  EXPECT_EQ on doubles would conflate -0.0 with 0.0 and
/// reject NaN self-matches; comparing bits does neither.
std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void expect_bits_eq(double a, double b) { EXPECT_EQ(bits(a), bits(b)); }

/// A feasible randomized min-max dispatch problem (shapes the Dispatcher
/// actually builds: one device row per logical device, one column per
/// request, group-divisible demand).
lp::MinMaxProblem random_problem(Rng& rng, std::size_t d, std::size_t j, int group) {
  lp::MinMaxProblem p;
  p.group_size = group;
  for (std::size_t i = 0; i < d; ++i) {
    p.base_time.push_back(rng.uniform(0.0, 1e-3));
    p.head_cost.push_back(rng.uniform(1e-7, 5e-6));
    p.cache_cost.push_back(rng.uniform(1e-15, 1e-12));
    p.mem_free.push_back(rng.uniform(1e9, 4e10));
  }
  for (std::size_t r = 0; r < j; ++r) {
    p.demand.push_back(static_cast<double>(group * static_cast<int>(rng.uniform_int(1, 8))));
    p.cache_per_head.push_back(rng.uniform(1e3, 1e6));
  }
  return p;
}

/// The Dispatcher's waterfill path: the greedy scratch vectors, recycled
/// across every call.
struct RecycledSolver {
  std::vector<std::vector<int>> heads;
  std::vector<double> load;
  std::vector<double> mem;

  const std::vector<std::vector<int>>& greedy(const lp::MinMaxProblem& p) {
    p.validate();
    lp::greedy_dispatch_into(p, heads, load, mem);
    return heads;
  }
};

// --- SolveWorkspace: the recycled waterfill buffers vs fresh solves --------

TEST(SolveWorkspace, GreedyMatchesColdOnRandomizedProblems) {
  // Shapes change from trial to trial, and every seventh trial first throws
  // on a malformed problem: the recycled buffers must carry no value from
  // one solve into the next.
  Rng rng(20251116);
  RecycledSolver ws;
  for (int trial = 0; trial < 60; ++trial) {
    lp::MinMaxProblem p =
        random_problem(rng, 2 + trial % 4, 1 + trial % 7, 1 + (trial % 3) * 3);
    if (trial % 7 == 0) {
      lp::MinMaxProblem bad = p;
      bad.head_cost.pop_back();  // shape mismatch -> validate() throws
      EXPECT_THROW(ws.greedy(bad), std::invalid_argument);
    }
    std::vector<std::vector<int>> cold = lp::greedy_dispatch(p);
    EXPECT_EQ(cold, ws.greedy(p));
    expect_bits_eq(lp::eval_makespan(p, cold), lp::eval_makespan(p, ws.greedy(p)));
  }
}

TEST(SolveWorkspace, DegenerateTiesResolveIdentically) {
  // Every device identical -> the argmin tie-breaks purely by scan order in
  // both paths.  Any divergence here would flip real dispatch decisions.
  lp::MinMaxProblem p;
  p.group_size = 4;
  for (int i = 0; i < 6; ++i) {
    p.base_time.push_back(0.5);
    p.head_cost.push_back(1e-6);
    p.cache_cost.push_back(1e-13);
    p.mem_free.push_back(1e10);
  }
  for (int r = 0; r < 5; ++r) {
    p.demand.push_back(8);
    p.cache_per_head.push_back(4096);
  }
  RecycledSolver ws;
  EXPECT_EQ(lp::greedy_dispatch(p), ws.greedy(p));
}

TEST(SolveWorkspace, ZeroRequestProblem) {
  lp::MinMaxProblem p;
  p.base_time = {0.1, 0.2};
  p.head_cost = {1e-6, 2e-6};
  p.cache_cost = {1e-13, 1e-13};
  p.mem_free = {1e9, 1e9};
  RecycledSolver ws;
  EXPECT_EQ(lp::greedy_dispatch(p), ws.greedy(p));
}

TEST(GreedyDispatchInto, ReusedBuffersMatchFreshOnes) {
  // The in-place form must be oblivious to whatever garbage (sizes AND
  // values) its buffers held from a previous, differently-shaped problem.
  Rng rng(99);
  std::vector<std::vector<int>> heads(7, std::vector<int>(11, -5));
  std::vector<double> load(13, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> mem(1, 1e300);
  for (int trial = 0; trial < 30; ++trial) {
    lp::MinMaxProblem p = random_problem(rng, 2 + trial % 5, 1 + trial % 6, 1);
    lp::greedy_dispatch_into(p, heads, load, mem);
    EXPECT_EQ(heads, lp::greedy_dispatch(p));
  }
}

// --- Closed-form decode attention ------------------------------------------

/// The reference the closed form replaces: the per-sequence sum of
/// model::decode_attention_work, priced once as one batched kernel.
Seconds reference_decode_time(const costmodel::KernelModel& k, const hw::GpuSpec& gpu,
                              const model::ModelSpec& m, const std::vector<std::int64_t>& ctxs,
                              const std::vector<int>& heads) {
  model::Work total;
  total.kernels = 0;
  double head_sum = 0;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    if (heads[i] <= 0) continue;
    total += model::decode_attention_work(m, ctxs[i], heads[i]);
    head_sum += heads[i];
  }
  if (head_sum == 0) return 0.0;
  total.kernels = 1;
  return k.attention_time(gpu, total, head_sum);
}

TEST(KernelModel, ClosedFormDecodeAttentionBitIdentical) {
  // Every preset model, both overloads, empty and single-sequence batches
  // included, at the per-device head counts of TP 1..8.
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);
  costmodel::KernelModel k;
  Rng rng(5);
  for (const model::ModelSpec* m :
       {&model::opt_2_7b(), &model::opt_13b(), &model::opt_30b(), &model::llama_13b(),
        &model::llama2_7b(), &model::llama_70b()}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::int64_t> ctxs;
      const int n = trial == 0 ? 0 : trial == 1 ? 1 : static_cast<int>(rng.uniform_int(0, 64));
      for (int i = 0; i < n; ++i) ctxs.push_back(rng.uniform_int(1, 32768));
      for (int tp : {1, 2, 3, 4, 8}) {
        const int heads = std::max(1, m->heads / tp);
        const std::vector<int> uniform(ctxs.size(), heads);
        const Seconds want = reference_decode_time(k, gpu, *m, ctxs, uniform);
        expect_bits_eq(want, k.decode_attention_time(gpu, *m, ctxs, heads));
        expect_bits_eq(want, k.decode_attention_time(gpu, *m, ctxs, uniform));
      }
      std::vector<int> mixed;
      for (std::size_t i = 0; i < ctxs.size(); ++i) {
        mixed.push_back(static_cast<int>(rng.uniform_int(-2, m->heads)));
      }
      expect_bits_eq(reference_decode_time(k, gpu, *m, ctxs, mixed),
                     k.decode_attention_time(gpu, *m, ctxs, mixed));
    }
  }
}

TEST(KernelModel, DecodeAttentionTotalMatchesPerSequenceForm) {
  // The integer entry point PipelineInstance prices from: sum(ctx) * h and
  // n * h give the per-sequence overload's result bit for bit.
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);
  costmodel::KernelModel k;
  Rng rng(11);
  for (const model::ModelSpec* m : {&model::llama_13b(), &model::llama_70b()}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::int64_t> ctxs;
      const int n = trial == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 256));
      std::int64_t ctx_sum = 0;
      for (int i = 0; i < n; ++i) {
        ctxs.push_back(rng.uniform_int(1, 32768));
        ctx_sum += ctxs.back();
      }
      for (int h : {1, 8, m->heads}) {
        expect_bits_eq(k.decode_attention_time(gpu, *m, ctxs, h),
                       k.decode_attention_total(gpu, *m, ctx_sum * h, std::int64_t{n} * h));
      }
    }
  }
}

/// Per-stage decode attention the per-sequence way: the kernel over every
/// context at the stage's per-device head count, times its layers, slowed
/// by the stage's degradation overlay.
Seconds reference_stage_decode(const engine::ExecModel& exec, const parallel::StageConfig& stage,
                               const std::vector<std::int64_t>& ctxs) {
  const model::ModelSpec& m = exec.model_spec();
  if (ctxs.empty()) return 0.0;
  const hw::GpuSpec& gpu = exec.cluster().device(stage.devices.front()).spec();
  Seconds t = exec.kernel().decode_attention_time(gpu, m, ctxs, std::max(1, m.heads / stage.tp())) *
              stage.layers;
  const double speed = exec.stage_speed(stage);
  if (speed != 1.0) t /= speed;
  return t;
}

TEST(ExecModelDecode, PricingFromTotalsMatchesPerSequenceKernel) {
  // decode_iteration_time(n, sum(ctx)) against the per-sequence kernel,
  // stage by stage: TP 1/2/4 stages on three device types, seeded context
  // sets, on a healthy and on a degraded cluster.
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  engine::ExecModel exec(cluster, model::llama_70b());
  parallel::StageConfig tp4;
  tp4.devices = {0, 1, 2, 3};  // A100
  tp4.layers = 40;
  parallel::StageConfig tp2;
  tp2.devices = {4, 5};  // 3090
  tp2.layers = 24;
  parallel::StageConfig tp1;
  tp1.devices = {8};  // P100
  tp1.layers = 16;
  parallel::InstanceConfig inst;
  inst.stages = {tp4, tp2, tp1};
  Rng rng(23);
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      cluster.set_device_speed(1, 0.6);  // gates the whole TP4 stage
      cluster.set_device_speed(8, 0.35);
    }
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::int64_t> ctxs;
      const int n = trial == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 300));
      std::int64_t ctx_sum = 0;
      for (int i = 0; i < n; ++i) {
        ctxs.push_back(rng.uniform_int(1, 16384));
        ctx_sum += ctxs.back();
      }
      const engine::IterationTime it = exec.decode_iteration_time(inst, n, ctx_sum);
      ASSERT_EQ(it.stages.size(), inst.stages.size());
      for (std::size_t k = 0; k < inst.stages.size(); ++k) {
        const parallel::StageConfig& stage = inst.stages[k];
        expect_bits_eq(reference_stage_decode(exec, stage, ctxs), it.stages[k].attention);
        expect_bits_eq(exec.stage_attention_decode(stage, n, ctx_sum, exec.model_spec().heads),
                       it.stages[k].attention);
        expect_bits_eq(exec.stage_dense_time(stage, n), it.stages[k].dense);
        expect_bits_eq(k + 1 < inst.stages.size()
                           ? exec.interstage_comm(stage, inst.stages[k + 1], n)
                           : 0.0,
                       it.stages[k].comm_out);
      }
    }
  }
}

TEST(KernelModel, DecodeAttentionRejectsFractionalKvStride) {
  // 2 * head_dim must be a multiple of the GQA ratio for the per-token KV
  // bytes to be an integer; a model that breaks this has no closed form.
  model::ModelSpec m = model::llama_70b();
  m.name = "odd-gqa";
  m.hidden = 3 * 64;  // head_dim 3
  m.kv_heads = 16;    // ratio 4, and 2 * 3 % 4 != 0
  costmodel::KernelModel k;
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);
  EXPECT_THROW(k.decode_attention_time(gpu, m, {100, 200}, 4), std::invalid_argument);
  EXPECT_THROW(k.decode_attention_time(gpu, m, {100, 200}, std::vector<int>{4, 4}),
               std::invalid_argument);
}

// --- ExecModel cost-cache differential ------------------------------------

class ExecCacheDifferential : public ::testing::Test {
 protected:
  ExecCacheDifferential()
      : cluster_(hw::Cluster::paper_cluster()),
        cached_(cluster_, model::llama_13b()),
        cold_(cluster_, model::llama_13b()) {
    cold_.set_cost_cache_enabled(false);
    parallel::StageConfig s0;
    s0.devices = {0, 1};
    s0.layers = 28;
    parallel::StageConfig s1;
    s1.devices = {4, 5, 6};
    s1.layers = 12;
    inst_.stages = {s0, s1};
  }

  void expect_identical_iterations() {
    Rng rng(17);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<std::int64_t> lens;
      const int n = 1 + static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n; ++i) lens.push_back(rng.uniform_int(1, 2000));
      std::int64_t ctx_sum = 0;
      for (std::int64_t l : lens) ctx_sum += l;
      const auto time = [&](const engine::ExecModel& exec) {
        return trial % 3 == 0 ? exec.prefill_iteration_time(inst_, lens)
                              : exec.decode_iteration_time(inst_, n, ctx_sum);
      };
      engine::IterationTime a = time(cached_);
      engine::IterationTime b = time(cold_);
      ASSERT_EQ(a.stages.size(), b.stages.size());
      for (std::size_t s = 0; s < a.stages.size(); ++s) {
        expect_bits_eq(a.stages[s].dense, b.stages[s].dense);
        expect_bits_eq(a.stages[s].attention, b.stages[s].attention);
        expect_bits_eq(a.stages[s].comm_out, b.stages[s].comm_out);
      }
    }
  }

  hw::Cluster cluster_;
  engine::ExecModel cached_;
  engine::ExecModel cold_;
  parallel::InstanceConfig inst_;
};

TEST_F(ExecCacheDifferential, CachedMatchesUncachedOnHealthyCluster) {
  expect_identical_iterations();
  EXPECT_GT(cached_.cost_cache_hits(), 0u);
  EXPECT_EQ(cold_.cost_cache_hits(), 0u);
}

TEST_F(ExecCacheDifferential, ConditionOverlayInvalidatesDenseEntries) {
  expect_identical_iterations();  // warm the caches
  // Degrade a stage-0 device: cached dense times embed device speed, so a
  // stale entry would now be visibly wrong.  condition_epoch() must flush.
  cluster_.set_device_speed(0, 0.5);
  expect_identical_iterations();
  // Restore (another epoch bump -- even a reset to 1.0 must invalidate).
  cluster_.set_device_speed(0, 1.0);
  expect_identical_iterations();
}

TEST_F(ExecCacheDifferential, LinkScaleOverlayAlsoInvalidates) {
  expect_identical_iterations();
  cluster_.set_device_link_scale(4, 0.25);
  expect_identical_iterations();
}

TEST_F(ExecCacheDifferential, WideStagesBypassTheCacheCorrectly) {
  // 9 devices > kMaxCachedStageWidth: the dense cache must step aside, not
  // truncate the key.
  parallel::StageConfig wide;
  for (int i = 0; i < 9; ++i) wide.devices.push_back(i % 16);
  wide.layers = 40;
  parallel::InstanceConfig inst;
  inst.stages = {wide};
  std::vector<std::int64_t> lens{100, 200, 300};
  engine::IterationTime a = cached_.prefill_iteration_time(inst, lens);
  engine::IterationTime b = cold_.prefill_iteration_time(inst, lens);
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    expect_bits_eq(a.stages[s].dense, b.stages[s].dense);
  }
}

// --- Dispatcher: batched appends + running-total aggregates ---------------

// Mirrors test_dispatch.cc's two-stage + two-worker shape.
dispatch::DispatcherConfig dispatcher_config() {
  dispatch::DispatcherConfig cfg;
  cfg.heads = 32;
  cfg.group_size = 1;
  cfg.bytes_per_head_token_layer = 512.0;
  cfg.total_layers = 40;
  cfg.theta = 0.5;
  dispatch::StageDesc s0;
  s0.devices = {0, 1};
  s0.layers = 28;
  s0.attn = costmodel::AttnParams{2e-8, 1.0 / 1.1e12, 3e-6};
  s0.capacity = 40ll * GiB;
  dispatch::StageDesc s1;
  s1.devices = {2, 3};
  s1.layers = 12;
  s1.attn = costmodel::AttnParams{4.5e-8, 1.0 / 0.6e12, 4e-6};
  s1.capacity = 20ll * GiB;
  cfg.stages = {s0, s1};
  for (int w = 0; w < 2; ++w) {
    dispatch::WorkerDesc wd;
    wd.device = 8 + w;
    wd.attn = costmodel::AttnParams{1.1e-7, 1.0 / 0.34e12, 8e-6};
    wd.transfer = costmodel::TransferParams{1.0 / 12.5e9, 4e-5};
    wd.capacity = 10ll * GiB;
    cfg.workers.push_back(wd);
  }
  return cfg;
}

/// Dispatches `reqs` one at a time, as HetisInstance admits them; false at
/// the first request the instance cannot host.
bool dispatch_each(dispatch::Dispatcher& d,
                   const std::vector<std::pair<workload::RequestId, std::int64_t>>& reqs,
                   Seconds now) {
  for (const auto& [id, ctx] : reqs) {
    if (!d.dispatch(id, ctx, now)) return false;
  }
  return true;
}

TEST(DispatcherHotPath, BatchedAppendEquivalentToLoop) {
  dispatch::Dispatcher batched(dispatcher_config());
  dispatch::Dispatcher looped(dispatcher_config());
  const std::vector<std::pair<workload::RequestId, std::int64_t>> reqs{
      {1, 500}, {2, 1200}, {3, 3000}, {4, 80}};
  ASSERT_TRUE(dispatch_each(batched, reqs, 0.0));
  ASSERT_TRUE(dispatch_each(looped, reqs, 0.0));
  const std::vector<workload::RequestId> ids{1, 2, 3, 4};
  for (int iter = 0; iter < 50; ++iter) {
    batched.append_tokens(ids);
    for (workload::RequestId id : ids) looped.append_tokens({id});
  }
  for (std::size_t dev = 0; dev < batched.num_logical(); ++dev) {
    expect_bits_eq(batched.device_time(dev), looped.device_time(dev));
  }
  expect_bits_eq(batched.worst_per_layer(), looped.worst_per_layer());
  expect_bits_eq(batched.ideal_per_layer(), looped.ideal_per_layer());
  expect_bits_eq(batched.attention_iteration_time(), looped.attention_iteration_time());
  for (workload::RequestId id : ids) EXPECT_EQ(batched.context(id), looped.context(id));
}

TEST(DispatcherHotPath, BatchedAppendUnknownIdThrows) {
  dispatch::Dispatcher d(dispatcher_config());
  ASSERT_TRUE(d.dispatch(1, 500, 0.0).has_value());
  EXPECT_THROW(d.append_tokens({1, 7}), std::out_of_range);
}

TEST(DispatcherHotPath, InterleavedReadsSeeFreshAggregates) {
  // Reads interleaved with mutations must always match a freshly-built twin
  // performing the same mutations.
  dispatch::Dispatcher d(dispatcher_config());
  dispatch::Dispatcher twin(dispatcher_config());
  ASSERT_TRUE(dispatch_each(d, {{1, 500}, {2, 2500}}, 0.0));
  // Read between every mutation on `d`; the twin mutates first, reads once.
  (void)d.worst_per_layer();
  d.append_tokens({1});
  (void)d.ideal_per_layer();
  (void)d.device_time(0);
  d.append_tokens({2});
  (void)d.attention_iteration_time();
  d.remove(1);
  ASSERT_TRUE(dispatch_each(twin, {{1, 500}, {2, 2500}}, 0.0));
  twin.append_tokens({1});
  twin.append_tokens({2});
  twin.remove(1);
  for (std::size_t dev = 0; dev < d.num_logical(); ++dev) {
    expect_bits_eq(d.device_time(dev), twin.device_time(dev));
  }
  expect_bits_eq(d.worst_per_layer(), twin.worst_per_layer());
  expect_bits_eq(d.ideal_per_layer(), twin.ideal_per_layer());
  EXPECT_GT(d.lp_solves(), 0u);
}

TEST(DispatcherHotPath, RepeatedIdealProbeIsStableAndCounted) {
  dispatch::Dispatcher d(dispatcher_config());
  ASSERT_TRUE(dispatch_each(d, {{1, 900}, {2, 900}}, 0.0));
  const std::uint64_t solves_before = d.lp_solves();
  Seconds first = d.ideal_per_layer();
  Seconds second = d.ideal_per_layer();
  expect_bits_eq(first, second);
  // Each probe runs (and counts) its own waterfill.
  EXPECT_GE(d.lp_solves(), solves_before + 2);
}

/// Test-local reference for the Dispatcher's time model: sums every
/// aggregate afresh from placement() and context() over the live ids (in
/// id order, in doubles), then prices it with the public Eq. 3 / Eq. 4 fits.
class DispatcherReference {
 public:
  DispatcherReference(const dispatch::DispatcherConfig& cfg, const dispatch::Dispatcher& d,
                      const std::set<workload::RequestId>& live)
      : cfg_(cfg), worker_heads_(cfg.workers.size(), 0.0),
        worker_head_tokens_(cfg.workers.size(), 0.0) {
    for (workload::RequestId id : live) {
      const dispatch::PlacementCounts& pc = d.placement(id);
      const std::int64_t ctx = d.context(id);
      ctxs_.push_back(ctx);
      local_heads_ += pc.local;
      local_head_tokens_ += static_cast<double>(pc.local) * ctx;
      for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
        worker_heads_[w] += pc.worker_heads[w];
        worker_head_tokens_[w] += static_cast<double>(pc.worker_heads[w]) * ctx;
      }
    }
  }

  Seconds device_time(std::size_t logical) const {
    if (logical > 0) return worker_time(logical - 1, worker_heads_[logical - 1]);
    Seconds worst = 0;
    for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
      worst = std::max(worst, stage_time(k, local_heads_, local_head_tokens_));
    }
    return worst;
  }

  Seconds worst_per_layer() const {
    Seconds worst = 0;
    for (std::size_t i = 0; i <= cfg_.workers.size(); ++i) worst = std::max(worst, device_time(i));
    return worst;
  }

  Seconds attention_iteration_time() const {
    Seconds worker_worst = 0;
    for (std::size_t i = 1; i <= cfg_.workers.size(); ++i) {
      worker_worst = std::max(worker_worst, device_time(i));
    }
    Seconds total = 0;
    for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
      total += std::max(stage_time(k, local_heads_, local_head_tokens_), worker_worst) *
               cfg_.stages[k].layers;
    }
    return total;
  }

  /// §5.3.1's f*: waterfill every live request onto the empty cluster under
  /// per-device memory, capped by the present bottleneck.
  Seconds ideal_per_layer() const {
    if (ctxs_.empty()) return 0.0;
    const double bph = cfg_.bytes_per_head_token_layer;
    lp::MinMaxProblem p;
    p.group_size = cfg_.group_size;
    std::size_t bk = 0;
    Seconds slowest = -1;
    for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
      const Seconds t = stage_time(k, 1.0, 1.0);
      if (t > slowest) {
        slowest = t;
        bk = k;
      }
    }
    const double tp = static_cast<double>(cfg_.stages[bk].devices.size());
    double free_pl = std::numeric_limits<double>::infinity();
    for (const auto& s : cfg_.stages) {
      free_pl = std::min(free_pl, static_cast<double>(s.capacity) / s.layers);
    }
    p.base_time.push_back(0.0);
    p.head_cost.push_back(cfg_.stages[bk].attn.a / tp);
    p.cache_cost.push_back(cfg_.stages[bk].attn.b / tp);
    p.mem_free.push_back(std::max(0.0, free_pl));
    for (const auto& wk : cfg_.workers) {
      p.base_time.push_back(wk.transfer.beta);
      p.head_cost.push_back(wk.attn.a + wk.transfer.gamma * volume_per_head());
      p.cache_cost.push_back(wk.attn.b);
      p.mem_free.push_back(
          std::max(0.0, static_cast<double>(wk.capacity) / cfg_.total_layers));
    }
    for (std::int64_t ctx : ctxs_) {
      p.demand.push_back(static_cast<double>(cfg_.heads));
      p.cache_per_head.push_back(static_cast<double>(ctx) * bph);
    }
    return std::min(lp::eval_makespan(p, lp::greedy_dispatch(p)), worst_per_layer());
  }

 private:
  double volume_per_head() const {
    return (static_cast<double>(cfg_.group_size) + 1.0) * cfg_.bytes_per_head_token_layer;
  }

  Seconds stage_time(std::size_t k, double heads, double head_tokens) const {
    const dispatch::StageDesc& s = cfg_.stages[k];
    const double tp = static_cast<double>(s.devices.size());
    const double h = heads / tp;
    if (h <= 0.0) return 0.0;
    return s.attn.time(h, head_tokens * cfg_.bytes_per_head_token_layer / tp);
  }

  Seconds worker_time(std::size_t w, double heads) const {
    if (heads <= 0.0) return 0.0;
    const dispatch::WorkerDesc& wk = cfg_.workers[w];
    const Bytes volume = static_cast<Bytes>(volume_per_head() * heads);
    return wk.attn.time(heads, worker_head_tokens_[w] * cfg_.bytes_per_head_token_layer) +
           wk.transfer.time(volume);
  }

  const dispatch::DispatcherConfig& cfg_;
  std::vector<std::int64_t> ctxs_;
  double local_heads_ = 0;
  double local_head_tokens_ = 0;
  std::vector<double> worker_heads_;
  std::vector<double> worker_head_tokens_;
};

TEST(DispatcherHotPath, RunningTotalsMatchRecompute) {
  // Random lifecycles -- admissions (a few re-dispatching a live id),
  // batched appends, removals, rebalances and rescues -- checked after
  // every step against the reference recomputed from scratch.
  for (int group : {1, 8}) {
    dispatch::DispatcherConfig cfg = dispatcher_config();
    cfg.group_size = group;
    cfg.workers[1].capacity = 2ll * GiB;  // tight enough to force rescues
    dispatch::Dispatcher d(cfg);
    std::set<workload::RequestId> live;
    std::vector<workload::RequestId> removed;  // candidates for re-adoption
    Rng rng(static_cast<std::uint64_t>(31 + group));
    workload::RequestId next_id = 1000;
    workload::RequestId low_id = 999;  // counts down: below every live id
    auto random_live = [&]() {
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      return *it;
    };
    for (int step = 0; step < 400; ++step) {
      const std::int64_t op = live.empty() ? 0 : rng.uniform_int(0, 5);
      if (op == 0) {
        std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
        const std::int64_t n = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < n; ++i) reqs.emplace_back(next_id++, rng.uniform_int(1, 4000));
        if (!live.empty() && rng.uniform_int(0, 4) == 0) {
          reqs.emplace_back(random_live(), rng.uniform_int(1, 4000));
        }
        // Out-of-order admissions, as adopt and re-dispatch produce: an id
        // below every live one, and a removed id coming back mid-table.
        if (rng.uniform_int(0, 3) == 0) reqs.emplace_back(low_id--, rng.uniform_int(1, 4000));
        if (!removed.empty() && rng.uniform_int(0, 3) == 0) {
          const auto k = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(removed.size()) - 1));
          if (live.count(removed[k]) == 0) {
            reqs.emplace_back(removed[k], rng.uniform_int(1, 4000));
          }
          removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(k));
        }
        for (const auto& [id, ctx] : reqs) {
          if (d.dispatch(id, ctx, static_cast<Seconds>(step))) live.insert(id);
        }
      } else if (op == 1 || op == 2) {
        std::vector<workload::RequestId> ids;
        for (workload::RequestId id : live) {
          if (op == 1 || rng.uniform_int(0, 1) == 0) ids.push_back(id);
        }
        d.append_tokens(ids);
      } else if (op == 3) {
        const workload::RequestId id = random_live();
        d.remove(id);
        live.erase(id);
        removed.push_back(id);
      } else {
        const dispatch::Rebalance rb = op == 4 ? d.plan_rebalance() : d.plan_rescue(random_live());
        if (rb.valid) d.apply(rb);
      }
      ASSERT_EQ(d.size(), live.size());
      const DispatcherReference ref(cfg, d, live);
      for (std::size_t dev = 0; dev < d.num_logical(); ++dev) {
        expect_bits_eq(ref.device_time(dev), d.device_time(dev));
      }
      expect_bits_eq(ref.worst_per_layer(), d.worst_per_layer());
      expect_bits_eq(ref.ideal_per_layer(), d.ideal_per_layer());
      expect_bits_eq(ref.attention_iteration_time(), d.attention_iteration_time());
      for (workload::RequestId id : live) ASSERT_TRUE(d.contains(id));
      if (!live.empty()) {
        ASSERT_FALSE(d.contains(*live.begin() - 1));
        EXPECT_THROW(d.append_tokens({*live.rbegin() + 1}), std::out_of_range);
      }
    }
  }
}

/// The trigger as it was before the certified skip: always run the
/// waterfill and compare.
bool waterfill_trigger(const dispatch::Dispatcher& d) {
  if (d.size() == 0) return false;
  const Seconds ideal = d.ideal_per_layer();
  return ideal > 0 && d.worst_per_layer() > (1.0 + d.config().theta) * ideal;
}

/// A random cluster: 1-3 stages and 0-3 workers with random Eq. 3 / Eq. 4
/// fits, some with a zero `a` or zero `b` (the profiler clamps negative
/// fits to zero), and capacities from roomy down to a few requests' worth.
dispatch::DispatcherConfig random_config(Rng& rng, int group, double theta) {
  dispatch::DispatcherConfig cfg;
  cfg.heads = 64;
  cfg.group_size = group;
  cfg.bytes_per_head_token_layer = 512.0;
  cfg.total_layers = 40;
  cfg.theta = theta;
  auto fit = [&rng]() {
    costmodel::AttnParams a{rng.uniform(1e-8, 2e-7), 1.0 / rng.uniform(0.2e12, 2e12),
                            rng.uniform(0.0, 1e-5)};
    const std::int64_t clamp = rng.uniform_int(0, 5);
    if (clamp == 0) a.a = 0.0;
    if (clamp == 1) a.b = 0.0;
    return a;
  };
  const Bytes scale = rng.uniform_int(0, 2) == 0 ? 64ll * MiB : 4ll * GiB;
  const std::int64_t stages = rng.uniform_int(1, 3);
  int layers_left = cfg.total_layers;
  for (std::int64_t k = 0; k < stages; ++k) {
    dispatch::StageDesc s;
    s.devices = {static_cast<int>(2 * k), static_cast<int>(2 * k + 1)};
    s.layers = k + 1 == stages ? layers_left : layers_left / 2;
    layers_left -= s.layers;
    s.attn = fit();
    s.capacity = rng.uniform_int(1, 8) * scale;
    cfg.stages.push_back(s);
  }
  const std::int64_t workers = rng.uniform_int(0, 3);
  for (std::int64_t w = 0; w < workers; ++w) {
    dispatch::WorkerDesc wd;
    wd.device = 8 + static_cast<int>(w);
    wd.attn = fit();
    wd.transfer = costmodel::TransferParams{1.0 / rng.uniform(5e9, 50e9), rng.uniform(0.0, 5e-5)};
    wd.capacity = rng.uniform_int(1, 8) * scale;
    cfg.workers.push_back(wd);
  }
  return cfg;
}

TEST(DispatcherHotPath, RebalanceSkipAgreesWithTheWaterfill) {
  // should_rebalance may skip the waterfill only when a bound proves the
  // trigger cannot fire; in every state it must answer exactly what the
  // waterfill answers.  States: random clusters and lifecycles (skewed
  // appends that overflow memory, so the waterfill stops short), empty
  // and single-request tables, theta = 0.
  int skipped = 0;
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int group = seed % 2 == 0 ? 8 : 1;
    const double theta = seed % 4 == 0 ? 0.0 : rng.uniform(0.0, 1.0);
    const dispatch::DispatcherConfig cfg = random_config(rng, group, theta);
    dispatch::Dispatcher d(cfg);
    EXPECT_FALSE(d.should_rebalance());  // empty table
    workload::RequestId next_id = 0;
    for (int step = 0; step < 60; ++step) {
      const std::int64_t op = d.size() == 0 ? 0 : rng.uniform_int(0, 4);
      if (op == 0) {
        (void)d.dispatch(next_id++, rng.uniform_int(1, 3000), static_cast<Seconds>(step));
      } else if (op == 1) {
        // Skew: grow the newest requests only.
        std::vector<workload::RequestId> ids;
        for (workload::RequestId id = std::max<workload::RequestId>(0, next_id - 2); id < next_id;
             ++id) {
          if (d.contains(id)) ids.push_back(id);
        }
        for (int t = 0; t < 200; ++t) d.append_tokens(ids);
      } else if (op == 2) {
        d.remove(rng.uniform_int(0, next_id - 1));
      } else {
        const dispatch::Rebalance rb = d.plan_rebalance();
        if (rb.valid) d.apply(rb);
      }
      const std::uint64_t before = d.lp_solves();
      const bool fast = d.should_rebalance();
      if (d.lp_solves() == before) {
        ++skipped;
      } else {
        ++solved;
      }
      EXPECT_EQ(fast, waterfill_trigger(d)) << "seed " << seed << " step " << step;
    }
  }
  // Both branches ran.
  EXPECT_GT(skipped, 0);
  EXPECT_GT(solved, 0);
}

TEST(DispatcherHotPath, RebalanceSkipHoldsWhenTheWaterfillStopsShort) {
  // Memory so tight that the waterfill over the grown contexts stops short
  // and reports a makespan far below every bound: the trigger fires, and
  // the memory certificate is what keeps the skip from hiding it.
  for (double theta : {0.0, 0.5}) {
    dispatch::DispatcherConfig cfg = dispatcher_config();
    cfg.theta = theta;
    dispatch::Dispatcher d(cfg);
    ASSERT_TRUE(dispatch_each(d, {{1, 2000}, {2, 2000}}, 0.0));
    // Both contexts grow past what the whole cluster can hold (about 2 GiB
    // per layer against 2 x 32 heads x 512 B per token).
    for (int t = 0; t < 98000; ++t) d.append_tokens({1, 2});
    ASSERT_TRUE(d.first_overflowed().has_value());
    EXPECT_TRUE(waterfill_trigger(d));
    EXPECT_EQ(d.should_rebalance(), waterfill_trigger(d));
  }
}

TEST(DispatcherHotPath, BalancedStateRunsNoWaterfill) {
  for (double theta : {0.0, 0.5}) {
    dispatch::DispatcherConfig cfg = dispatcher_config();
    cfg.theta = theta;
    dispatch::Dispatcher single(cfg);
    ASSERT_TRUE(single.dispatch(7, 900, 0.0).has_value());
    EXPECT_EQ(single.should_rebalance(), waterfill_trigger(single));
  }
  // Identical requests placed by the LP: the bottleneck is within theta of
  // the bound, so the check settles without a waterfill.
  dispatch::Dispatcher d(dispatcher_config());
  std::vector<std::pair<workload::RequestId, std::int64_t>> reqs;
  for (workload::RequestId id = 0; id < 16; ++id) reqs.emplace_back(id, 1500);
  ASSERT_TRUE(dispatch_each(d, reqs, 0.0));
  const std::uint64_t before = d.lp_solves();
  EXPECT_FALSE(d.should_rebalance());
  EXPECT_EQ(d.lp_solves(), before);
  EXPECT_FALSE(waterfill_trigger(d));
}

}  // namespace
}  // namespace hetis
