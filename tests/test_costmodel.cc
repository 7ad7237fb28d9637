// Unit tests: roofline kernel model, comm model, OLS, profiler.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "costmodel/attention_model.h"
#include "costmodel/comm_model.h"
#include "costmodel/kernel_model.h"
#include "costmodel/ols.h"
#include "costmodel/profiler.h"
#include "hw/topology.h"
#include "model/llm.h"

namespace hetis::costmodel {
namespace {

using hw::GpuType;

const hw::GpuSpec& a100() { return hw::gpu_spec(GpuType::kA100_80G); }
const hw::GpuSpec& p100() { return hw::gpu_spec(GpuType::kP100); }

// --- KernelModel ---

TEST(KernelModel, DenseTimeMonotoneInTokens) {
  KernelModel k;
  const auto& m = model::llama_13b();
  Seconds prev = 0;
  for (std::int64_t tokens : {1, 16, 128, 1024, 8192}) {
    Seconds t = k.dense_layer_time(a100(), m, tokens);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(KernelModel, DenseTimeZeroTokens) {
  KernelModel k;
  EXPECT_DOUBLE_EQ(k.dense_layer_time(a100(), model::llama_13b(), 0), 0.0);
}

TEST(KernelModel, TpShrinksDenseTime) {
  KernelModel k;
  const auto& m = model::llama_70b();
  Seconds t1 = k.dense_layer_time(a100(), m, 4096, 1);
  Seconds t4 = k.dense_layer_time(a100(), m, 4096, 4);
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 5.0);  // not super-linear
}

TEST(KernelModel, RooflineLowerBounds) {
  // Time can never beat either the compute or the memory bound.
  KernelModel k;
  const auto& m = model::opt_30b();
  model::Work w = model::dense_layer_work(m, 256);
  Seconds t = k.dense_time(a100(), w);
  EXPECT_GE(t, w.flops / a100().eff_flops());
  EXPECT_GE(t, static_cast<double>(w.weight_bytes) / a100().eff_dense_bw());
}

TEST(KernelModel, PrefillComputeBoundDecodeMemoryBound) {
  const auto& m = model::llama_13b();
  // Large prefill: compute term dominates on A100.
  model::Work prefill = model::dense_layer_work(m, 8192);
  EXPECT_GT(prefill.flops / a100().eff_flops(),
            static_cast<double>(prefill.weight_bytes + prefill.act_bytes) / a100().eff_dense_bw());
  // Small decode: memory term dominates.
  model::Work decode = model::dense_layer_work(m, 8);
  EXPECT_LT(decode.flops / a100().eff_flops(),
            static_cast<double>(decode.weight_bytes) / a100().eff_dense_bw());
}

TEST(KernelModel, Table1DeviceOrdering) {
  // The paper's Table 1 gaps: P100 >> 3090 > A100 for both phases.
  KernelModel k;
  const auto& m = model::opt_2_7b();
  std::vector<std::int64_t> decode_ctxs(25, 256);
  for (bool prefill : {true, false}) {
    auto time_of = [&](const hw::GpuSpec& g) {
      if (prefill) {
        return k.dense_layer_time(g, m, 3 * 256) * m.layers;
      }
      return (k.dense_layer_time(g, m, 25) +
              k.decode_attention_time(g, m, decode_ctxs, m.heads)) *
             m.layers;
    };
    Seconds ta = time_of(a100());
    Seconds t3 = time_of(hw::gpu_spec(GpuType::kRTX3090));
    Seconds tp = time_of(p100());
    EXPECT_LT(ta, t3);
    EXPECT_LT(t3, tp);
  }
}

TEST(KernelModel, AttentionOccupancyMonotone) {
  double prev = 0;
  for (double h : {1.0, 8.0, 32.0, 96.0, 512.0}) {
    double occ = KernelModel::attention_occupancy(h);
    EXPECT_GE(occ, prev);
    EXPECT_LE(occ, 1.0);
    prev = occ;
  }
  EXPECT_DOUBLE_EQ(KernelModel::attention_occupancy(1e9), 1.0);
}

TEST(KernelModel, DecodeAttentionLinearInContext) {
  // Fig. 7(b): attention time grows linearly with cache size.
  KernelModel k;
  const auto& m = model::opt_30b();
  std::vector<std::int64_t> short_ctx(64, 500), long_ctx(64, 1000);
  Seconds t_short = k.decode_attention_time(a100(), m, short_ctx, 8);
  Seconds t_long = k.decode_attention_time(a100(), m, long_ctx, 8);
  // Doubling context roughly doubles the KV streaming term.
  EXPECT_GT(t_long, 1.6 * t_short);
  EXPECT_LT(t_long, 2.4 * t_short);
}

TEST(KernelModel, DecodeAttentionGrowsWithHeads) {
  // Fig. 7(c): more heads -> more time even at fixed total cache.
  KernelModel k;
  const auto& m = model::opt_30b();
  // Fixed cache: ctx * heads constant (9600 head-tokens per seq).
  std::vector<std::int64_t> ctx_few(64, 1200), ctx_many(64, 300);
  Seconds t_few = k.decode_attention_time(a100(), m, ctx_few, 8);    // 8 heads
  Seconds t_many = k.decode_attention_time(a100(), m, ctx_many, 32);  // 4x heads
  EXPECT_GT(t_many, t_few);
}

TEST(KernelModel, AttentionBatchInvariantInRequestCount) {
  // Fig. 7(a): with total heads and cache fixed, splitting the same work
  // across more requests leaves time nearly unchanged.
  KernelModel k;
  const auto& m = model::opt_30b();
  std::vector<std::int64_t> few(100, 1200);
  std::vector<std::int64_t> many(200, 600);
  Seconds t_few = k.decode_attention_time(a100(), m, few, 16);
  Seconds t_many = k.decode_attention_time(a100(), m, many, 16);
  // Same head count per request, same total cache => within a few percent
  // (the act_bytes term differs slightly).
  EXPECT_NEAR(t_many / t_few, 1.0, 0.35);
}

TEST(KernelModel, MismatchedBatchArraysThrow) {
  KernelModel k;
  const auto& m = model::opt_30b();
  EXPECT_THROW(k.decode_attention_time(a100(), m, {100, 200}, std::vector<int>{8}),
               std::invalid_argument);
}

TEST(KernelModel, EmptyBatchesAreFree) {
  KernelModel k;
  const auto& m = model::opt_30b();
  EXPECT_DOUBLE_EQ(k.decode_attention_time(a100(), m, {}, 8), 0.0);
  EXPECT_DOUBLE_EQ(k.prefill_attention_time(a100(), m, {}, 8), 0.0);
}

// --- CommModel ---

TEST(CommModel, P2pUsesLinkModel) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  // Inter-host: 100 Gbps + 20 us.
  Seconds t = comm.p2p(0, 11, 125'000'000);
  EXPECT_NEAR(t, 0.01 + 20e-6, 1e-6);
  EXPECT_DOUBLE_EQ(comm.p2p(3, 3, 1 * GiB), 0.0);
}

TEST(CommModel, AllreduceScalesWithGroup) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  std::vector<int> tp2{0, 1}, tp4{0, 1, 2, 3};
  Bytes bytes = 64 * MiB;
  Seconds t2 = comm.allreduce(tp2, bytes);
  Seconds t4 = comm.allreduce(tp4, bytes);
  EXPECT_GT(t4, t2);  // more latency terms
  EXPECT_DOUBLE_EQ(comm.allreduce({0}, bytes), 0.0);
}

TEST(CommModel, CrossHostAllreduceSlower) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  std::vector<int> intra{4, 5};   // same 3090 host
  std::vector<int> cross{4, 6};   // different 3090 hosts
  Bytes bytes = 16 * MiB;
  EXPECT_LT(comm.allreduce(intra, bytes), comm.allreduce(cross, bytes));
}

TEST(CommModel, HeadwiseVolumeMatchesPaperFormula) {
  // d = (2 + 2/r) * h * head_dim * dtype.
  const auto& m = model::llama_70b();  // r=8, d_head=128
  Bytes vol = CommModel::headwise_bytes_per_token(m, 16);
  EXPECT_EQ(vol, static_cast<Bytes>((2.0 + 2.0 / 8.0) * 16 * 128 * 2));
}

TEST(CommModel, HeadwiseBeatsSeqwise) {
  // Fig. 5: head-wise communication is strictly cheaper at partial offload.
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  const auto& m = model::llama_70b();
  const Seconds seq = comm.seqwise_offload_time(m, 0, {8});
  for (double ratio : {0.2, 0.4, 0.6, 0.8}) {
    EXPECT_LT(comm.headwise_offload_time(m, 0, 8, ratio * m.heads), seq)
        << "offload ratio " << ratio;
  }
}

TEST(CommModel, SeqwiseGrowsWithWorkers) {
  // Every sequence-wise worker receives the full q width, so four workers
  // cost more than three times one.
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  const auto& m = model::llama_70b();
  const Seconds w1 = comm.seqwise_offload_time(m, 0, {8});
  const Seconds w4 = comm.seqwise_offload_time(m, 0, {8, 9, 10, 11});
  EXPECT_GT(w4, 3 * w1);
}

TEST(CommModel, OffloadTimesPositive) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  CommModel comm(c);
  const auto& m = model::llama_70b();
  Seconds head = comm.headwise_offload_time(m, 0, 8, 16);
  Seconds seq = comm.seqwise_offload_time(m, 0, {8, 9, 10, 11});
  EXPECT_GT(head, 0);
  EXPECT_GT(seq, head);
  EXPECT_DOUBLE_EQ(comm.headwise_offload_time(m, 0, 8, 0), 0.0);
}

// --- OLS ---

TEST(Ols, RecoversExactLinearModel) {
  // y = 3x1 + 5x2 + 7.
  std::vector<double> xs, ys;
  for (double x1 : {1.0, 2.0, 4.0, 8.0}) {
    for (double x2 : {1.0, 3.0, 9.0}) {
      xs.insert(xs.end(), {x1, x2, 1.0});
      ys.push_back(3 * x1 + 5 * x2 + 7);
    }
  }
  auto beta = ols_fit(xs, ys.size(), 3, ys);
  EXPECT_NEAR(beta[0], 3.0, 1e-8);
  EXPECT_NEAR(beta[1], 5.0, 1e-8);
  EXPECT_NEAR(beta[2], 7.0, 1e-8);
  // The stabilizing ridge leaves a ~1e-11 bias; exactness up to that.
  EXPECT_NEAR(r_squared(xs, ys.size(), 3, ys, beta), 1.0, 1e-9);
  EXPECT_NEAR(mape_accuracy(xs, ys.size(), 3, ys, beta), 1.0, 1e-9);
}

TEST(Ols, ShapeErrors) {
  EXPECT_THROW(ols_fit({1.0, 2.0}, 1, 3, {1.0}), std::invalid_argument);
  EXPECT_THROW(ols_fit({1.0, 2.0}, 2, 1, {1.0}), std::invalid_argument);
  // Underdetermined.
  EXPECT_THROW(ols_fit({1.0, 2.0}, 1, 2, {1.0}), std::invalid_argument);
}

TEST(Ols, NoisyFitStillAccurate) {
  Rng rng(77);
  std::vector<double> xs, ys;
  for (int i = 0; i < 64; ++i) {
    double x = rng.uniform(1.0, 100.0);
    xs.insert(xs.end(), {x, 1.0});
    ys.push_back((2.5 * x + 10.0) * (1.0 + rng.normal(0, 0.02)));
  }
  auto beta = ols_fit(xs, ys.size(), 2, ys);
  EXPECT_NEAR(beta[0], 2.5, 0.15);
  EXPECT_GT(mape_accuracy(xs, ys.size(), 2, ys, beta), 0.9);
}

TEST(Ols, CollinearColumnsHandledByRidge) {
  // x2 = 2*x1 exactly: the ridge keeps the solve well-defined.
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    xs.insert(xs.end(), {x, 2 * x});
    ys.push_back(10 * x);
  }
  auto beta = ols_fit(xs, ys.size(), 2, ys);
  // Prediction quality is what matters, not coefficient identifiability.
  EXPECT_GT(mape_accuracy(xs, ys.size(), 2, ys, beta), 0.999);
}

// --- Attention model & transfer volume ---

TEST(AttnParams, LinearEvaluation) {
  AttnParams p{1e-6, 1e-9, 5e-6};
  EXPECT_DOUBLE_EQ(p.time(10, 1000), 1e-5 + 1e-6 + 5e-6);
  EXPECT_DOUBLE_EQ(p.time(0, 1000), 0.0);  // no heads, no work
}

TEST(AttnParams, Perturbation) {
  AttnParams p{1.0, 2.0, 3.0};
  AttnParams q = p.perturbed(0.1, -0.1, 0.2);
  EXPECT_DOUBLE_EQ(q.a, 1.1);
  EXPECT_DOUBLE_EQ(q.b, 1.8);
  EXPECT_DOUBLE_EQ(q.c, 3.6);
}

TEST(TransferVolume, ScalesWithHeadsAndLayers) {
  const auto& m = model::llama_70b();
  Bytes v8 = transfer_volume(m, 8);
  Bytes v16 = transfer_volume(m, 16);
  EXPECT_EQ(v16, 2 * v8);
  EXPECT_EQ(transfer_volume(m, 0), 0);
  // All-layer volume = per-layer volume * layers.
  EXPECT_EQ(v8, CommModel::headwise_bytes_per_token(m, 8) * m.layers);
}

// --- Profiler ---

class ProfilerTest : public ::testing::TestWithParam<GpuType> {};

TEST_P(ProfilerTest, FitAccuracyMatchesPaperRange) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  Profiler profiler(c, model::opt_30b());
  int device = c.devices_of_type(GetParam()).front();
  DeviceProfile prof = profiler.profile_device(device);
  // §7.4: computation accuracy up to 93.8% -> our fits should exceed ~85%.
  EXPECT_GT(prof.attn_accuracy, 0.85) << hw::to_string(GetParam());
  EXPECT_GT(prof.attn_r2, 0.95);
  EXPECT_GE(prof.attn.a, 0.0);
  EXPECT_GE(prof.attn.b, 0.0);
  EXPECT_GE(prof.attn.c, 0.0);
  EXPECT_GT(prof.attn.a + prof.attn.b, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperGpus, ProfilerTest,
                         ::testing::Values(GpuType::kA100_80G, GpuType::kRTX3090,
                                           GpuType::kP100),
                         [](const auto& info) { return hw::to_string(info.param); });

TEST(Profiler, TransferFitNearPerfect) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  Profiler profiler(c, model::llama_70b());
  LinkProfile lp = profiler.profile_link(0, 8);  // A100 -> P100, inter-host
  // §7.4: transfer accuracy 92.4%-96.1%.
  EXPECT_GT(lp.transfer_accuracy, 0.9);
  EXPECT_GT(lp.transfer.gamma, 0.0);
}

TEST(Profiler, ProfileAllCoversEverything) {
  hw::Cluster c = hw::Cluster::ablation_cluster();
  Profiler profiler(c, model::llama_13b());
  ProfileResult res = profiler.profile_all();
  EXPECT_EQ(res.devices.size(), 3u);
  EXPECT_EQ(res.links.size(), 6u);  // 3 devices, ordered pairs
  EXPECT_TRUE(res.has_link(0, 1));
  EXPECT_FALSE(res.has_link(0, 0));
}

TEST(Profiler, GroundTruthMonotone) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  Profiler profiler(c, model::opt_30b());
  Seconds t1 = profiler.ground_truth_attention(0, 100, 1e8);
  Seconds t2 = profiler.ground_truth_attention(0, 100, 2e8);
  Seconds t3 = profiler.ground_truth_attention(0, 200, 2e8);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
}

TEST(Profiler, FasterDeviceFitsFasterModel) {
  hw::Cluster c = hw::Cluster::paper_cluster();
  Profiler profiler(c, model::opt_30b());
  DeviceProfile a = profiler.profile_device(0);   // A100
  DeviceProfile p = profiler.profile_device(8);   // P100
  // For the same moderate load, the P100's predicted time must be larger.
  double h = 512, g = 5e8;
  EXPECT_GT(p.attn.time(h, g), a.attn.time(h, g));
}

}  // namespace
}  // namespace hetis::costmodel
