// Fig. 7 reproduction: the three properties that justify the linear
// Attention-time model (Eq. 3) on OPT-30B:
//   (a) time is invariant in the number of requests when total heads and
//       cache are fixed,
//   (b) time grows linearly with cache size,
//   (c) time grows linearly with the number of heads at fixed cache.
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "costmodel/kernel_model.h"
#include "hw/gpu.h"
#include "model/llm.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig7_attention_model").parse(argc, argv);
  costmodel::KernelModel kernel;
  const model::ModelSpec& m = model::opt_30b();
  const hw::GpuSpec& gpu = hw::gpu_spec(hw::GpuType::kA100_80G);

  std::printf("=== Fig. 7: Attention-time modeling, OPT-30B on A100 (one layer) ===\n\n");

  // (a) 400-700 requests, constant total heads (700*56) and cache.
  std::printf("--- (a) time vs #requests at fixed total heads+cache ---\n");
  std::printf("%10s %12s\n", "#requests", "time (ms)");
  const double total_heads = 700.0 * m.heads;
  const double total_head_tokens = total_heads * 1000.0;  // fixed cache
  for (int n : {400, 500, 600, 700}) {
    int heads_per_req = static_cast<int>(total_heads / n);
    auto ctx = static_cast<std::int64_t>(total_head_tokens / total_heads);
    std::vector<std::int64_t> ctxs(static_cast<std::size_t>(n), ctx);
    Seconds t = kernel.decode_attention_time(gpu, m, ctxs, heads_per_req);
    std::printf("%10d %12.3f\n", n, to_millis(t));
  }

  // (b) 600 requests, average context 900-1200.
  std::printf("\n--- (b) time vs average context length (600 requests) ---\n");
  std::printf("%10s %12s\n", "ctx", "time (ms)");
  for (std::int64_t ctx : {900, 1000, 1100, 1200}) {
    std::vector<std::int64_t> ctxs(600, ctx);
    Seconds t = kernel.decode_attention_time(gpu, m, ctxs, m.heads / 2);
    std::printf("%10lld %12.3f\n", static_cast<long long>(ctx), to_millis(t));
  }

  // (c) fixed total cache, 15k-45k heads.
  std::printf("\n--- (c) time vs #heads at fixed cache ---\n");
  std::printf("%10s %12s\n", "heads(k)", "time (ms)");
  const double fixed_head_tokens = 15000.0 * 1000.0;
  for (double kheads : {15.0, 30.0, 45.0}) {
    double heads = kheads * 1000.0;
    auto ctx = static_cast<std::int64_t>(fixed_head_tokens / heads);
    int n_req = static_cast<int>(heads / m.heads);
    std::vector<std::int64_t> ctxs(static_cast<std::size_t>(n_req), ctx);
    Seconds t = kernel.decode_attention_time(gpu, m, ctxs, m.heads);
    std::printf("%10.0f %12.3f\n", kheads, to_millis(t));
  }
  return 0;
}
