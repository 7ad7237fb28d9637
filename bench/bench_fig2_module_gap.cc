// Fig. 2 reproduction: decode-phase MLP and Attention execution time of one
// Llama-70B layer across GPUs, normalized to the A100, for 20-400
// concurrent requests at sequence length 1000.
//
// Expected shape: the MLP gap explodes with batch size (P100 norm. time
// reaching ~25-40x) while the Attention gap stays flat around ~2-4x --
// the heterogeneity asymmetry Hetis exploits (§2.3, O1/O2).
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "costmodel/kernel_model.h"
#include "hw/gpu.h"
#include "model/llm.h"
#include "model/modules.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig2_module_gap").parse(argc, argv);
  costmodel::KernelModel kernel;
  const model::ModelSpec& m = model::llama_70b();
  const std::int64_t kSeqLen = 1000;
  const std::vector<std::int64_t> request_counts{20, 100, 200, 300, 400};
  const std::vector<hw::GpuType> gpus{hw::GpuType::kP100, hw::GpuType::kRTX3090,
                                      hw::GpuType::kA100_80G};

  std::printf("=== Fig. 2: decode MLP / Attention time of one Llama-70B layer ===\n");
  std::printf("(normalized to A100; sequence length %lld)\n\n",
              static_cast<long long>(kSeqLen));

  std::printf("--- (a) MLP, normalized time ---\n%10s", "#requests");
  for (auto g : gpus) std::printf(" %10s", hw::gpu_spec(g).name.c_str());
  std::printf("\n");
  for (std::int64_t n : request_counts) {
    std::printf("%10lld", static_cast<long long>(n));
    Seconds a100 = kernel.dense_time(hw::gpu_spec(hw::GpuType::kA100_80G),
                                     model::mlp_work(m, n));
    for (auto g : gpus) {
      Seconds t = kernel.dense_time(hw::gpu_spec(g), model::mlp_work(m, n));
      std::printf(" %10.2f", t / a100);
    }
    std::printf("\n");
  }

  std::printf("\n--- (b) Attention, normalized time ---\n%10s", "#requests");
  for (auto g : gpus) std::printf(" %10s", hw::gpu_spec(g).name.c_str());
  std::printf("\n");
  for (std::int64_t n : request_counts) {
    std::vector<std::int64_t> ctxs(static_cast<std::size_t>(n), kSeqLen);
    std::printf("%10lld", static_cast<long long>(n));
    Seconds a100 = kernel.decode_attention_time(hw::gpu_spec(hw::GpuType::kA100_80G), m, ctxs,
                                                m.heads);
    for (auto g : gpus) {
      Seconds t = kernel.decode_attention_time(hw::gpu_spec(g), m, ctxs, m.heads);
      std::printf(" %10.2f", t / a100);
    }
    std::printf("\n");
  }

  std::printf("\n(absolute A100 times at 400 requests: MLP %.3f ms, Attention %.3f ms)\n",
              to_millis(kernel.dense_time(hw::gpu_spec(hw::GpuType::kA100_80G),
                                          model::mlp_work(m, 400))),
              to_millis(kernel.decode_attention_time(
                  hw::gpu_spec(hw::GpuType::kA100_80G), m,
                  std::vector<std::int64_t>(400, kSeqLen), m.heads)));
  return 0;
}
