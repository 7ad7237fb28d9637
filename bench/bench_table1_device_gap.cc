// Table 1 reproduction: memory capacity and full-model iteration time of
// OPT-2.7B on A100 / 3090 / P100 (prefill batch 3 x 256-token prompts,
// decode batch 25 @ ctx 256).
//
// The calibration fractions in hw/gpu.cc were fitted against exactly this
// table; the bench verifies the reproduction and prints the ratios the
// paper quotes (prefill 2.45x / 24.5x, decode 1.47x / 7.93x vs A100).
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "costmodel/kernel_model.h"
#include "hw/gpu.h"
#include "model/llm.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_table1_device_gap").parse(argc, argv);
  costmodel::KernelModel kernel;
  const model::ModelSpec& m = model::opt_2_7b();

  const std::int64_t kPromptLen = 256;
  const std::int64_t kPrefillBatch = 3;
  const std::int64_t kDecodeBatch = 25;
  const std::int64_t kDecodeCtx = 256;

  struct Row {
    hw::GpuType type;
    double paper_prefill, paper_decode;  // seconds (Table 1)
  };
  const std::vector<Row> rows = {
      {hw::GpuType::kA100_80G, 0.060, 0.0097},
      {hw::GpuType::kRTX3090, 0.147, 0.0143},
      {hw::GpuType::kP100, 1.47, 0.077},
  };

  std::printf("=== Table 1: device memory and OPT-2.7B iteration time ===\n");
  std::printf("(prefill: batch %lld x %lld tokens; decode: batch %lld @ ctx %lld)\n\n",
              static_cast<long long>(kPrefillBatch), static_cast<long long>(kPromptLen),
              static_cast<long long>(kDecodeBatch), static_cast<long long>(kDecodeCtx));
  std::printf("%-8s %8s | %12s %12s | %12s %12s\n", "Device", "Mem(GB)", "prefill(s)",
              "paper(s)", "decode(s)", "paper(s)");

  std::vector<std::int64_t> prompt_lens(static_cast<std::size_t>(kPrefillBatch), kPromptLen);
  std::vector<std::int64_t> decode_ctxs(static_cast<std::size_t>(kDecodeBatch), kDecodeCtx);

  double a100_prefill = 0, a100_decode = 0;
  for (const Row& row : rows) {
    const hw::GpuSpec& gpu = hw::gpu_spec(row.type);
    Seconds prefill =
        (kernel.dense_layer_time(gpu, m, kPrefillBatch * kPromptLen) +
         kernel.prefill_attention_time(gpu, m, prompt_lens, m.heads)) *
        m.layers;
    Seconds decode = (kernel.dense_layer_time(gpu, m, kDecodeBatch) +
                      kernel.decode_attention_time(gpu, m, decode_ctxs, m.heads)) *
                     m.layers;
    if (row.type == hw::GpuType::kA100_80G) {
      a100_prefill = prefill;
      a100_decode = decode;
    }
    std::printf("%-8s %8.0f | %12.4f %12.4f | %12.5f %12.5f\n", gpu.name.c_str(),
                to_gib(gpu.memory), prefill, row.paper_prefill, decode, row.paper_decode);
  }

  std::printf("\nratios vs A100 (ours / paper):\n");
  for (const Row& row : rows) {
    if (row.type == hw::GpuType::kA100_80G) continue;
    const hw::GpuSpec& gpu = hw::gpu_spec(row.type);
    Seconds prefill =
        (kernel.dense_layer_time(gpu, m, kPrefillBatch * kPromptLen) +
         kernel.prefill_attention_time(gpu, m, prompt_lens, m.heads)) *
        m.layers;
    Seconds decode = (kernel.dense_layer_time(gpu, m, kDecodeBatch) +
                      kernel.decode_attention_time(gpu, m, decode_ctxs, m.heads)) *
                     m.layers;
    std::printf("  %-6s prefill %5.2fx / %5.2fx   decode %5.2fx / %5.2fx\n", gpu.name.c_str(),
                prefill / a100_prefill, row.paper_prefill / 0.060, decode / a100_decode,
                row.paper_decode / 0.0097);
  }
  return 0;
}
