// §7.4 "Modeling accuracy" reproduction: the Profiler's fit quality per
// device (Eq. 3, 8x8 grid) and per link (Eq. 4).  The paper reports up to
// 93.8% computation accuracy and 92.4-96.1% transfer accuracy.
#include <cstdio>

#include "common/cli.h"
#include "costmodel/profiler.h"
#include "hw/topology.h"
#include "model/llm.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_accuracy_profiler").parse(argc, argv);
  hw::Cluster cluster = hw::Cluster::paper_cluster();

  std::printf("=== Profiler modeling accuracy (paper §7.4) ===\n\n");
  for (const auto* m : {&model::opt_30b(), &model::llama_70b()}) {
    costmodel::Profiler profiler(cluster, *m);
    std::printf("--- model %s ---\n", m->name.c_str());
    std::printf("%-8s %14s %8s | per-device attention fit (Eq. 3)\n", "device", "accuracy",
                "R^2");
    for (hw::GpuType t :
         {hw::GpuType::kA100_80G, hw::GpuType::kRTX3090, hw::GpuType::kP100}) {
      int dev = cluster.devices_of_type(t).front();
      costmodel::DeviceProfile prof = profiler.profile_device(dev);
      std::printf("%-8s %13.1f%% %8.4f\n", hw::to_string(t), prof.attn_accuracy * 100,
                  prof.attn_r2);
    }
    // Transfer fits for representative links.
    costmodel::LinkProfile intra = profiler.profile_link(0, 1);
    costmodel::LinkProfile inter = profiler.profile_link(0, 8);
    std::printf("%-8s %13.1f%%          | transfer fit, intra-host (Eq. 4)\n", "PCIe",
                intra.transfer_accuracy * 100);
    std::printf("%-8s %13.1f%%          | transfer fit, inter-host (Eq. 4)\n", "LAN",
                inter.transfer_accuracy * 100);
    std::printf("\n");
  }
  std::printf("paper targets: computation up to 93.8%%, transfer 92.4-96.1%%\n");
  return 0;
}
