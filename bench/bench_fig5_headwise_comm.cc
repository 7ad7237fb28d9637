// Fig. 5 reproduction: communication overhead of head-wise vs
// sequence-wise Attention splitting on Llama-70B over a 100 Gbps network.
//
//   (a) one Attention worker, offload ratio 20-80% of the heads
//   (b) 1-4 Attention workers, load evenly distributed
//
// Expected shape: head-wise wins everywhere (paper: ~2.7x at 20% offload,
// up to ~3.6x with 4 workers) because it moves only the offloaded heads'
// q/result chunks instead of replicating the full q vector per worker.
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "costmodel/comm_model.h"
#include "hw/topology.h"
#include "model/llm.h"

int main(int argc, char** argv) {
  using namespace hetis;
  cli::Parser("bench_fig5_headwise_comm").parse(argc, argv);
  hw::Cluster cluster = hw::Cluster::paper_cluster();
  costmodel::CommModel comm(cluster);
  const model::ModelSpec& m = model::llama_70b();

  const int primary = 0;                       // an A100
  const std::vector<int> workers{8, 9, 10, 11};  // the P100 host

  std::printf("=== Fig. 5: head-wise vs seq-wise Attention-offload overhead ===\n");
  std::printf("(Llama-70B, 100 Gbps LAN, per decode step, all layers)\n\n");

  std::printf("--- (a) one worker, varying offload ratio ---\n");
  std::printf("%10s %14s %14s %10s\n", "offload", "head-wise(ms)", "seq-wise(ms)", "ratio");
  for (double ratio : {0.2, 0.4, 0.6, 0.8}) {
    double heads = ratio * m.heads;
    Seconds head = comm.headwise_offload_time(m, primary, workers[0], heads);
    Seconds seq = comm.seqwise_offload_time(m, primary, {workers[0]});
    std::printf("%9.0f%% %14.3f %14.3f %9.2fx\n", ratio * 100, to_millis(head), to_millis(seq),
                seq / head);
  }

  std::printf("\n--- (b) even split across 1-4 workers ---\n");
  std::printf("%10s %14s %14s %10s\n", "#workers", "head-wise(ms)", "seq-wise(ms)", "ratio");
  for (std::size_t n = 1; n <= workers.size(); ++n) {
    std::vector<int> group(workers.begin(), workers.begin() + static_cast<std::ptrdiff_t>(n));
    // Head-wise: each worker receives heads/n of the request's heads; the
    // transfers fan out on distinct flows, so the slowest (equal) leg
    // bounds latency.
    double heads_per_worker = static_cast<double>(m.heads) / static_cast<double>(n);
    Seconds head = 0;
    for (int w : group) {
      head = std::max(head, comm.headwise_offload_time(m, primary, w, heads_per_worker));
    }
    Seconds seq = comm.seqwise_offload_time(m, primary, group);
    std::printf("%10zu %14.3f %14.3f %9.2fx\n", n, to_millis(head), to_millis(seq), seq / head);
  }
  return 0;
}
