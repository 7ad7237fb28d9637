// Communication cost model (alpha-beta) for point-to-point transfers,
// ring collectives, and the head-wise vs sequence-wise Attention-offload
// traffic comparison of the paper's Fig. 5.
#pragma once

#include <vector>

#include "hw/topology.h"
#include "model/llm.h"

namespace hetis::costmodel {

class CommModel {
 public:
  explicit CommModel(const hw::Cluster& cluster) : cluster_(&cluster) {}

  /// Point-to-point transfer time between two devices.
  Seconds p2p(int src, int dst, Bytes bytes) const;

  /// Ring all-reduce across `group` (device ids): standard
  /// 2(n-1)/n * bytes over the slowest link + 2(n-1) latencies.
  Seconds allreduce(const std::vector<int>& group, Bytes bytes) const;

  /// Slowest (min-bandwidth / max-latency) link among all pairs in group.
  hw::Link bottleneck_link(const std::vector<int>& group) const;

  // --- Attention-offload traffic (per decode iteration, per layer) ---

  /// HEAD-wise split (Hetis, Eq. d_i = (2 + 2/r) * h_i * head_dim * dtype):
  /// only the offloaded heads' q chunks travel out and their attention
  /// results travel back (factor 2), plus the new token's K/V shares
  /// (factor 2/r).
  static Bytes headwise_bytes_per_token(const model::ModelSpec& m, double offloaded_heads);

  /// Transfer time for offloading `offloaded_heads` query heads of one
  /// request from `primary` to `worker` for one decode step, all layers.
  Seconds headwise_offload_time(const model::ModelSpec& m, int primary, int worker,
                                double offloaded_heads) const;

  /// Same for a SEQUENCE-wise split across `workers`: every worker holding
  /// a slice of the sequence needs the FULL q vector (all H heads) and
  /// returns a full-width partial result plus softmax stats; the new
  /// token's K/V goes to one worker.  The sends contend on the primary's
  /// NIC, modeled by serializing them.
  Seconds seqwise_offload_time(const model::ModelSpec& m, int primary,
                               const std::vector<int>& workers) const;

 private:
  const hw::Cluster* cluster_;
};

}  // namespace hetis::costmodel
