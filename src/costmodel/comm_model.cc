#include "costmodel/comm_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hetis::costmodel {

Seconds CommModel::p2p(int src, int dst, Bytes bytes) const {
  if (src == dst || bytes <= 0) return 0.0;
  return cluster_->link(src, dst).transfer_time(bytes);
}

hw::Link CommModel::bottleneck_link(const std::vector<int>& group) const {
  hw::Link worst{0.0, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      hw::Link l = cluster_->link(group[i], group[j]);
      worst.latency = std::max(worst.latency, l.latency);
      worst.bandwidth = std::min(worst.bandwidth, l.bandwidth);
    }
  }
  return worst;
}

Seconds CommModel::allreduce(const std::vector<int>& group, Bytes bytes) const {
  const auto n = static_cast<double>(group.size());
  if (group.size() <= 1 || bytes <= 0) return 0.0;
  hw::Link l = bottleneck_link(group);
  return 2.0 * (n - 1.0) * l.latency +
         2.0 * (n - 1.0) / n * static_cast<double>(bytes) / l.bandwidth;
}

Bytes CommModel::headwise_bytes_per_token(const model::ModelSpec& m, double offloaded_heads) {
  if (offloaded_heads <= 0) return 0;
  const double r = m.gqa_ratio();
  const double per_head = static_cast<double>(m.head_dim()) * m.dtype_bytes;
  // (2 + 2/r) * h_i * head_dim * dtype  -- q out + result back + K,V shares.
  return static_cast<Bytes>((2.0 + 2.0 / r) * offloaded_heads * per_head);
}

Seconds CommModel::headwise_offload_time(const model::ModelSpec& m, int primary, int worker,
                                         double offloaded_heads) const {
  if (offloaded_heads <= 0) return 0.0;
  Bytes per_layer = headwise_bytes_per_token(m, offloaded_heads);
  // Transfers for all layers of one decode step are batched into a single
  // message pair in practice (NCCL group), so pay latency once per
  // direction and bandwidth for the full volume.
  hw::Link l = cluster_->link(primary, worker);
  return 2.0 * l.latency +
         static_cast<double>(per_layer) * m.layers / l.bandwidth;
}

Seconds CommModel::seqwise_offload_time(const model::ModelSpec& m, int primary,
                                        const std::vector<int>& workers) const {
  if (workers.empty()) return 0.0;
  // The primary serializes the q broadcasts on its NIC; the gathers arrive
  // back over the same bottleneck.  Volume per worker is the full q width;
  // the fresh token's K/V additionally lands on exactly one worker.
  const double full_q = static_cast<double>(m.heads) * m.head_dim() * m.dtype_bytes;
  const double kv_new = 2.0 / m.gqa_ratio() * full_q;
  Seconds total = 0.0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    hw::Link l = cluster_->link(primary, workers[i]);
    double vol = 2.0 * full_q * m.layers;
    if (i == 0) vol += kv_new * m.layers;
    total += 2.0 * l.latency + vol / l.bandwidth;
  }
  return total;
}

}  // namespace hetis::costmodel
