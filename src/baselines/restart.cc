#include "baselines/restart.h"

#include <algorithm>
#include <utility>

namespace hetis::baselines {

Seconds restart_dead_time(const hw::Cluster& cluster, const model::ModelSpec& model) {
  // One full model copy over the inter-host fabric: the dominant cost of
  // re-deploying a static layout (weights stream from the checkpoint /
  // neighbor hosts).  ~2 s for Llama-13B on the paper's 100 Gbps LAN.
  const hw::Link& lan = cluster.inter_host_link();
  return lan.transfer_time(model.param_bytes());
}

void CheckpointRestart::park(sim::Simulation& sim, engine::MetricsCollector& metrics,
                             std::vector<engine::LiveRequest> drained) {
  for (auto& lr : drained) {
    if (engine::restart_from_scratch(lr, metrics, sim.now())) ++stats_.restarted_requests;
  }
  pending_.insert(pending_.end(), drained.begin(), drained.end());
}

bool CheckpointRestart::park_arrival(const sim::Simulation& sim, const workload::Request& r) {
  if (sim.now() >= ready_at_) return false;
  engine::LiveRequest lr;
  lr.req = r;
  pending_.push_back(std::move(lr));
  return true;
}

void CheckpointRestart::begin_restart(sim::Simulation& sim, Seconds dead, Resubmit resubmit) {
  const int epoch = ++epoch_;
  const Seconds new_ready = sim.now() + dead;
  stats_.restart_dead_time += new_ready - std::max(ready_at_, sim.now());
  ready_at_ = new_ready;
  ++stats_.reconfigurations;
  sim.schedule_at(ready_at_, [this, &sim, epoch, resubmit = std::move(resubmit)] {
    if (stale(epoch)) return;  // superseded by a newer restart
    auto backlog = std::move(pending_);  // leaves pending_ empty
    std::sort(backlog.begin(), backlog.end(), engine::id_order);
    for (const auto& lr : backlog) resubmit(sim, lr.req);
  });
}

}  // namespace hetis::baselines
