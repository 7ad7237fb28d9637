// Checkpoint-and-restart bookkeeping shared by the static-parallelism
// baselines (Splitwise, HexGen).
//
// A static layout cannot absorb a device-set change online: the engine
// tears its pools down, reloads the model onto the new deployment (a dead
// window of restart_dead_time), and every in-flight request re-prefills.
// This helper owns the shared mechanics so the two engines cannot drift:
// the backlog of parked requests, the epoch counter that invalidates stale
// scheduled callbacks, the overlapping-dead-window accounting, and the
// flush that re-submits the backlog in id order once the reload lands.
#pragma once

#include <functional>
#include <vector>

#include "engine/instance.h"
#include "engine/metrics.h"
#include "engine/reconfigurable.h"
#include "hw/topology.h"
#include "model/llm.h"
#include "sim/simulation.h"

namespace hetis::baselines {

/// Model-reload window of a restarted deployment: one full model copy
/// over the inter-host fabric (~2 s for Llama-13B on the paper's LAN).
Seconds restart_dead_time(const hw::Cluster& cluster, const model::ModelSpec& model);

class CheckpointRestart {
 public:
  using Resubmit = std::function<void(sim::Simulation&, const workload::Request&)>;

  int epoch() const { return epoch_; }
  bool stale(int epoch) const { return epoch != epoch_; }

  /// Parks a re-deploy's whole drain for the next flush.  Requests with
  /// progress lose it (engine::restart_from_scratch, in `drained` order),
  /// counted in the stats.
  void park(sim::Simulation& sim, engine::MetricsCollector& metrics,
            std::vector<engine::LiveRequest> drained);

  /// Parks a fresh arrival when it lands inside the reload window (the
  /// pending flush will submit it); returns false -- serve normally --
  /// otherwise.
  bool park_arrival(const sim::Simulation& sim, const workload::Request& r);

  /// Opens a `dead`-second reload window at sim.now() and schedules the
  /// flush that re-submits every parked request through `resubmit`.
  /// Callbacks holding the previous epoch (migrations, an older flush)
  /// become no-ops: overlapping windows only extend the pause (charged as
  /// the extension) and the newest flush carries the whole backlog.
  void begin_restart(sim::Simulation& sim, Seconds dead, Resubmit resubmit);

  const engine::ReconfigStats& stats() const { return stats_; }

 private:
  // Unordered until the flush sorts it by id.  A drained request is parked
  // once: the restarted deployment holds none of them until the flush.
  std::vector<engine::LiveRequest> pending_;
  engine::ReconfigStats stats_;
  int epoch_ = 0;
  Seconds ready_at_ = 0;  // serving resumes at this sim time
};

}  // namespace hetis::baselines
