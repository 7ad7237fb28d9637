// BatchingLoop: the continuous-batching loop every serving instance runs --
// PipelineInstance (HexGen, both Splitwise pools) and HetisInstance alike,
// so a Hetis-vs-baseline comparison differs only in what Hetis contributes
// (where decode attention runs), never in how requests are batched.
//
// The loop owns the waiting queue, prefill admission and issue, the
// registry of requests inside an in-flight prefill, the pipelined issue
// clock and the retired-event guards:
//  * prefill priority (vLLM's default policy): waiting prompts are admitted
//    in queue order under a token budget (max_prefill_tokens) and a batch
//    cap (max_batch, running requests included); the first prompt that does
//    not fit ends the batch;
//  * consecutive iterations overlap across pipeline stages (issue interval
//    = slowest stage), up to max(1, stages) in flight, except that a decode
//    iteration depends on the previous decode's state and serializes behind
//    it -- at most one decode is in flight.  Single-stage instances
//    degenerate to strict serialization.
//
// An instance supplies what really differs through six hooks: how a
// request's memory is reserved (admit), how many requests are decoding
// (running), how a decode iteration is priced (plan_decode) and committed
// (finish_decode_batch), what a finished prefill does (prefilled), and how
// its decode state drains on retire (drain_running).  The hooks run per
// request or per iteration, never per token.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "engine/exec.h"
#include "engine/metrics.h"
#include "parallel/plan.h"
#include "sim/simulation.h"
#include "workload/request.h"

namespace hetis::engine {

struct LiveRequest {
  workload::Request req;
  std::int64_t generated = 0;
  bool prefilled = false;

  std::int64_t context() const { return req.prompt_len + generated; }
  bool done() const { return generated >= req.output_len; }
};

/// Request-id (arrival) order.
inline bool id_order(const LiveRequest& a, const LiveRequest& b) { return a.req.id < b.req.id; }

struct InstanceOptions {
  std::int64_t max_prefill_tokens = 8192;  // prefill-iteration token budget
  std::size_t max_batch = 256;             // decode batch cap
};

/// Inserts `lr` into an admission queue honoring per-tenant priorities
/// (higher first, id order within a class).  With empty `priorities` this
/// is plain FCFS -- push_back, or push_front when `requeue_front`
/// (preemption retry) -- byte-identical to the historical behavior.
void priority_enqueue(std::deque<LiveRequest>& queue, LiveRequest lr,
                      const std::vector<int>& priorities, bool requeue_front);

/// A recompute restart: `lr` drops its progress and re-prefills from
/// scratch wherever it is queued next.  A request that had progress
/// reports the loss as a preemption on `metrics` at `now`; returns whether
/// it had any.
bool restart_from_scratch(LiveRequest& lr, MetricsCollector& metrics, Seconds now);

class BatchingLoop {
 public:
  BatchingLoop(const BatchingLoop&) = delete;
  BatchingLoop& operator=(const BatchingLoop&) = delete;

  /// Enqueues a fresh request.
  void submit(sim::Simulation& sim, const workload::Request& r);
  /// Enqueues an unprefilled request carried over from a retired
  /// deployment (no arrival recording; keeps the original request state).
  void enqueue(sim::Simulation& sim, LiveRequest lr);

  /// Installs per-tenant admission priorities (see priority_enqueue).
  /// Call before the first submit; empty keeps strict FCFS.
  void set_tenant_priorities(std::vector<int> priorities) {
    priorities_ = std::move(priorities);
  }

  /// Retires this instance for elastic reconfiguration: appends every
  /// request it holds to `out`, unsorted but for drain_running's id-ordered
  /// slice, and turns all still-scheduled simulation events into no-ops
  /// (the engine keeps the retired instance alive until the run ends).  A
  /// drained request is live, with its decode progress, exactly when it is
  /// prefilled.  A second call appends nothing.
  void retire(std::vector<LiveRequest>& out);

  bool idle() const { return inflight_ == 0 && waiting_.empty() && running() == 0; }

 protected:
  /// A decode iteration's end-to-end latency and the pipeline issue
  /// interval it occupies.
  struct DecodeStep {
    Seconds latency = 0;
    Seconds interval = 0;
  };

  BatchingLoop(const ExecModel& exec, parallel::InstanceConfig cfg, MetricsCollector& metrics,
               InstanceOptions opts)
      : exec_(&exec), cfg_(std::move(cfg)), metrics_(&metrics), opts_(opts) {}
  ~BatchingLoop() = default;

  /// Reserves `lr`'s prompt memory (plus its first token) for admission;
  /// false ends the prefill batch.
  virtual bool admit(sim::Simulation& sim, const LiveRequest& lr) = 0;
  /// Requests holding a decode slot (counted against max_batch).
  virtual std::size_t running() const = 0;
  /// Prices the next decode iteration into `step`; false when nothing can
  /// decode now.
  virtual bool plan_decode(sim::Simulation& sim, DecodeStep& step) = 0;
  /// Commits a completed decode iteration (tokens, finishes, memory).
  virtual void finish_decode_batch(sim::Simulation& sim) = 0;
  /// A request whose prefill completed: `lr` is prefilled with its first
  /// token generated.
  virtual void prefilled(sim::Simulation& sim, LiveRequest& lr) = 0;
  /// Appends every decoding request, with its true progress, to `live` in
  /// id order and clears the decode state.
  virtual void drain_running(std::vector<LiveRequest>& live) = 0;

  /// Issues iterations while the pipeline has room.
  void pump(sim::Simulation& sim);
  /// Re-queues a recompute-preempted request ahead of its class.
  void requeue_preempted(LiveRequest lr) {
    priority_enqueue(waiting_, std::move(lr), priorities_, /*requeue_front=*/true);
  }

  const ExecModel* exec_;
  parallel::InstanceConfig cfg_;
  MetricsCollector* metrics_;
  IterationTime scratch_it_;  // pricing scratch (prefill here, decode hooks)

 private:
  void finish_prefill(sim::Simulation& sim, std::vector<LiveRequest> batch);
  void finish_decode(sim::Simulation& sim);

  InstanceOptions opts_;
  std::deque<LiveRequest> waiting_;
  // Requests inside an in-flight prefill iteration: without this registry a
  // retire() could not hand them to the new deployment (the batch itself
  // lives in the scheduled completion lambda).  Unordered; bounded by
  // max_batch x pipeline depth, so linear removal beats node-based storage.
  std::vector<LiveRequest> prefilling_;
  std::vector<int> priorities_;    // per-tenant admission priorities
  bool retired_ = false;           // pending events become no-ops
  int inflight_ = 0;               // iterations currently in the pipeline
  bool decode_inflight_ = false;   // at most one decode at a time
  Seconds head_free_ = 0;          // when the first stage frees up

  // Hot-path scratch: recycled capacity, so steady-state prefills
  // allocate nothing.
  std::vector<std::int64_t> scratch_lens_;
  std::vector<std::vector<LiveRequest>> batch_pool_;
};

}  // namespace hetis::engine
