// PipelineInstance: the shared serving-instance implementation used by the
// static-parallelism baselines (HexGen, and both pools of Splitwise).
//
// Semantics:
//  * continuous batching: waiting queue + running batch; prefill-priority
//    iterations with a token budget (vLLM default policy).
//  * memory: per-stage KV accounting.  Stage k holds kv_per_token * layers_k
//    bytes per cached token of EVERY running request (token-wise, all-head
//    blocks, like vLLM).  Admission requires every stage to fit the prompt.
//  * iterations are serialized; iteration latency is the sum of stage
//    latencies (single batch in flight -- the standard PP decode model,
//    also what HexGen's cost model assumes).  A decode iteration is priced
//    from two running integers, the batch size and its context total
//    Σctx, so pricing is O(stages) whatever the batch.
//  * decode progress is lazy: each member of the running batch records the
//    decode-iteration count (epoch) at which it joined, and its generated
//    count is derived from the current epoch.  A min-heap of the epoch at
//    which each member emits its last token finds finishes.  A decode
//    iteration where nobody leaves costs O(stages); each victim or finish
//    adds a few binary searches (a finish also erases its index entry),
//    and the iteration one order-keeping compaction; a listening sink adds
//    one on_token per member.
//  * on out-of-memory during decode: LIFO recompute preemption (vLLM
//    §4.5): the latest-arrived running requests are dropped back to the
//    waiting queue and later re-prefill from scratch.  A LifoIndex keeps
//    the running batch sorted by (arrival, id), so each victim is its back
//    entry; one compaction then drops an iteration's victims and finished
//    requests together, keeping the survivors' order (the on_token order
//    sinks see).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
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

struct InstanceOptions {
  std::int64_t max_prefill_tokens = 8192;  // prefill-iteration token budget
  std::size_t max_batch = 256;             // decode batch cap
  bool decode_only = false;                // Splitwise decode pool: requests
                                           // arrive pre-filled
  bool prefill_only = false;               // Splitwise prefill pool
  bool defer_first_token = false;          // Splitwise: the first token is
                                           // only emitted decode-side, after
                                           // the KV migration lands
};

/// Inserts `lr` into an admission queue honoring per-tenant priorities
/// (higher first, id order within a class).  With empty `priorities` this
/// is plain FCFS -- push_back, or push_front when `requeue_front`
/// (preemption retry) -- byte-identical to the historical behavior.
void priority_enqueue(std::deque<LiveRequest>& queue, LiveRequest lr,
                      const std::vector<int>& priorities, bool requeue_front);

/// The priority of `lr` under `priorities` (0 for unknown tenants).
int tenant_priority(const std::vector<int>& priorities, const LiveRequest& lr);

/// The running batch in recompute-preemption order: entries sorted by
/// (arrival, id), so the LIFO victim -- the latest arrival, the highest id
/// on a tie -- is the back.  Each entry carries its request's join ticket,
/// which finds it in a batch kept in join (so ticket) order.
class LifoIndex {
 public:
  struct Entry {
    Seconds arrival = 0;
    workload::RequestId id = 0;
    std::uint64_t ticket = 0;
  };

  /// The index order: earlier arrival first, lower id on a tie.  Every
  /// entry not preceded by the last victim popped was popped before it.
  static bool precedes(Seconds arrival, workload::RequestId id, const Entry& e) {
    return arrival < e.arrival || (arrival == e.arrival && id < e.id);
  }

  /// O(log n + later arrivals): joins are mostly the latest arrivals.
  void insert(const Entry& e);
  /// Removes the entry of (arrival, id).  Precondition: present.
  void erase(Seconds arrival, workload::RequestId id);
  /// Removes and returns the victim.  Precondition: !empty().
  Entry pop_latest() {
    Entry e = entries_.back();
    entries_.pop_back();
    return e;
  }
  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;  // ascending (arrival, id)
};

/// Live state drained out of a retiring instance when the control plane
/// re-deploys an engine.  `fresh` requests never completed prefill here
/// (still waiting, or mid-prefill -- returned reset to generated = 0);
/// `live` requests are prefilled and carry their decode progress.  Both
/// are sorted by request id (arrival order).
struct DrainedRequests {
  std::vector<LiveRequest> fresh;
  std::vector<LiveRequest> live;
};

class PipelineInstance {
 public:
  /// `on_prefill_done`: Splitwise hook -- called instead of joining the
  /// local running batch when prefill_only is set.
  using PrefillHandoff = std::function<void(sim::Simulation&, const LiveRequest&)>;

  PipelineInstance(const ExecModel& exec, parallel::InstanceConfig cfg,
                   MetricsCollector& metrics, InstanceOptions opts);

  /// Enqueues a fresh request (will be prefilled here unless decode_only).
  void submit(sim::Simulation& sim, const workload::Request& r);

  /// Splitwise: enqueues an already-prefilled request with `context` cached
  /// tokens to decode here.  Returns false if the prompt can never fit.
  bool submit_prefilled(sim::Simulation& sim, const LiveRequest& lr);

  /// Splitwise migration protocol: the engine reserves space in the decode
  /// pool when a migration STARTS (so concurrent decode growth cannot
  /// steal it), then converts the reservation when the transfer lands.
  bool reserve_incoming(std::int64_t tokens);
  void submit_reserved(sim::Simulation& sim, const LiveRequest& lr);

  /// True if the decode pool currently has room for a request of `tokens`
  /// cached tokens (prompt + margin).  Splitwise uses this to gate
  /// migrations.
  bool has_room(std::int64_t tokens) const;

  void set_prefill_handoff(PrefillHandoff cb) { handoff_ = std::move(cb); }

  /// Installs per-tenant admission priorities (see priority_enqueue).
  /// Call before the first submit; empty keeps strict FCFS.
  void set_tenant_priorities(std::vector<int> priorities) {
    priorities_ = std::move(priorities);
  }

  /// Retires this instance for elastic reconfiguration: drains every live
  /// request out and turns all still-scheduled simulation events into
  /// no-ops (the engine keeps the retired instance alive until the run
  /// ends, so pending callbacks stay safe).  Idempotent only in the sense
  /// that a second call returns nothing.
  DrainedRequests retire();

  /// Splitwise: frees the prompt KV a handed-off request still occupies in
  /// the prefill pool (call when its migration to the decode pool ends).
  void release_prefilled(const LiveRequest& lr);

  bool idle() const { return inflight_ == 0 && waiting_.empty() && running_.empty(); }
  std::size_t running_count() const { return running_.size(); }
  std::size_t waiting_count() const { return waiting_.size(); }

  /// Total KV budget across stages (bytes).
  Bytes kv_capacity() const;
  /// Usable KV capacity: bounded by the tightest stage relative to its
  /// share of per-token bytes (a parameter-split deployment cannot fill
  /// other stages once one is exhausted -- the paper's Fig. 1b).
  Bytes usable_kv_capacity() const;
  Bytes kv_used() const;
  /// Used fraction of the tightest stage.
  double fill_fraction() const;

  const parallel::InstanceConfig& config() const { return cfg_; }

 private:
  // Pipelined issue model: consecutive iterations overlap across pipeline
  // stages (issue interval = slowest stage), except that a decode
  // iteration depends on the previous decode's state and therefore
  // serializes behind it.  Single-stage instances degenerate to strict
  // serialization.
  void kick(sim::Simulation& sim);     // alias of pump
  void pump(sim::Simulation& sim);     // decide + issue iterations
  void finish_prefill_iteration(sim::Simulation& sim, std::vector<LiveRequest> batch);
  void finish_decode_iteration(sim::Simulation& sim);

  bool admit(const LiveRequest& lr);              // reserve prompt memory
  void reserve_tokens(std::int64_t tokens);       // all stages
  void release_tokens(std::int64_t tokens);
  bool can_reserve(std::int64_t tokens) const;
  void join_running(const LiveRequest& lr);       // running_ + indexes + Σctx
  /// running_[slot]'s true decode progress, and the request carrying it.
  std::int64_t generated(std::size_t slot) const;
  LiveRequest current(std::size_t slot) const;
  /// The slot of the member holding `ticket`, or running_.size().
  std::size_t slot_of(std::uint64_t ticket) const;

  const ExecModel* exec_;
  parallel::InstanceConfig cfg_;
  MetricsCollector* metrics_;
  InstanceOptions opts_;

  std::deque<LiveRequest> waiting_;
  // The decode batch in join order (the on_token order sinks see).  Decode
  // progress is lazy: a member's true `generated` is its stored one plus
  // the decode iterations (epochs) completed since it joined, so an
  // iteration touches only the members that leave -- and, when a sink
  // listens, reads each member once for on_token.
  struct Member {
    std::uint64_t ticket = 0;  // unique, ascending in join order
    std::uint64_t joined = 0;  // epoch_ at join
  };
  std::vector<LiveRequest> running_;
  std::vector<Member> members_;  // parallel to running_
  std::uint64_t next_ticket_ = 0;
  std::uint64_t epoch_ = 0;      // decode iterations completed
  LifoIndex lifo_;               // preemption order
  // Min-heap of (epoch of the finishing token, ticket).  A preempted
  // member's entry goes stale and is dropped when it surfaces.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> due_;
  std::int64_t ctx_sum_ = 0;     // Σ context() over running_
  // Requests inside an in-flight prefill iteration: without this registry a
  // retire() could not hand them to the new deployment (the batch itself
  // lives in the scheduled completion lambda).  Unordered (retire() sorts
  // its output); bounded by max_batch x pipeline depth, so linear removal
  // beats node-based storage.
  std::vector<LiveRequest> prefilling_;
  std::vector<int> priorities_;    // per-tenant admission priorities
  bool retired_ = false;           // pending events become no-ops
  int inflight_ = 0;               // iterations currently in the pipeline
  bool decode_inflight_ = false;   // at most one decode at a time
  Seconds head_free_ = 0;          // when the first stage frees up
  Seconds decode_done_ = 0;        // completion of the last decode

  // Per-stage memory accounting.
  std::vector<Bytes> stage_cap_;
  std::vector<Bytes> stage_used_;
  std::vector<Bytes> per_token_;  // kv bytes per cached token, per stage

  // Hot-path scratch: the vectors below recycle their capacity across
  // iterations so the steady state allocates nothing.
  std::vector<std::int64_t> scratch_lens_;
  std::vector<std::size_t> scratch_gone_;  // an iteration's leaving slots
  IterationTime scratch_it_;
  std::vector<std::vector<LiveRequest>> batch_pool_;

  PrefillHandoff handoff_;
};

/// Parameter bytes resident on each device of a stage (layer shard / TP +
/// embedding share on the first and last pipeline stages).
Bytes stage_param_bytes_per_device(const model::ModelSpec& m, const parallel::StageConfig& s,
                                   bool first, bool last);

}  // namespace hetis::engine
