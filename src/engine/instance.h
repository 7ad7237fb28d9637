// PipelineInstance: the shared serving-instance implementation used by the
// static-parallelism baselines (HexGen, and both pools of Splitwise).
//
// Semantics:
//  * continuous batching: engine::BatchingLoop (engine/batching.h) owns the
//    waiting queue, prefill admission and the pipelined issue clock; this
//    class supplies memory admission, decode pricing and decode progress.
//  * memory: per-stage KV accounting.  Stage k holds kv_per_token * layers_k
//    bytes per cached token of EVERY running request (token-wise, all-head
//    blocks, like vLLM).  Admission requires every stage to fit the prompt.
//  * iteration latency is the sum of stage latencies (the standard PP
//    decode model, also what HexGen's cost model assumes).  A decode
//    iteration is priced from two running integers, the batch size and its
//    context total Σctx, so pricing is O(stages) whatever the batch.
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
#include <functional>
#include <utility>
#include <vector>

#include "engine/batching.h"

namespace hetis::engine {

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

class PipelineInstance final : public BatchingLoop {
 public:
  /// Splitwise's prefill pool: called for every completed prefill instead
  /// of joining the local running batch (see set_prefill_handoff).
  using PrefillHandoff = std::function<void(sim::Simulation&, const LiveRequest&)>;

  PipelineInstance(const ExecModel& exec, parallel::InstanceConfig cfg,
                   MetricsCollector& metrics, InstanceOptions opts);

  /// Splitwise migration protocol: the engine reserves space in the decode
  /// pool when a migration STARTS (so concurrent decode growth cannot
  /// steal it), then converts the reservation when the transfer lands.
  bool reserve_incoming(std::int64_t tokens);
  void submit_reserved(sim::Simulation& sim, const LiveRequest& lr);

  /// True if the decode pool currently has room for a request of `tokens`
  /// cached tokens (prompt + margin).  Splitwise uses this to gate
  /// migrations.
  bool has_room(std::int64_t tokens) const;

  /// Makes this a prefill-only pool: every completed prefill goes to `cb`
  /// (which owns the request from then on, its prompt KV still held here)
  /// and its first token is left for the decode side to emit.
  void set_prefill_handoff(PrefillHandoff cb) { handoff_ = std::move(cb); }

  /// Splitwise: frees the prompt KV a handed-off request still occupies in
  /// the prefill pool (call when its migration to the decode pool ends).
  void release_prefilled(const LiveRequest& lr);

  /// Total KV budget across stages (bytes).
  Bytes kv_capacity() const;
  /// Usable KV capacity: bounded by the tightest stage relative to its
  /// share of per-token bytes (a parameter-split deployment cannot fill
  /// other stages once one is exhausted -- the paper's Fig. 1b).
  Bytes usable_kv_capacity() const;
  Bytes kv_used() const;
  /// Used fraction of the tightest stage.
  double fill_fraction() const;

 private:
  bool admit(sim::Simulation& sim, const LiveRequest& lr) override;
  std::size_t running() const override { return running_.size(); }
  bool plan_decode(sim::Simulation& sim, DecodeStep& step) override;
  void finish_decode_batch(sim::Simulation& sim) override;
  void prefilled(sim::Simulation& sim, LiveRequest& lr) override;
  void drain_running(std::vector<LiveRequest>& live) override;

  void reserve_tokens(std::int64_t tokens);       // all stages
  void release_tokens(std::int64_t tokens);
  bool can_reserve(std::int64_t tokens) const;
  void join_running(const LiveRequest& lr);       // running_ + indexes + Σctx
  /// running_[slot]'s true decode progress, and the request carrying it.
  std::int64_t generated(std::size_t slot) const;
  LiveRequest current(std::size_t slot) const;
  /// The slot of the member holding `ticket`, or running_.size().
  std::size_t slot_of(std::uint64_t ticket) const;

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

  // Per-stage memory accounting.
  std::vector<Bytes> stage_cap_;
  std::vector<Bytes> stage_used_;
  std::vector<Bytes> per_token_;  // kv bytes per cached token, per stage

  std::vector<std::size_t> scratch_gone_;  // an iteration's leaving slots
  PrefillHandoff handoff_;
};

/// Parameter bytes resident on each device of a stage (layer shard / TP +
/// embedding share on the first and last pipeline stages).
Bytes stage_param_bytes_per_device(const model::ModelSpec& m, const parallel::StageConfig& s,
                                   bool first, bool last);

}  // namespace hetis::engine
