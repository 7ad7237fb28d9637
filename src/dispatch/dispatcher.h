// The Dispatcher (paper §5): dynamic head-wise dispatching, re-dispatching
// and device-local eviction for one Hetis serving instance.
//
// Logical-device model.  Attention placement decisions see:
//   * the PRIMARY side: every pipeline stage's TP group.  Heads NOT
//     offloaded ("local" heads) are computed by whichever stage owns the
//     current layer, so a request's local head count is the same on every
//     stage; the LP therefore treats the primary side as one merged
//     logical device whose time coefficients come from the slowest stage
//     and whose free memory is the tightest stage's (per-layer units).
//   * each pooled Attention worker as an individual device with its own
//     fitted tau (Eq. 3) and transfer rho (Eq. 4) models.
//
// Time model.  All f_i are per-layer quantities; the decode-iteration
// attention latency is sum_k layers_k * max(tau_stage_k, max_w f_w), which
// instantiates the paper's objective (Eq. 7a) at the iteration level.
//
// Memory model.  All quantities in bytes.  One query head of a request
// with context l holds l * bph bytes per layer, bph = 2*head_dim*dtype/r;
// a stage hosts its layer slab for local heads, a worker hosts all L
// layers for its offloaded heads.
//
// Placement.  Admission, re-dispatch and rescue each place ONE request:
// lp::solve_one solves its Eq. 7 exactly and lp::round_to_groups rounds
// the optimum to whole head groups inside each device's memory.  The
// greedy waterfill takes over on non-finite input and under
// use_lp = false, and computes f* over all requests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "costmodel/attention_model.h"
#include "lp/minmax.h"
#include "workload/request.h"

namespace hetis::dispatch {

struct StageDesc {
  std::vector<int> devices;  // physical ids (TP group)
  int layers = 0;
  costmodel::AttnParams attn;  // per-physical-device Eq. 3 fit
  Bytes capacity = 0;          // KV byte budget across the group
};

struct WorkerDesc {
  int device = -1;
  costmodel::AttnParams attn;
  costmodel::TransferParams transfer;  // to the slowest-link primary
  Bytes capacity = 0;
};

struct DispatcherConfig {
  std::vector<StageDesc> stages;
  std::vector<WorkerDesc> workers;
  int heads = 0;       // H: query heads per request
  int group_size = 1;  // r: GQA ratio (head-group granularity)
  double bytes_per_head_token_layer = 0;  // bph
  int total_layers = 0;
  double theta = 0.5;  // re-dispatch trigger threshold (paper default)
  bool use_lp = true;  // false = greedy waterfilling only (ablation)
};

/// Per-request head placement: local (primary) heads + per-worker heads.
struct PlacementCounts {
  int local = 0;
  std::vector<int> worker_heads;

  int total() const;
};

/// A planned placement change for one request (re-dispatch or rescue).
struct Rebalance {
  workload::RequestId victim = -1;
  PlacementCounts from;
  PlacementCounts to;
  double moved_heads = 0;
  Bytes moved_bytes = 0;
  int src_device = -1;  // representative hauler endpoints
  int dst_device = -1;
  bool valid = false;
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatcherConfig cfg);

  // --- Request lifecycle ---

  /// Dispatches one new request with `ctx` tokens of context (Eq. 7).  On
  /// success registers it and returns its placement; returns nullopt when
  /// the instance cannot host it (caller keeps waiting).  Throws
  /// std::logic_error if a solve ever yields an impossible placement.
  std::optional<PlacementCounts> dispatch(workload::RequestId id, std::int64_t ctx, Seconds now);

  /// Grows each listed request's context by one token (Eq. 8 state update)
  /// for one decode iteration's survivors.  `ids` must be strictly
  /// ascending (the engine's decode batches are built in id order); the
  /// whole batch is applied with one forward walk of the id-sorted request
  /// table.  Throws std::out_of_range on any unknown id.
  void append_tokens(const std::vector<workload::RequestId>& ids);

  /// Removes a finished/preempted request and frees its accounting.
  void remove(workload::RequestId id);

  bool contains(workload::RequestId id) const { return find(id) != nullptr; }
  std::size_t size() const { return requests_.size(); }
  const PlacementCounts& placement(workload::RequestId id) const;
  std::int64_t context(workload::RequestId id) const;

  // --- Time model ---

  /// Per-layer attention+transfer time of logical device i right now.
  Seconds device_time(std::size_t logical) const;
  /// Decode-iteration attention latency: sum_k layers_k * max(tau_k, W).
  Seconds attention_iteration_time() const;
  /// max_i f_i (the per-layer bottleneck; re-dispatch trigger input).
  Seconds worst_per_layer() const;
  /// f*: ideal per-layer time if ALL requests were re-dispatched onto the
  /// empty cluster under per-device memory, capped by the present
  /// bottleneck.  Computed by the greedy waterfill, not the relaxed LP:
  /// an approximation of §5.3.1, whose LP relaxes memory to one
  /// cluster-wide row that the waterfill does not model.
  Seconds ideal_per_layer() const;

  // --- Re-dispatching (§5.3) ---

  /// True when worst exceeds (1 + theta) * ideal.  Returns false without
  /// running the waterfill when a lower bound on its makespan already
  /// proves the trigger cannot fire (see waterfill_cannot_fire).
  bool should_rebalance() const;
  /// Plans moving the dominant request off the bottleneck device (§5.3.1).
  Rebalance plan_rebalance() const;
  /// Plans re-dispatching `victim` to relieve memory pressure (§5.3.2).
  Rebalance plan_rescue(workload::RequestId victim) const;
  /// Commits a planned rebalance (memory accounting moves immediately; the
  /// engine suspends the victim until the Hauler transfer lands).  Throws
  /// std::logic_error unless `rb` is valid and `rb.to` is a possible
  /// placement: per-device counts in [0, H], multiples of r, one per
  /// worker, summing to H.
  void apply(const Rebalance& rb);

  // --- Memory state ---

  /// Logical device with the highest used/capacity ratio above 1, if any.
  std::optional<std::size_t> first_overflowed() const;
  /// Modified-LIFO victim: latest-arrival request holding cache on the
  /// given logical device (§5.3.2); -1 when none.
  workload::RequestId evict_candidate_on(std::size_t logical) const;
  /// True when the cluster still has spare cache overall.
  bool has_global_spare() const;

  Bytes device_capacity(std::size_t logical) const;
  Bytes device_used(std::size_t logical) const;
  std::size_t num_logical() const { return 1 + cfg_.workers.size(); }

  // --- Introspection (Fig. 14) ---

  /// Total query heads resident on a physical device.
  double physical_heads(int device) const;
  /// Cache fill fraction of a physical device's budget.
  double physical_cache_fraction(int device) const;

  const DispatcherConfig& config() const { return cfg_; }

  /// Dispatch solves run so far: one per exact one-request LP solve and
  /// one per greedy waterfill actually run (admission, re-dispatch and f*
  /// probes alike; a trigger check settled by the bound runs none).
  std::uint64_t lp_solves() const { return lp_solves_; }

 private:
  struct ReqState {
    workload::RequestId id = -1;
    std::int64_t ctx = 0;
    Seconds arrival = 0;
    PlacementCounts counts;
  };
  using Table = std::vector<ReqState>;

  /// First entry of requests_ with id >= `id`.
  Table::iterator lower_bound(workload::RequestId id);
  /// The entry for `id`, or nullptr.
  const ReqState* find(workload::RequestId id) const;

  /// Sums of integer head and head x token counts over requests.  Kept as
  /// exact int64 running totals; readers convert to double, which gives
  /// the same bits as summing the per-request products in doubles (every
  /// partial sum is an integer far below 2^53).
  struct Aggregates {
    explicit Aggregates(std::size_t workers = 0)
        : worker_heads(workers, 0), worker_head_tokens(workers, 0) {}
    std::int64_t local_heads = 0;
    std::int64_t local_head_tokens = 0;  // sum over requests of local*ctx
    std::vector<std::int64_t> worker_heads;
    std::vector<std::int64_t> worker_head_tokens;
  };
  /// Adds (sign +1) or subtracts (sign -1) one request's share of `agg`.
  void accumulate(Aggregates& agg, const ReqState& st, std::int64_t sign) const;
  /// Grows one request's context by a token, keeping agg_ in step.
  void grow(ReqState& st);

  /// Builds the min-max problem for one request with `ctx` tokens of
  /// context given current state, excluding `exclude` (for single-request
  /// re-dispatch).  Fills the reusable prob_ buffer in place (every field
  /// assigned); the reference is valid until the next build_problem call.
  const lp::MinMaxProblem& build_problem(std::int64_t ctx, workload::RequestId exclude) const;

  /// Throws std::logic_error (naming `who`) unless `pc` is a possible
  /// placement of one request.
  void check_counts(const PlacementCounts& pc, const char* who) const;

  /// Writes the device-side rows (base_time / head_cost / cache_cost /
  /// mem_free, plus group_size) for the given aggregates into `p`.  Shared
  /// by build_problem and the ideal_per_layer base (whose rows use all-zero
  /// aggregates and therefore depend only on the immutable config).
  void fill_device_rows(const Aggregates& agg, lp::MinMaxProblem& p) const;

  /// Per-layer tau of stage k under given local aggregates.
  Seconds stage_time(std::size_t k, double local_heads, double local_head_tokens) const;
  /// Per-layer f of worker w under given aggregates.
  Seconds worker_time(std::size_t w, double heads, double head_tokens) const;

  /// Index of the stage with the largest per-layer time (LP coefficients).
  std::size_t bottleneck_stage(double local_heads, double local_head_tokens) const;

  Rebalance plan_single(workload::RequestId victim) const;

  /// ideal_per_layer's problem with its device rows filled: the rows of the
  /// empty cluster, which depend only on the immutable config and are
  /// therefore computed once.  The request columns are the caller's.
  lp::MinMaxProblem& ideal_problem() const;

  /// Certified skip for should_rebalance: true only when the trigger
  /// provably cannot fire at bottleneck `worst`.  One pass over the request
  /// table yields (a) a weak-duality lower bound L on the waterfill's
  /// makespan and (b) a memory certificate that the waterfill places every
  /// head (a waterfill that stops short reports a LOWER makespan, so (a)
  /// alone would be unsound).  Conservative: false whenever in doubt.
  bool waterfill_cannot_fire(Seconds worst) const;

  /// Integral placement of the one request in `p` into `out`: the exact
  /// LP optimum rounded to head groups when use_lp and the LP solves, else
  /// the greedy waterfill.  False when not every head could be placed.
  bool place(const lp::MinMaxProblem& p, PlacementCounts& out) const;
  /// Greedy waterfill of `p` into greedy_heads_.
  const std::vector<std::vector<int>>& greedy(const lp::MinMaxProblem& p) const;

  DispatcherConfig cfg_;
  // Sorted by id, like HetisInstance::running_: the decode batch appends
  // walk it front to back over contiguous memory, and id order is the
  // order every planning pass (and hence every waterfill) consumes.
  Table requests_;
  double bph_ = 0;  // bytes per head-token per layer

  Aggregates agg_;  // running totals over requests_

  // Hot-path scratch: recycled buffers that keep only their capacity
  // across calls, never values.  Mutable because the planning accessors are
  // logically const; the Dispatcher is single-threaded like the rest of the
  // simulator.
  mutable Aggregates agg_scratch_;       // exclude-adjusted copy (plan_single)
  mutable lp::MinMaxProblem prob_;       // build_problem's reusable buffer
  mutable lp::MinMaxProblem ideal_prob_; // ideal_per_layer's reusable buffer
  mutable bool ideal_base_ready_ = false;
  mutable std::vector<double> bound_coef_;  // waterfill_cannot_fire's duals
  mutable std::vector<std::vector<int>> greedy_heads_;
  mutable std::vector<double> greedy_load_;
  mutable std::vector<double> greedy_mem_;
  mutable std::uint64_t lp_solves_ = 0;
};

}  // namespace hetis::dispatch
