// Serving metrics (paper §7: normalized latency, TTFT, TPOT, module-level
// latency, cache usage time series) and the per-request lifecycle observer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "workload/request.h"

namespace hetis::telemetry {
struct AuditRecord;
}

namespace hetis::engine {

/// One sample of the Fig. 14 time series.
struct UsageSample {
  Seconds time = 0;
  int device = -1;
  double cache_used_fraction = 0;  // of the device's KV budget
  double heads = 0;                // query heads resident
};

/// Streams per-request lifecycle events off the simulation clock while a
/// run is in flight -- the hook point for live dashboards, telemetry and
/// online autoscaling.  Every engine routes its lifecycle through the
/// MetricsCollector, which fans each event out to its attached sinks (see
/// MetricsCollector::attach); all sinks see the same event set.
///
/// Per request the event order is:
///   on_arrival <= on_prefill_start <= on_prefill_done <= on_token* <= on_finish
/// with on_preempt possible after prefill; a preempted request re-prefills,
/// so on_prefill_start/on_token restart but on_prefill_done fires only once
/// (the TTFT reference); each later prefill completion is on_reprefill_done.
/// The prefill-produced first token is signaled by on_prefill_done; on_token
/// covers decode-produced tokens only.
/// on_arrival's Request carries the workload tenant index, so observers can
/// attribute the whole lifecycle per tenant (see harness::tenant_summaries).
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  virtual void on_arrival(const workload::Request& r) { (void)r; }
  /// A prefill batch picked up `id` (fires again on re-prefills after
  /// preemption; a span-tracing observer sees every attempt).
  virtual void on_prefill_start(workload::RequestId id, Seconds t) {
    (void)id;
    (void)t;
  }
  virtual void on_prefill_done(workload::RequestId id, Seconds t) {
    (void)id;
    (void)t;
  }
  /// A prefill completion after the first (a re-prefill following a
  /// preemption or restart).
  virtual void on_reprefill_done(workload::RequestId id, Seconds t) {
    (void)id;
    (void)t;
  }
  virtual void on_token(workload::RequestId id, Seconds t, std::int64_t generated) {
    (void)id;
    (void)t;
    (void)generated;
  }
  virtual void on_finish(workload::RequestId id, Seconds t) {
    (void)id;
    (void)t;
  }
  virtual void on_preempt(workload::RequestId id, Seconds t) {
    (void)id;
    (void)t;
  }
  /// `id`'s KV cache is being hauled from `src_device` to `dst_device`;
  /// decode resumes on the destination at `ready`.
  virtual void on_migrate(workload::RequestId id, Seconds start, Seconds ready, int src_device,
                          int dst_device) {
    (void)id;
    (void)start;
    (void)ready;
    (void)src_device;
    (void)dst_device;
  }
  /// A periodic per-device occupancy sample (engines that record the
  /// Fig. 14 series forward each point here as well).
  virtual void on_usage(const UsageSample& s) { (void)s; }
  /// A control-plane decision (published by control::Controller).
  virtual void on_decision(const telemetry::AuditRecord& rec) { (void)rec; }
};

struct RequestRecord {
  workload::RequestId id = -1;
  Seconds arrival = 0;
  Seconds first_token = -1;  // prefill completion (TTFT reference)
  Seconds finish = -1;
  std::int64_t prompt_len = 0;
  std::int64_t output_len = 0;
  int tenant = 0;  // copied from the request; indexes the generating
                   // scenario's tenant list for per-tenant attribution
  int preemptions = 0;

  bool finished() const { return finish >= 0; }
  Seconds ttft() const { return first_token - arrival; }
  /// Time-per-output-token over the decode phase.
  Seconds tpot() const {
    if (output_len <= 1) return 0.0;
    return (finish - first_token) / static_cast<double>(output_len - 1);
  }
  /// The paper's normalized end-to-end latency (s/token).
  Seconds norm_latency() const {
    return (finish - arrival) / static_cast<double>(std::max<std::int64_t>(1, output_len));
  }
};

/// Aggregates per-request lifecycle events into RequestRecords.
///
/// Storage is a flat vector kept sorted by id plus a dense id->slot index,
/// so the million-request hot path pays an O(1) array lookup per lifecycle
/// event instead of a node-based map find.  Trace ids arrive in ascending
/// order (workload/trace.h assigns 0..n-1 in arrival order), so the sorted
/// invariant is maintained by plain push_back; out-of-order ids (hand-built
/// tests) take a one-off O(n) insertion.  records() therefore iterates in
/// ascending-id order -- the same order the previous std::map storage
/// produced -- which keeps every floating-point aggregate byte-identical.
class MetricsCollector {
 public:
  /// Appends `sink` (not owned) to the run-event bus; events fan out in
  /// attach order.  run_trace attaches RunOptions::observer, then
  /// Telemetry::attach and control::Controller::attach add themselves.
  void attach(RunObserver* sink) { sinks_.push_back(sink); }
  /// Detaches every sink (run_trace does this on every exit path).
  void detach_all() { sinks_.clear(); }
  const std::vector<RunObserver*>& sinks() const { return sinks_; }

  /// Publishes a control-plane decision to every sink.
  void on_decision(const telemetry::AuditRecord& rec) {
    for (RunObserver* s : sinks_) s->on_decision(rec);
  }

  /// Pre-sizes the record table (run_trace calls this with the trace
  /// length so million-request replays never re-grow it).
  void reserve(std::size_t n);

  /// Throws std::invalid_argument for an id outside [0, kDenseIdLimit)
  /// and std::logic_error for a repeated one.
  void on_arrival(const workload::Request& r);
  /// A prefill batch picked up `id`.  Feeds the sinks only -- the record
  /// table keys TTFT off prefill completion.
  void on_prefill_start(workload::RequestId id, Seconds t) {
    for (RunObserver* s : sinks_) s->on_prefill_start(id, t);
  }
  void on_first_token(workload::RequestId id, Seconds t);
  /// One decode-produced token appended for `id`; `generated` is the
  /// request's output-token count afterwards.  Feeds the sinks only.
  void on_token(workload::RequestId id, Seconds t, std::int64_t generated) {
    for (RunObserver* s : sinks_) s->on_token(id, t, generated);
  }
  void on_finish(workload::RequestId id, Seconds t);
  void on_preemption(workload::RequestId id, Seconds t);
  /// KV migration for `id` from `src_device` to `dst_device`, ready at
  /// `ready`.  Feeds the sinks only.
  void on_migrate(workload::RequestId id, Seconds start, Seconds ready, int src_device,
                  int dst_device) {
    for (RunObserver* s : sinks_) s->on_migrate(id, start, ready, src_device, dst_device);
  }

  /// Module-latency accounting (§7.3): per decode iteration, the max
  /// per-stage module time multiplied by the number of stages.
  void add_decode_module_sample(Seconds mlp_time, Seconds attn_time);

  void add_usage_sample(const UsageSample& s) {
    usage_.push_back(s);
    for (RunObserver* sink : sinks_) sink->on_usage(s);
  }

  // --- Aggregation ---
  std::size_t arrived() const { return records_.size(); }
  std::size_t finished() const { return finished_; }

  /// Normalized latency (s/token) over finished requests.
  Summary norm_latency() const;
  Summary ttft() const;
  Summary tpot() const;
  const Summary& mlp_module_time() const { return mlp_module_; }
  const Summary& attn_module_time() const { return attn_module_; }
  int total_preemptions() const { return total_preemptions_; }

  const std::vector<UsageSample>& usage_series() const { return usage_; }

  /// All records in ascending-id order (== arrival order for trace runs).
  const std::vector<RequestRecord>& records() const { return records_; }
  /// The record for `id`; throws std::out_of_range when unknown.
  const RequestRecord& record(workload::RequestId id) const;

 private:
  const RequestRecord* find(workload::RequestId id) const;
  RequestRecord* find(workload::RequestId id);
  void index_slot(workload::RequestId id, std::size_t slot);

  std::vector<RequestRecord> records_;  // sorted ascending by id
  /// slots_[id] is the index into records_ for 0 <= id < slots_.size()
  /// (-1 when absent); on_arrival admits no id outside [0, kDenseIdLimit).
  std::vector<std::int32_t> slots_;
  std::size_t finished_ = 0;
  int total_preemptions_ = 0;
  Summary mlp_module_;
  Summary attn_module_;
  std::vector<UsageSample> usage_;
  std::vector<RunObserver*> sinks_;
};

}  // namespace hetis::engine
