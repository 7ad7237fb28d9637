// TraceRecorder: the raw event sink behind per-request span tracing.
//
// Stores per-request lifecycle spans (queue / prefill / decode / preempted /
// migrate intervals on one track per request) and per-device occupancy
// counter curves as POD rows in chunked arenas: a push is a bump into a
// fixed-size chunk, existing rows are never reallocated or copied, and the
// recorder only exists while tracing is on -- with no sink attached the
// serving hot path pays one empty-list check (see MetricsCollector).  Export renders
// Chrome `trace_event` JSON that loads directly in Perfetto or
// chrome://tracing; docs/OBSERVABILITY.md documents the track layout.
//
// The recorder is a dumb sink: the request-lifecycle state machine that
// decides WHICH spans to emit lives in telemetry::Telemetry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "workload/request.h"

namespace hetis::telemetry {

/// Request-lifecycle span kinds, in the order a request moves through them
/// (kMigrate nests inside kDecode: decoding continues on the destination).
enum class SpanPhase : std::uint8_t { kQueue, kPrefill, kDecode, kPreempted, kMigrate };

/// Stable lowercase name ("queue", "prefill", ...), used as the Chrome
/// event name and by the span-nesting tests.
const char* to_string(SpanPhase phase);

/// One closed interval on a request's track.  `arg_a`/`arg_b` carry the
/// tenant index and generated-token count for lifecycle spans, and the
/// source/destination device ids for kMigrate spans.
struct SpanEvent {
  std::int64_t tid = 0;  // request id == Perfetto thread track
  SpanPhase phase = SpanPhase::kQueue;
  std::int32_t arg_a = 0;
  std::int32_t arg_b = 0;
  Seconds t0 = 0;
  Seconds t1 = 0;
};

/// One point of a named counter curve (per-device occupancy tracks).
struct CounterEvent {
  std::int32_t track = 0;  // index into tracks()
  Seconds t = 0;
  double value = 0;
};

/// Append-only chunked storage: push_back never moves existing rows (full
/// chunks are frozen; a new fixed-size chunk is linked instead), so a
/// million-span trace grows without reallocation copies and iteration
/// stays in emission order.
template <typename T>
class ChunkedLog {
 public:
  static constexpr std::size_t kChunk = 4096;

  void push(const T& v) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunk);
    }
    chunks_.back().push_back(v);
  }

  std::size_t size() const {
    if (chunks_.empty()) return 0;
    return (chunks_.size() - 1) * kChunk + chunks_.back().size();
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const auto& chunk : chunks_) {
      for (const T& v : chunk) f(v);
    }
  }

 private:
  std::vector<std::vector<T>> chunks_;
};

class TraceRecorder {
 public:
  /// Records a closed span on request `id`'s track.
  void add_span(workload::RequestId id, SpanPhase phase, Seconds t0, Seconds t1,
                std::int32_t arg_a, std::int32_t arg_b) {
    SpanEvent ev;
    ev.tid = id;
    ev.phase = phase;
    ev.arg_a = arg_a;
    ev.arg_b = arg_b;
    ev.t0 = t0;
    ev.t1 = t1;
    spans_.push(ev);
  }

  /// Returns (creating on first use) the track handle for `name` -- e.g.
  /// "kv_fill[dev3]".  Called once per track, never per event.
  int intern_track(const std::string& name);

  void add_counter(int track, Seconds t, double value) {
    CounterEvent ev;
    ev.track = static_cast<std::int32_t>(track);
    ev.t = t;
    ev.value = value;
    counters_.push(ev);
  }

  std::size_t span_count() const { return spans_.size(); }
  std::size_t counter_count() const { return counters_.size(); }
  const std::vector<std::string>& tracks() const { return tracks_; }

  /// Spans in emission order (the nesting tests replay these).
  template <typename F>
  void each_span(F&& f) const {
    spans_.for_each(std::forward<F>(f));
  }
  template <typename F>
  void each_counter(F&& f) const {
    counters_.for_each(std::forward<F>(f));
  }

  /// Appends this recorder's events to an open Chrome `traceEvents` array:
  /// spans as "X" complete events on pid kRequestsPid (tid = request id),
  /// counters as "C" events on pid kDevicesPid.  `first` tracks comma
  /// placement across writers sharing the array.
  void write_events(std::ostream& os, bool& first) const;

  // Perfetto process ("track group") layout, shared with Telemetry's
  // registry/audit export so every writer agrees on the grouping.
  static constexpr int kRequestsPid = 1;  // one thread track per request
  static constexpr int kDevicesPid = 2;   // per-device occupancy counters
  static constexpr int kControlPid = 3;   // registry curves + audit instants

 private:
  ChunkedLog<SpanEvent> spans_;
  ChunkedLog<CounterEvent> counters_;
  std::vector<std::string> tracks_;
  std::map<std::string, int> track_index_;
};

}  // namespace hetis::telemetry
