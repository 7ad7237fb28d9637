// Deterministic discrete-event queue.
//
// Events at equal timestamps fire in insertion order (stable tie-break via
// a monotone sequence number), which keeps every experiment bit-for-bit
// reproducible under a fixed seed: pop order is strictly (time, seq)
// ascending.
//
// Storage is one binary min-heap run on std::push_heap/pop_heap, so pop()
// extracts by move (callables are move-only and never copied).  The pending
// set stays small: trace arrivals are streamed one at a time through
// reserved sequence numbers (Simulation::schedule_sorted) instead of being
// queued up front.
//
// Event callables are EventTask (sim/task.h): small-buffer inline storage,
// so the engines' steady-state events perform no allocation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace hetis::sim {

class EventQueue {
 public:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    EventTask fn;
  };

  /// Schedules fn at absolute time `at` (must be >= 0).
  template <class F>
  void push(Seconds at, F&& fn) {
    push(at, next_seq_++, std::forward<F>(fn));
  }

  /// Schedules fn at `at` under a sequence number obtained from
  /// reserve_seq(): it orders exactly as a push() made at reservation time
  /// would have.
  template <class F>
  void push(Seconds at, std::uint64_t seq, F&& fn) {
    if (at < 0.0) throw std::invalid_argument("EventQueue::push: negative time");
    insert(Event{at, seq, EventTask(std::forward<F>(fn))});
  }

  /// Reserves `n` consecutive sequence numbers and returns the first.
  std::uint64_t reserve_seq(std::uint64_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; undefined when empty.
  Seconds next_time() const { return heap_.front().time; }

  /// Pops and returns the earliest event (extracted by move; the callable
  /// is move-only and never copied).
  Event pop();

  void clear();

 private:
  void insert(Event ev);

  std::uint64_t next_seq_ = 0;
  // Min-heap by (time, seq) maintained with std::*_heap.
  std::vector<Event> heap_;
};

}  // namespace hetis::sim
