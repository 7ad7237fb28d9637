// Simulation clock + event loop built on EventQueue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/event_queue.h"

namespace hetis::sim {

/// Owner of a periodic task started by Simulation::every().  Destroying (or
/// reassigning) the handle cancels the task: a firing already queued then
/// runs as a no-op and never touches what the callback captured.  The
/// handle may outlive its Simulation.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(PeriodicTask&&) noexcept = default;
  PeriodicTask& operator=(PeriodicTask&& other) noexcept {
    cancel();
    state_ = std::move(other.state_);
    return *this;
  }
  ~PeriodicTask() { cancel(); }

 private:
  friend class Simulation;
  struct State {
    std::function<bool()> fn;
    Seconds period;
    bool live = true;
  };
  explicit PeriodicTask(std::shared_ptr<State> state) : state_(std::move(state)) {}
  void cancel() {
    if (state_) state_->live = false;
    state_.reset();
  }

  std::shared_ptr<State> state_;
};

class Simulation {
 public:
  Seconds now() const { return now_; }

  /// Schedules fn `delay` seconds from now.
  template <class F>
  void schedule_in(Seconds delay, F&& fn) {
    queue_.push(now_ + delay, std::forward<F>(fn));
  }
  /// Schedules fn at absolute time `at` (clamped to now if in the past).
  template <class F>
  void schedule_at(Seconds at, F&& fn) {
    queue_.push(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Streams a sorted sequence: calls fire(i) at max(time_of(i), now())
  /// for i in [0, n), in exactly the order n schedule_at calls made now
  /// would give, while keeping a single event pending (one cursor that arms
  /// item i+1 when item i fires, under a sequence number reserved now).
  /// time_of must be a pure function of i.  Throws std::invalid_argument,
  /// queuing nothing, unless the times are non-decreasing and not NaN.
  template <class TimeOf, class Fire>
  void schedule_sorted(std::size_t n, TimeOf time_of, Fire fire) {
    Seconds prev = -std::numeric_limits<Seconds>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const Seconds t = time_of(i);
      if (!(t >= prev)) {
        throw std::invalid_argument(
            "Simulation::schedule_sorted: times must be non-decreasing and not NaN (item " +
            std::to_string(i) + ")");
      }
      prev = t;
    }
    if (n == 0) return;
    using S = Stream<TimeOf, Fire>;
    arm_next(std::make_unique<S>(
        S{std::move(time_of), std::move(fire), n, 0, queue_.reserve_seq(n), now_}));
  }

  /// Runs `fn` `first_delay` seconds from now, then every `period` seconds
  /// for as long as it returns true.  Each firing re-arms AFTER `fn`
  /// returns, so events `fn` schedules at the re-arm instant fire before
  /// the next tick.  Throws std::invalid_argument unless period > 0.
  [[nodiscard]] PeriodicTask every(Seconds first_delay, Seconds period, std::function<bool()> fn);

  /// Runs events until the queue drains or `horizon` is passed.  Events
  /// scheduled exactly at the horizon still run.  Returns the number of
  /// events executed.
  std::size_t run_until(Seconds horizon);

  /// Runs until the queue drains (use only with naturally-terminating
  /// workloads).  `max_events` guards against runaway loops.
  std::size_t run_all(std::size_t max_events = 100'000'000);

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  template <class TimeOf, class Fire>
  struct Stream {
    TimeOf time_of;
    Fire fire;
    std::size_t n;
    std::size_t next;    // the item the queued cursor fires
    std::uint64_t base;  // item i orders under sequence number base + i
    Seconds floor;       // now() when the stream was scheduled
  };

  template <class S>
  void arm_next(std::unique_ptr<S> s) {
    const Seconds t = s->time_of(s->next);
    const Seconds at = t < s->floor ? s->floor : t;
    const std::uint64_t seq = s->base + s->next;
    auto cursor = [this, s = std::move(s)]() mutable {
      s->fire(s->next);
      if (++s->next < s->n) arm_next(std::move(s));
    };
    static_assert(sizeof(cursor) <= EventTask::kInlineSize &&
                      std::is_nothrow_move_constructible_v<decltype(cursor)>,
                  "the stream cursor must stay in EventTask's inline storage");
    queue_.push(at, seq, std::move(cursor));
  }

  void arm(Seconds delay, std::shared_ptr<PeriodicTask::State> state);

  EventQueue queue_;
  Seconds now_ = 0.0;
};

}  // namespace hetis::sim
