// Simulation clock + event loop built on EventQueue.
#pragma once

#include <functional>
#include <memory>
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

  /// The underlying queue (introspection for tests + benches).
  const EventQueue& queue() const { return queue_; }

 private:
  void arm(Seconds delay, std::shared_ptr<PeriodicTask::State> state);

  EventQueue queue_;
  Seconds now_ = 0.0;
};

}  // namespace hetis::sim
