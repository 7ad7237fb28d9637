#include "sim/simulation.h"

#include <stdexcept>

namespace hetis::sim {

PeriodicTask Simulation::every(Seconds first_delay, Seconds period, std::function<bool()> fn) {
  if (!(period > 0)) throw std::invalid_argument("Simulation::every: period must be > 0");
  auto state = std::make_shared<PeriodicTask::State>(PeriodicTask::State{std::move(fn), period});
  arm(first_delay, state);
  return PeriodicTask(std::move(state));
}

void Simulation::arm(Seconds delay, std::shared_ptr<PeriodicTask::State> state) {
  schedule_in(delay, [this, state = std::move(state)]() mutable {
    if (!state->live) return;
    // The callback may cancel its own handle, so liveness is re-checked.
    if (!state->fn()) state->live = false;
    if (state->live) {
      const Seconds period = state->period;
      arm(period, std::move(state));
    }
  });
}

std::size_t Simulation::run_until(Seconds horizon) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    EventQueue::Event ev = queue_.pop();
    now_ = ev.time;
    ev.fn();
    ++executed;
  }
  if (now_ < horizon) now_ = horizon;
  return executed;
}

std::size_t Simulation::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    if (executed >= max_events) {
      throw std::runtime_error("Simulation::run_all: exceeded max_events (runaway loop?)");
    }
    EventQueue::Event ev = queue_.pop();
    now_ = ev.time;
    ev.fn();
    ++executed;
  }
  return executed;
}

}  // namespace hetis::sim
