#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace hetis::sim {
namespace {

// Strict (time, seq) ordering, reversed for a min-heap.  seq is unique, so
// it is a total order.
struct Later {
  bool operator()(const EventQueue::Event& a, const EventQueue::Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::insert(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void EventQueue::clear() {
  heap_.clear();
  next_seq_ = 0;
}

}  // namespace hetis::sim
