// Unit tests: discrete-event engine.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/arena.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace hetis::sim {
namespace {

TEST(EventQueue, TimeOrdering) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableTieBreak) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NegativeTimeThrows) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  q.push(1.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  Seconds seen = -1;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim;
  sim.schedule_in(5.0, [&] {
    sim.schedule_at(1.0, [] {});  // in the past; must not go backwards
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, RunUntilHorizonStopsEarly) {
  Simulation sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(10.0, [&] { ++fired; });
  std::size_t n = sim.run_until(5.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, EventsExactlyAtHorizonRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_in(5.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CascadingEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(0.01, recurse);
  };
  sim.schedule_in(0.0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(sim.now(), 0.99, 1e-9);
}

TEST(Simulation, RunAllGuardsAgainstRunaway) {
  Simulation sim;
  std::function<void()> forever = [&] { sim.schedule_in(0.001, forever); };
  sim.schedule_in(0.0, forever);
  EXPECT_THROW(sim.run_all(1000), std::runtime_error);
}

TEST(Simulation, ZeroDelayEventsRunInOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_in(0.0, [&] { order.push_back(1); });
  sim.schedule_in(0.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, IdleReflectsQueue) {
  Simulation sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule_in(1.0, [] {});
  EXPECT_FALSE(sim.idle());
  sim.run_all();
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, PastScheduleAtOrdersAfterExistingSameTimeEvents) {
  // A clamped-to-now event gets a fresh sequence number, so it fires after
  // everything already queued at the current instant.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_in(5.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(3); });  // past; clamps to 5.0
  });
  sim.schedule_in(5.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, MoveOnlyEventCallable) {
  // EventTask is move-only, so events may own move-only state -- which
  // std::function (copyable by contract) forbade.
  Simulation sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule_in(1.0, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run_all();
  EXPECT_EQ(seen, 42);
}

// --- Differential and property tests: calendar tier vs the (time, seq)
// --- contract.

// Reference model: a std::set ordered by (time, seq) pops its begin() --
// trivially correct (time, seq)-ascending order.
using RefEvent = std::tuple<Seconds, std::uint64_t, int>;

TEST(EventQueueDifferential, RandomizedInterleavingsMatchReference) {
  // 10k seeded events per round -- enough to cross kCalendarOn -- with
  // half the timestamps on a coarse grid to force duplicates, then a drain
  // loop that keeps pushing (including zero-delay re-pushes at the
  // just-popped instant, the binary-insert path of the current bucket).
  for (std::uint64_t seed : {1ull, 42ull, 20251116ull}) {
    EventQueue q;
    std::set<RefEvent> ref;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> wide(0.0, 512.0);
    std::uniform_int_distribution<int> grid(0, 63);
    std::uniform_int_distribution<int> action(0, 99);

    std::uint64_t seq = 0;
    int next_label = 0;
    std::vector<int> fired;
    auto push_both = [&](Seconds t) {
      const int label = next_label++;
      q.push(t, [&fired, label] { fired.push_back(label); });
      ref.emplace(t, seq++, label);
    };

    for (int i = 0; i < 10000; ++i) {
      push_both(action(rng) < 50 ? static_cast<Seconds>(grid(rng)) * 8.0 : wide(rng));
    }
    EXPECT_TRUE(q.calendar_active());

    while (!q.empty()) {
      ASSERT_EQ(q.size(), ref.size());
      const RefEvent expect = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(q.next_time(), std::get<0>(expect));
      q.pop().fn();
      ASSERT_FALSE(fired.empty());
      ASSERT_EQ(fired.back(), std::get<2>(expect));
      const Seconds now = std::get<0>(expect);
      const int a = action(rng);
      if (a < 10) {
        push_both(now);  // zero-delay reschedule at the popped instant
      } else if (a < 25 && next_label < 14000) {
        push_both(now + wide(rng));
      }
    }
    EXPECT_TRUE(ref.empty());
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(next_label));
  }
}

TEST(EventQueue, CalendarTierEngagesAndFallsBackWhenSparse) {
  EventQueue q;
  std::vector<Seconds> popped;
  auto record = [&q, &popped](Seconds t) {
    q.push(t, [&popped, t] { popped.push_back(t); });
  };
  // A dense burst activates the calendar tier.
  for (int i = 0; i < 10000; ++i) record(static_cast<Seconds>(i) * 1e-4);
  EXPECT_TRUE(q.calendar_active());
  // Drain past the first window (rebuild #1 re-windows over the dense
  // remainder, which is still above kCalendarOff) into the second window.
  for (int i = 0; i < 9000; ++i) q.pop().fn();
  EXPECT_TRUE(q.calendar_active());
  // A sparse far tail pushed now lands past the second window's end, so it
  // pools in overflow; when the window exhausts, rebuild #2 finds only
  // 500 pending events -- below kCalendarOff -- and drops back to the heap.
  for (int i = 0; i < 500; ++i) record(1e6 + static_cast<Seconds>(i));
  for (int i = 0; i < 1000; ++i) q.pop().fn();
  ASSERT_EQ(q.size(), 500u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1e6);
  EXPECT_FALSE(q.calendar_active());
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(popped.size(), 10500u);
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LE(popped[i - 1], popped[i]);
}

TEST(Simulation, CalendarSameInstantFifoSurvivesReschedules) {
  // 10k events at one instant land in a single calendar bucket; the first
  // 100 self-reschedule at the same instant mid-drain.  FIFO (seq) order
  // must hold across both generations.
  Simulation sim;
  constexpr int kN = 10000;
  std::vector<int> order;
  order.reserve(kN + 100);
  for (int i = 0; i < kN; ++i) {
    sim.schedule_at(1.0, [&sim, &order, i] {
      order.push_back(i);
      if (i < 100) sim.schedule_at(1.0, [&order, i] { order.push_back(kN + i); });
    });
  }
  sim.run_all();
  std::vector<int> want;
  want.reserve(kN + 100);
  for (int i = 0; i < kN; ++i) want.push_back(i);
  for (int i = 0; i < 100; ++i) want.push_back(kN + i);
  EXPECT_EQ(order, want);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// --- EventTask + EventArena ---

// --- Simulation::every ---

TEST(Every, FirstDelayZeroFiresAtOnceThenEveryPeriod) {
  Simulation sim;
  std::vector<Seconds> at;
  PeriodicTask task = sim.every(0.0, 1.0, [&] {
    at.push_back(sim.now());
    return at.size() < 3;
  });
  sim.run_all();
  EXPECT_EQ(at, (std::vector<Seconds>{0.0, 1.0, 2.0}));
}

TEST(Every, PositiveFirstDelayFiresAfterIt) {
  Simulation sim;
  std::vector<Seconds> at;
  PeriodicTask task = sim.every(0.5, 2.0, [&] {
    at.push_back(sim.now());
    return true;
  });
  sim.run_until(7.0);
  EXPECT_EQ(at, (std::vector<Seconds>{0.5, 2.5, 4.5, 6.5}));
  EXPECT_EQ(sim.pending(), 1u);  // the 8.5 firing
}

TEST(Every, StopsWhenTheCallbackReturnsFalse) {
  Simulation sim;
  int fired = 0;
  PeriodicTask task = sim.every(1.0, 1.0, [&] {
    ++fired;
    return false;
  });
  EXPECT_EQ(sim.run_until(100.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(Every, EventScheduledAtTheReArmInstantFiresFirst) {
  // The task re-arms after its callback returns, so an event the callback
  // schedules for the next tick's instant holds the earlier sequence number.
  Simulation sim;
  std::vector<std::string> order;
  PeriodicTask task = sim.every(0.0, 1.0, [&] {
    order.push_back("tick@" + std::to_string(static_cast<int>(sim.now())));
    if (sim.now() == 0.0) sim.schedule_in(1.0, [&] { order.push_back("event@1"); });
    return sim.now() < 1.0;
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"tick@0", "event@1", "tick@1"}));
}

TEST(Every, DestroyedHandleTurnsTheQueuedFiringIntoANoOp) {
  Simulation sim;
  auto owner = std::make_unique<int>(0);
  {
    PeriodicTask task = sim.every(1.0, 1.0, [p = owner.get()] {
      ++*p;  // a use-after-free (caught under ASan) if it ever ran below
      return true;
    });
    EXPECT_EQ(sim.pending(), 1u);
  }
  owner.reset();
  EXPECT_EQ(sim.run_until(10.0), 1u);  // the cancelled firing, doing nothing
  EXPECT_TRUE(sim.idle());             // and not re-arming
}

TEST(Every, ReassigningTheHandleCancelsTheOldTask) {
  Simulation sim;
  int old_fired = 0, new_fired = 0;
  PeriodicTask task = sim.every(0.0, 1.0, [&] { return ++old_fired < 100; });
  sim.run_until(1.5);
  task = sim.every(0.0, 1.0, [&] { return ++new_fired < 100; });
  sim.run_until(5.5);
  EXPECT_EQ(old_fired, 2);
  EXPECT_EQ(new_fired, 5);  // 1.5, 2.5, 3.5, 4.5, 5.5
}

TEST(Every, HandleMayOutliveTheSimulation) {
  // The Simulation dies with a firing still queued; the handle then
  // cancels a task no queue holds any more (clean under ASan).
  PeriodicTask task;
  int fired = 0;
  {
    Simulation sim;
    task = sim.every(0.0, 1.0, [&] {
      ++fired;
      return true;
    });
    sim.run_until(2.5);
    EXPECT_EQ(sim.pending(), 1u);
  }
  EXPECT_EQ(fired, 3);
}

TEST(Every, RejectsNonPositivePeriod) {
  Simulation sim;
  EXPECT_THROW((void)sim.every(0.0, 0.0, [] { return true; }), std::invalid_argument);
  EXPECT_THROW((void)sim.every(0.0, -1.0, [] { return true; }), std::invalid_argument);
  EXPECT_TRUE(sim.idle());
}

TEST(EventTask, LargeCaptureSpillsToArenaAndRecycles) {
  EventQueue q;
  struct Big {
    double pad[16];  // 128 bytes > EventTask::kInlineSize
  };
  Big big{};
  big.pad[0] = 7.0;
  double seen = 0;
  q.push(1.0, [big, &seen] { seen = big.pad[0]; });
  EXPECT_EQ(q.arena().live_blocks(), 1);
  {
    EventQueue::Event ev = q.pop();
    ev.fn();
  }
  EXPECT_DOUBLE_EQ(seen, 7.0);
  EXPECT_EQ(q.arena().live_blocks(), 0);
  // The freed block recycles through the size-class free list: the second
  // spill performs no slab carve and no global allocation.
  q.push(2.0, [big, &seen] { seen = big.pad[0] * 2; });
  EXPECT_GE(q.arena().freelist_hits(), 1u);
  EXPECT_EQ(q.arena().oversize_allocations(), 0u);
  q.clear();
  EXPECT_EQ(q.arena().live_blocks(), 0);
}

TEST(EventTask, SmallCaptureStaysInline) {
  EventQueue q;
  int hits = 0;
  q.push(1.0, [&hits] { ++hits; });
  EXPECT_EQ(q.arena().live_blocks(), 0);  // inline storage, no arena block
  q.pop().fn();
  EXPECT_EQ(hits, 1);
}

TEST(EventArena, RecyclesBlocksThroughFreeLists) {
  EventArena a;
  void* p = a.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.live_blocks(), 1);
  a.deallocate(p, 100);
  EXPECT_EQ(a.live_blocks(), 0);
  // 80 bytes maps to the same 64-byte-granule class as 100: the freed
  // block comes straight back off the free list.
  void* p2 = a.allocate(80);
  EXPECT_EQ(p2, p);
  EXPECT_EQ(a.freelist_hits(), 1u);
  a.deallocate(p2, 80);
}

TEST(EventArena, OversizeFallsThroughToGlobalAllocator) {
  EventArena a;
  ASSERT_GT(4096u, EventArena::max_pooled_size());
  void* p = a.allocate(4096);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.oversize_allocations(), 1u);
  EXPECT_EQ(a.live_blocks(), 1);
  a.deallocate(p, 4096);
  EXPECT_EQ(a.live_blocks(), 0);
}

}  // namespace
}  // namespace hetis::sim
