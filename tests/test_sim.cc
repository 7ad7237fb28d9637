// Unit tests: discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

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

// --- Differential and property tests: the heap vs the (time, seq)
// --- contract.

// Reference model: a std::set ordered by (time, seq) pops its begin() --
// trivially correct (time, seq)-ascending order.
using RefEvent = std::tuple<Seconds, std::uint64_t, int>;

TEST(EventQueueDifferential, RandomizedInterleavingsMatchReference) {
  // 10k seeded events per round with half the timestamps on a coarse grid
  // to force duplicates, then a drain loop that keeps pushing (including
  // zero-delay re-pushes at the just-popped instant).
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

TEST(Simulation, SameInstantFifoSurvivesReschedules) {
  // 10k events at one instant; the first 100 self-reschedule at the same
  // instant mid-drain.  FIFO (seq) order must hold across both generations.
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

// --- Simulation::schedule_sorted ---

// One differential scenario: plain events queued before and after a sorted
// stream, a clock that may already have advanced when the stream is
// scheduled, and stream items that schedule zero-delay and grid-aligned
// follow-ups while the run is cut by several horizons.
struct StreamScenario {
  std::vector<Seconds> stream;  // sorted; may hold negatives and duplicates
  std::vector<Seconds> before;  // plain events queued at time 0
  Seconds start = 0;            // run_until(start) before scheduling the stream
  std::vector<Seconds> after;   // plain events queued after the stream
  std::vector<Seconds> horizons;
};

// (kind, id, time) of every fired event.  Kinds: 0 before, 1 stream item,
// 2 zero-delay follow-up, 3 grid follow-up, 4 after.
using Fired = std::tuple<int, std::size_t, Seconds>;

struct StreamRun {
  std::vector<Fired> log;
  std::vector<std::size_t> cuts;  // log size after each horizon
  std::size_t pending_after_stream = 0;
};

StreamRun run_scenario(const StreamScenario& sc, bool streamed) {
  Simulation sim;
  StreamRun out;
  auto plain = [&sim, &out](int kind, std::size_t id, Seconds at) {
    sim.schedule_at(at, [&sim, &out, kind, id] { out.log.emplace_back(kind, id, sim.now()); });
  };
  for (std::size_t k = 0; k < sc.before.size(); ++k) plain(0, k, sc.before[k]);
  sim.run_until(sc.start);
  auto fire = [&sim, &out](std::size_t i) {
    out.log.emplace_back(1, i, sim.now());
    if (i % 3 == 0) {
      sim.schedule_in(0.0, [&sim, &out, i] { out.log.emplace_back(2, i, sim.now()); });
    }
    if (i % 5 == 0) {
      sim.schedule_in(0.5 * static_cast<double>(i % 4),
                      [&sim, &out, i] { out.log.emplace_back(3, i, sim.now()); });
    }
  };
  const std::size_t pending_before = sim.pending();
  if (streamed) {
    sim.schedule_sorted(
        sc.stream.size(), [&sc](std::size_t i) { return sc.stream[i]; }, fire);
  } else {
    for (std::size_t i = 0; i < sc.stream.size(); ++i) {
      sim.schedule_at(sc.stream[i], [fire, i] { fire(i); });
    }
  }
  out.pending_after_stream = sim.pending() - pending_before;
  for (std::size_t k = 0; k < sc.after.size(); ++k) plain(4, k, sc.after[k]);
  for (Seconds h : sc.horizons) {
    sim.run_until(h);
    out.cuts.push_back(out.log.size());
  }
  sim.run_all();
  out.cuts.push_back(out.log.size());
  return out;
}

TEST(ScheduleSorted, MatchesAScheduleAtLoopUnderRandomizedInterleavings) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 20251116ull}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> wide(-2.0, 40.0);
    std::uniform_int_distribution<int> grid(-4, 80);  // half-second grid
    std::uniform_int_distribution<int> coin(0, 1);
    auto draw = [&] {
      return coin(rng) ? 0.5 * static_cast<double>(grid(rng)) : wide(rng);
    };
    StreamScenario sc;
    for (int i = 0; i < 3000; ++i) sc.stream.push_back(draw());
    std::sort(sc.stream.begin(), sc.stream.end());
    // Plain events sit on the same grid (and at zero), so they tie with
    // stream items at shared instants.
    for (int i = 0; i < 200; ++i) sc.before.push_back(std::max(0.0, draw()));
    for (int i = 0; i < 200; ++i) sc.after.push_back(std::max(0.0, draw()));
    sc.start = seed % 2 == 0 ? 0.0 : 5.0;  // odd seeds clamp a prefix to 5.0
    sc.horizons = {3.0, 10.25, 10.25, 20.0, 39.5};

    const StreamRun got = run_scenario(sc, /*streamed=*/true);
    const StreamRun want = run_scenario(sc, /*streamed=*/false);
    EXPECT_EQ(got.pending_after_stream, 1u);
    EXPECT_EQ(want.pending_after_stream, sc.stream.size());
    EXPECT_EQ(got.cuts, want.cuts);
    ASSERT_EQ(got.log.size(), want.log.size());
    for (std::size_t i = 0; i < got.log.size(); ++i) {
      ASSERT_EQ(got.log[i], want.log[i]) << "event " << i;
    }
  }
}

TEST(ScheduleSorted, KeepsOneEventPendingForALongStream) {
  Simulation sim;
  std::vector<Seconds> times(10000);
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = 0.001 * static_cast<double>(i);
  std::size_t fired = 0;
  sim.schedule_sorted(
      times.size(), [&times](std::size_t i) { return times[i]; },
      [&sim, &times, &fired](std::size_t i) {
        EXPECT_EQ(sim.now(), times[i]);
        EXPECT_EQ(fired++, i);
      });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_all(), times.size() - fired);
  EXPECT_EQ(fired, times.size());
  EXPECT_TRUE(sim.idle());
}

TEST(ScheduleSorted, RejectsUnsortedOrNanTimesBeforeQueuingAnything) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<Seconds>& times :
       {std::vector<Seconds>{0.0, 2.0, 1.0}, std::vector<Seconds>{nan},
        std::vector<Seconds>{0.0, nan, 1.0}, std::vector<Seconds>{1.0, 1.0, nan}}) {
    Simulation sim;
    int fired = 0;
    EXPECT_THROW(sim.schedule_sorted(
                     times.size(), [&times](std::size_t i) { return times[i]; },
                     [&fired](std::size_t) { ++fired; }),
                 std::invalid_argument);
    EXPECT_TRUE(sim.idle());
    sim.run_all();
    EXPECT_EQ(fired, 0);
  }
  Simulation sim;
  sim.schedule_sorted(0, [](std::size_t) { return 0.0; }, [](std::size_t) {});
  EXPECT_TRUE(sim.idle());
}

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

// --- EventTask storage ---

TEST(EventTask, LargeCaptureUsesTheHeapAndIsFreed) {
  struct Big {
    double pad[16];  // 128 bytes > EventTask::kInlineSize
  };
  static_assert(sizeof(Big) > EventTask::kInlineSize);
  Big big{};
  big.pad[0] = 7.0;
  auto token = std::make_shared<int>(0);  // counts the captured copies
  double seen = 0;
  {
    EventTask task([big, token, &seen] { seen = big.pad[0]; });
    EXPECT_TRUE(task.heap_allocated());
    EXPECT_EQ(token.use_count(), 2);
    EventTask moved(std::move(task));  // moves by pointer: no second copy
    EXPECT_TRUE(moved.heap_allocated());
    EXPECT_FALSE(task);  // the moved-from task is empty
    EXPECT_EQ(token.use_count(), 2);
    moved();
  }
  EXPECT_DOUBLE_EQ(seen, 7.0);
  EXPECT_EQ(token.use_count(), 1);  // destroyed with the task

  // A spilled event that never fires is freed with its queue.
  {
    EventQueue q;
    q.push(1.0, [big, token] { (void)big; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventTask, SmallCaptureStaysInline) {
  int hits = 0;
  EventTask task([&hits] { ++hits; });
  EXPECT_FALSE(task.heap_allocated());
  EventQueue q;
  q.push(1.0, std::move(task));
  EventQueue::Event ev = q.pop();
  EXPECT_FALSE(ev.fn.heap_allocated());
  ev.fn();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace hetis::sim
