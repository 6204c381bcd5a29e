// Tests for the discrete-event kernel: ordering, cancellation, time
// control, resources and periodic tasks — the invariants every simulated
// subsystem relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/require.h"
#include "obs/metrics.h"
#include "sim/sampler.h"
#include "sim/simulator.h"

namespace lsdf::sim {
namespace {

TEST(Simulator, StartsAtTimeZeroWithNoEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesEventsInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(300), [&] { order.push_back(3); });
  sim.schedule_at(SimTime(100), [&] { order.push_back(1); });
  sim.schedule_at(SimTime(200), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime(300));
}

TEST(Simulator, EqualTimestampsExecuteFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime(50), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_after(5_s, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::zero() + 5_s);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_s, [&] {
    ++fired;
    sim.schedule_after(1_s, [&] {
      ++fired;
      sim.schedule_after(1_s, [&] { ++fired; });
    });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), SimTime::zero() + 3_s);
}

TEST(Simulator, SchedulingInThePastViolatesContract) {
  Simulator sim;
  sim.schedule_after(10_s, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime(5), [] {}), ContractViolation);
}

#if LSDF_DCHECK_ENABLED
// Null callbacks are an internal-invariant check (LSDF_DCHECK): enforced in
// Debug and sanitizer builds, compiled out of the Release hot path.
TEST(Simulator, NullCallbackViolatesContract) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(1_s, nullptr), ContractViolation);
}
#endif

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(1_s, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_after(1_s, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFiringReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_after(1_s, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, EventIdKeysUnorderedBookkeeping) {
  // The std::hash<EventId> specialisation in play: a model keeps per-event
  // state keyed by pending EventId and must drop it when the event fires
  // or is cancelled.
  Simulator sim;
  std::unordered_map<EventId, int> payload;
  std::vector<int> delivered;
  for (int i = 0; i < 8; ++i) {
    const EventId id = sim.schedule_after(SimDuration(i + 1), [&, i] {
      // Self-lookup: each callback must see exactly its own payload.
      for (const auto& [eid, value] : payload) {
        if (value == i) delivered.push_back(value);
      }
    });
    payload.emplace(id, i);
    EXPECT_EQ(payload.count(id), 1u);
  }
  sim.run();
  EXPECT_EQ(delivered.size(), 8u);
}

TEST(Simulator, CancelAfterFireLeavesBookkeepingConsistent) {
  // cancel() on an already-fired event returns false; a model using that
  // return to decide whether to erase its EventId-keyed state must not
  // leak or double-erase.
  Simulator sim;
  std::unordered_map<EventId, std::string> pending;
  const EventId fires = sim.schedule_after(1_s, [&] { pending.erase(fires); });
  const EventId cancelled = sim.schedule_after(2_s, [] {});
  pending.emplace(fires, "fires");
  pending.emplace(cancelled, "cancelled");
  EXPECT_TRUE(sim.cancel(cancelled));
  pending.erase(cancelled);
  sim.run();
  EXPECT_FALSE(sim.cancel(fires)) << "already fired";
  EXPECT_FALSE(sim.cancel(cancelled)) << "already cancelled";
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1_s, [&] { ++fired; });
  sim.schedule_after(2_s, [&] { ++fired; });
  sim.schedule_after(10_s, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::zero() + 5_s), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::zero() + 5_s);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(5_s, [&] { fired = true; });
  sim.run_until(SimTime::zero() + 5_s);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(SimDuration(i), [&] { ++fired; });
  }
  EXPECT_TRUE(sim.run_while_pending([&] { return fired >= 4; }));
  EXPECT_EQ(fired, 4);
  // Queue exhaustion without satisfying the predicate reports false.
  EXPECT_FALSE(sim.run_while_pending([&] { return fired >= 100; }));
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, ExecutedEventsCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(1_s, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, DeterministicReplay) {
  auto build_and_run = [] {
    Simulator sim;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(SimDuration((i * 37) % 11),
                         [&trace, &sim] { trace.push_back(sim.now().nanos()); });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(build_and_run(), build_and_run());
}

// --- Resource ------------------------------------------------------------------

TEST(Resource, GrantsImmediatelyWhenAvailable) {
  Simulator sim;
  Resource r(sim, 2, "slots");
  int granted = 0;
  r.acquire(1, [&] { ++granted; });
  r.acquire(1, [&] { ++granted; });
  sim.run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(r.in_use(), 2);
  EXPECT_EQ(r.available(), 0);
}

TEST(Resource, QueuesWhenExhaustedAndGrantsOnRelease) {
  Simulator sim;
  Resource r(sim, 1, "drive");
  std::vector<int> order;
  r.acquire(1, [&] { order.push_back(1); });
  r.acquire(1, [&] { order.push_back(2); });
  r.acquire(1, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(r.queue_length(), 2u);
  r.release(1);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  r.release(1);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, FifoEvenWhenSmallerRequestCouldFit) {
  Simulator sim;
  Resource r(sim, 4, "cores");
  std::vector<int> order;
  r.acquire(3, [&] { order.push_back(1); });
  r.acquire(3, [&] { order.push_back(2); });  // blocks: only 1 free
  r.acquire(1, [&] { order.push_back(3); });  // would fit, but FIFO waits
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  r.release(3);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // 2 then 3, in order
}

TEST(Resource, ContractChecks) {
  Simulator sim;
  Resource r(sim, 2, "x");
  EXPECT_THROW(r.acquire(0, [] {}), ContractViolation);
  EXPECT_THROW(r.acquire(3, [] {}), ContractViolation);
  EXPECT_THROW(r.release(1), ContractViolation);  // nothing held
  EXPECT_THROW(Resource(sim, 0, "bad"), ContractViolation);
}

TEST(Resource, GrantIsDeliveredAsEventNotInline) {
  Simulator sim;
  Resource r(sim, 1, "slot");
  bool granted = false;
  r.acquire(1, [&] { granted = true; });
  EXPECT_FALSE(granted);  // not synchronous
  sim.run();
  EXPECT_TRUE(granted);
}

// --- PeriodicTask ------------------------------------------------------------------

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTask task(sim, 10_s, [&] { times.push_back(sim.now().nanos()); });
  task.start_at(SimTime::zero() + 10_s, SimTime::zero() + 55_s);
  sim.run();
  const std::int64_t second = 1'000'000'000;
  EXPECT_EQ(times, (std::vector<std::int64_t>{10 * second, 20 * second,
                                              30 * second, 40 * second,
                                              50 * second}));
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopCancelsFutureFirings) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1_s, [&] { ++fired; });
  task.start_at(SimTime::zero() + 1_s);
  sim.run_until(SimTime::zero() + 3_s);
  task.stop();
  sim.run_until(SimTime::zero() + 10_s);
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTask, StartBeyondEndNeverFires) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1_s, [&] { ++fired; });
  task.start_at(SimTime::zero() + 10_s, SimTime::zero() + 5_s);
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1_s, [&] { ++fired; });
  task.start_at(SimTime::zero() + 1_s);
  sim.run_until(SimTime::zero() + 2_s);
  task.stop();
  task.start_at(sim.now() + 1_s, sim.now() + 2_s);
  sim.run();
  EXPECT_EQ(fired, 4);
}

// Regression: restarting the task from inside its own tick. fire() used to
// re-arm unconditionally after tick_() returned, so a stop()+start_at()
// inside the tick left TWO live event chains — the task fired twice per
// period from then on, and the orphaned chain could never be stopped
// (stop() only knew the restart's pending id).
TEST(PeriodicTask, RestartFromInsideTickDoesNotDoubleArm) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTask* handle = nullptr;
  bool rephased = false;
  PeriodicTask task(sim, 10_s, [&] {
    times.push_back(sim.now().nanos());
    if (!rephased && sim.now() >= SimTime::zero() + 20_s) {
      // Re-phase the schedule from inside the tick, as a config-reload
      // handler would: stop, then restart on a 10 s period offset by 5 s.
      rephased = true;
      handle->stop();
      handle->start_at(sim.now() + 5_s, SimTime::zero() + 60_s);
    }
  });
  handle = &task;
  task.start_at(SimTime::zero() + 10_s, SimTime::zero() + 60_s);
  sim.run();
  // One firing per period, re-phased once at t=20s — no doubled ticks from
  // a surviving orphan chain.
  const std::int64_t second = 1'000'000'000;
  EXPECT_EQ(times, (std::vector<std::int64_t>{10 * second, 20 * second,
                                              25 * second, 35 * second,
                                              45 * second, 55 * second}));
  EXPECT_FALSE(task.running());
  // The queue must be fully drained: an orphaned chain would keep feeding
  // events past the end time.
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression: stop() used to leave the fired/cancelled event's id in
// pending_, so stop → start_at → stop could "cancel" a stale handle —
// harmless only by luck of the generation check — and a stopped task held
// a dangling id indefinitely. The sequence must cancel cleanly: no extra
// ticks, no live events left behind.
TEST(PeriodicTask, StopStartStopCancelsCleanly) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1_s, [&] { ++fired; });
  task.start_at(SimTime::zero() + 1_s);
  sim.run_until(SimTime::zero() + 2_s);
  EXPECT_EQ(fired, 2);
  task.stop();
  EXPECT_EQ(sim.pending_events(), 0u);  // pending firing cancelled
  task.start_at(sim.now() + 1_s);
  task.stop();  // must cancel the restart's event, not a stale handle
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(fired, 2);  // nothing left to fire
  // Stopping an already-stopped task stays a no-op.
  task.stop();
  EXPECT_FALSE(task.running());
}

// --- Event slab / EventId generations ----------------------------------------

TEST(EventSlab, CancelWithStaleIdAfterRecycleIsRejected) {
  Simulator sim;
  bool survivor_fired = false;
  const EventId first = sim.schedule_after(SimDuration(10), [] {});
  ASSERT_TRUE(sim.cancel(first));
  // The freed slot is head of the LIFO free list, so the next schedule
  // recycles exactly it — same index, bumped generation.
  const EventId second =
      sim.schedule_after(SimDuration(20), [&] { survivor_fired = true; });
  EXPECT_EQ(second.index, first.index);
  EXPECT_NE(second.generation, first.generation);
  // The stale handle must not be able to kill the slot's new tenant.
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_TRUE(survivor_fired);
}

TEST(EventSlab, CancelWithStaleIdAfterFireAndRecycleIsRejected) {
  Simulator sim;
  const EventId first = sim.schedule_after(SimDuration(5), [] {});
  sim.run();
  bool survivor_fired = false;
  const EventId second =
      sim.schedule_after(SimDuration(5), [&] { survivor_fired = true; });
  EXPECT_EQ(second.index, first.index);
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_TRUE(survivor_fired);
}

TEST(EventSlab, SlotsAreReusedNotLeaked) {
  Simulator sim;
  for (int round = 0; round < 1000; ++round) {
    sim.schedule_after(SimDuration(1), [] {});
    sim.run();
  }
  // A schedule/fire round trip reuses the same slot every time.
  EXPECT_EQ(sim.slab_slots(), 1u);
  EXPECT_EQ(sim.free_slots(), 1u);
}

TEST(EventSlab, FuzzedScheduleCancelStepKeepsAccountingExact) {
  // A million random schedule/cancel/step/run_until operations; after every
  // one, the slab must account for each slot as exactly live or free.
  Simulator sim;
  std::uint64_t state = 0x5eedf00dULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<EventId> issued;  // includes stale ids on purpose
  for (int op = 0; op < 1'000'000; ++op) {
    const std::uint64_t pick = next() % 100;
    if (pick < 50 && sim.pending_events() < 200) {
      issued.push_back(sim.schedule_after(
          SimDuration(static_cast<std::int64_t>(next() % 1000)), [] {}));
      if (issued.size() > 400) {
        issued.erase(issued.begin(), issued.begin() + 200);
      }
    } else if (pick < 75 && !issued.empty()) {
      sim.cancel(issued[next() % issued.size()]);  // often stale: must be safe
    } else if (pick < 95) {
      sim.step();
    } else {
      sim.run_until(sim.now() + SimDuration(static_cast<std::int64_t>(
                                    next() % 500)));
    }
    ASSERT_EQ(sim.pending_events(), sim.slab_slots() - sim.free_slots())
        << "slab accounting diverged after op " << op;
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.slab_slots(), sim.free_slots());
}

TEST(Resource, ManyWaitersGrantInStrictAcquisitionOrder) {
  Simulator sim;
  Resource r(sim, 3, "drives");
  std::vector<int> grant_order;
  for (int i = 0; i < 24; ++i) {
    const std::int64_t units = 1 + i % 3;
    sim.schedule_after(SimDuration(i), [&, i, units] {
      r.acquire(units, [&, i, units] {
        grant_order.push_back(i);
        sim.schedule_after(SimDuration(50), [&r, units] { r.release(units); });
      });
    });
  }
  sim.run();
  ASSERT_EQ(grant_order.size(), 24u);
  // Strict FIFO: no waiter is ever overtaken, whatever its request size.
  for (int i = 0; i < 24; ++i) EXPECT_EQ(grant_order[i], i);
}

TEST(PeriodicTask, FiringsAreAllocationFree) {
  obs::Counter& heap_fallbacks = obs::MetricsRegistry::global().counter(
      "lsdf_sim_callback_heap_total");
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, SimDuration(10), [&ticks] { ++ticks; });
  const std::int64_t before = heap_fallbacks.value();
  task.start_at(SimTime(10), SimTime(100'000));
  sim.run();
  EXPECT_EQ(ticks, 10'000);
  // Re-arming schedules a one-pointer capture each tick: always inline in
  // the event slot, never the heap fallback path.
  EXPECT_EQ(heap_fallbacks.value(), before);
}

TEST(PeriodicTask, DoubleStartViolatesContract) {
  Simulator sim;
  PeriodicTask task(sim, 1_s, [] {});
  task.start_at(SimTime::zero() + 1_s);
  EXPECT_THROW(task.start_at(SimTime::zero() + 2_s), ContractViolation);
}

// --- Sampler ------------------------------------------------------------------

TEST(Sampler, LabelSetRegisteredAfterStartJoinsLaterSamples) {
  Simulator sim;
  obs::MetricsRegistry registry;  // private: no other test's instruments
  registry.gauge("site_used_bytes", {{"site", "kit"}}).set(1.0);
  registry.counter("other_total").add(7);  // outside the watched prefix
  Sampler sampler(sim, 10_s, registry);
  sampler.watch("site_");
  sampler.start();
  sim.run_until(SimTime::zero() + 15_s);  // samples at 0, 1 ns, 10 s + 1 ns
  registry.gauge("site_used_bytes", {{"site", "heidelberg"}}).set(2.0);
  sim.run_until(SimTime::zero() + 35_s);  // and at 20 s, 30 s (+ 1 ns)
  sampler.stop();

  EXPECT_EQ(sampler.series("site_used_bytes{site=\"kit\"}").points().size(),
            5u);
  const TimeSeries& late =
      sampler.series("site_used_bytes{site=\"heidelberg\"}");
  ASSERT_EQ(late.points().size(), 2u);
  EXPECT_EQ(late.points().front().time, SimTime::zero() + 1_ns + 20_s);
  EXPECT_DOUBLE_EQ(late.last_value(), 2.0);
  EXPECT_THROW((void)sampler.series("other_total"), ContractViolation);
  // Label text is quoted in the CSV export.
  EXPECT_NE(sampler.to_csv().find(",\"site_used_bytes{site=\"\"kit\"\"}\","),
            std::string::npos);
}

TEST(Sampler, TicksAtStartThenOneNanosecondPlusWholePeriods) {
  Simulator sim;
  sim.run_until(SimTime::zero() + 3_s);
  const SimTime t0 = sim.now();
  const obs::MetricsRegistry registry;
  Sampler sampler(sim, 10_s, registry);
  double reading = 0.0;
  sampler.watch("probe", [&reading] { return reading += 1.0; });
  sampler.start();
  sim.run_until(t0 + 35_s);
  sampler.stop();

  // t0, then t0 + 1 ns + k * period: E2's and E11's event counts and
  // fingerprints depend on this schedule.
  const std::vector<SimTime> expected = {t0, t0 + 1_ns, t0 + 1_ns + 10_s,
                                         t0 + 1_ns + 20_s, t0 + 1_ns + 30_s};
  const auto& points = sampler.series("probe").points();
  ASSERT_EQ(points.size(), expected.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].time, expected[i]) << "tick " << i;
    EXPECT_DOUBLE_EQ(points[i].value, static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(sampler.series("probe").mean(), 3.0);
  EXPECT_DOUBLE_EQ(sampler.series("probe").max(), 5.0);
}

}  // namespace
}  // namespace lsdf::sim
