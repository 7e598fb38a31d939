#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace qsched::sim {
namespace {

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(3.0, [&] { order.push_back(3); });
  simulator.ScheduleAt(1.0, [&] { order.push_back(1); });
  simulator.ScheduleAt(2.0, [&] { order.push_back(2); });
  simulator.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.Now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  simulator.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.ScheduleAt(2.0, [&] {
    simulator.ScheduleAfter(3.0, [&] { fired_at = simulator.Now(); });
  });
  simulator.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator simulator;
  simulator.ScheduleAt(10.0, [] {});
  simulator.RunToCompletion();
  double fired_at = -1.0;
  simulator.ScheduleAt(1.0, [&] { fired_at = simulator.Now(); });
  simulator.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator simulator;
  bool fired = false;
  simulator.ScheduleAfter(-5.0, [&] { fired = true; });
  simulator.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(simulator.Now(), 0.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  EventId id = simulator.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelIsIdempotentAndChecked) {
  Simulator simulator;
  EventId id = simulator.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(0));
  EXPECT_FALSE(simulator.Cancel(99999));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator simulator;
  EventId id = simulator.ScheduleAt(1.0, [] {});
  simulator.RunToCompletion();
  EXPECT_FALSE(simulator.Cancel(id));
}

TEST(SimulatorTest, RunUntilAdvancesClockPastLastEvent) {
  Simulator simulator;
  int fired = 0;
  simulator.ScheduleAt(1.0, [&] { ++fired; });
  simulator.ScheduleAt(5.0, [&] { ++fired; });
  size_t processed = simulator.RunUntil(3.0);
  EXPECT_EQ(processed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.Now(), 3.0);
  simulator.RunUntil(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(simulator.Now(), 10.0);
}

TEST(SimulatorTest, PendingEventsAccounting) {
  Simulator simulator;
  EventId a = simulator.ScheduleAt(1.0, [] {});
  simulator.ScheduleAt(2.0, [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.Cancel(a);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.RunToCompletion();
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.events_processed(), 1u);
}

TEST(SimulatorTest, CallbackMaySchedule) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) simulator.ScheduleAfter(1.0, chain);
  };
  simulator.ScheduleAfter(1.0, chain);
  simulator.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(simulator.Now(), 100.0);
}

class SimulatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorPropertyTest, RandomOpsPreserveOrderingInvariant) {
  qsched::Rng rng(GetParam());
  Simulator simulator;
  std::vector<double> fire_times;
  std::vector<EventId> live;
  size_t scheduled = 0, cancelled = 0;
  for (int i = 0; i < 500; ++i) {
    double op = rng.NextDouble();
    if (op < 0.7 || live.empty()) {
      double when = rng.Uniform(0.0, 1000.0);
      live.push_back(simulator.ScheduleAt(
          when, [&fire_times, &simulator] {
            fire_times.push_back(simulator.Now());
          }));
      ++scheduled;
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (simulator.Cancel(live[pick])) ++cancelled;
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  simulator.RunToCompletion();
  EXPECT_EQ(fire_times.size(), scheduled - cancelled);
  for (size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
  EXPECT_EQ(simulator.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

// Golden fire-order checksum captured on the pre-rewrite
// std::priority_queue simulator: an FNV-1a hash over the exact sequence
// of (fire-time bits, event tag) for a randomized schedule / cancel /
// reschedule workload. The 4-ary-heap rewrite must reproduce the event
// ordering bit-for-bit, so the checksum is invariant.
TEST(SimulatorTest, GoldenFireOrderMatchesPreRewriteSimulator) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  qsched::Rng rng(2026);
  Simulator simulator;
  std::vector<EventId> live;
  int next_tag = 0;
  for (int i = 0; i < 5000; ++i) {
    double op = rng.NextDouble();
    if (op < 0.6 || live.empty()) {
      double when = rng.Uniform(0.0, 500.0);
      int tag = next_tag++;
      live.push_back(simulator.ScheduleAt(when, [&, tag] {
        uint64_t bits;
        double now = simulator.Now();
        std::memcpy(&bits, &now, 8);
        mix(bits);
        mix(static_cast<uint64_t>(tag));
        // A quarter of events reschedule themselves once, shifted.
        if (tag % 4 == 0) {
          int tag2 = tag + 1000000;
          simulator.ScheduleAfter(0.25 * (tag % 16), [&, tag2] {
            uint64_t b2;
            double n2 = simulator.Now();
            std::memcpy(&b2, &n2, 8);
            mix(b2);
            mix(static_cast<uint64_t>(tag2));
          });
        }
      }));
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      simulator.Cancel(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  simulator.RunToCompletion();
  EXPECT_EQ(simulator.events_processed(), 1415u);
  EXPECT_EQ(hash, 11661479758305775742ull);
}

// Regression for the old lazy-cancel design, where a cancelled
// far-future event lingered in `cancelled_` / `pending_ids_` (and its
// callback's captures stayed alive) until it bubbled to the top of the
// heap. Cancelling must reclaim the slot immediately: 100k
// schedule/cancel cycles leave nothing pending and reuse one slot
// instead of growing storage.
TEST(SimulatorTest, CancelReclaimsSlotsImmediately) {
  Simulator simulator;
  for (int i = 0; i < 100000; ++i) {
    EventId id = simulator.ScheduleAt(1e9 + i, [] {});
    ASSERT_TRUE(simulator.Cancel(id));
  }
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.slot_capacity(), 1u);

  // Same with a standing population: capacity tracks the high-water mark
  // of concurrently pending events, not the total scheduled.
  std::vector<EventId> batch;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 100; ++i) {
      batch.push_back(simulator.ScheduleAt(1e9 + i, [] {}));
    }
    for (EventId id : batch) ASSERT_TRUE(simulator.Cancel(id));
    batch.clear();
  }
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_LE(simulator.slot_capacity(), 100u);
}

TEST(SimulatorTest, StaleIdOnReusedSlotIsRejected) {
  Simulator simulator;
  EventId first = simulator.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(simulator.Cancel(first));
  // The slot is reused for a new event under a fresh generation; the old
  // handle must not cancel the new event.
  bool fired = false;
  EventId second = simulator.ScheduleAt(2.0, [&] { fired = true; });
  EXPECT_FALSE(simulator.Cancel(first));
  simulator.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(simulator.Cancel(second));
}

// A chain of events that each schedule their successor under a reserved
// rank must fire exactly like the same events all scheduled up front,
// including same-time ties against events scheduled before the chain,
// after it, and from inside the chain's own callbacks.
TEST(SimulatorTest, ReservedSequenceMatchesPreScheduling) {
  constexpr int kChain = 200;
  qsched::Rng rng(99);
  std::vector<double> chain_times;
  for (int i = 0; i < kChain; ++i) {
    chain_times.push_back(std::floor(rng.Uniform(0.0, 40.0)) * 0.5);
  }
  std::sort(chain_times.begin(), chain_times.end());
  std::vector<double> other_times;
  for (int i = 0; i < 60; ++i) {
    // Half land exactly on a chain time.
    other_times.push_back(
        i % 2 == 0 ? chain_times[static_cast<size_t>(rng.UniformInt(
                         0, kChain - 1))]
                   : rng.Uniform(0.0, 20.0));
  }

  // Tags: chain event i -> i, other event j -> 1000 + j, follow-ups
  // scheduled by chain event i -> 2000 + i.
  auto run = [&](bool reserved) {
    Simulator simulator;
    std::vector<int> order;
    auto record = [&simulator, &order](int tag) {
      order.push_back(tag);
      // Fold the firing time in too: same order at the same times.
      order.push_back(static_cast<int>(simulator.Now() * 2.0));
    };
    for (size_t j = 0; j < other_times.size() / 2; ++j) {
      simulator.ScheduleAt(other_times[j], [&record, j] {
        record(1000 + static_cast<int>(j));
      });
    }
    auto on_chain = [&](int i) {
      record(i);
      if (i % 3 == 0) {
        simulator.ScheduleAfter(0.0, [&record, i] { record(2000 + i); });
      }
    };
    uint64_t first = 0;
    std::function<void(int)> fire = [&](int i) {
      if (reserved && i + 1 < kChain) {
        simulator.ScheduleAtSequence(
            chain_times[static_cast<size_t>(i + 1)],
            first + static_cast<uint64_t>(i + 1), [&fire, i] { fire(i + 1); });
      }
      on_chain(i);
    };
    if (reserved) {
      first = simulator.ReserveSequence(kChain);
      simulator.ScheduleAtSequence(chain_times[0], first,
                                   [&fire] { fire(0); });
    } else {
      for (int i = 0; i < kChain; ++i) {
        simulator.ScheduleAt(chain_times[static_cast<size_t>(i)],
                             [&on_chain, i] { on_chain(i); });
      }
    }
    for (size_t j = other_times.size() / 2; j < other_times.size(); ++j) {
      simulator.ScheduleAt(other_times[j], [&record, j] {
        record(1000 + static_cast<int>(j));
      });
    }
    simulator.RunToCompletion();
    return std::make_pair(order, simulator.events_processed());
  };

  const auto up_front = run(false);
  const auto chained = run(true);
  EXPECT_EQ(chained.first, up_front.first);
  EXPECT_EQ(chained.second, up_front.second);
}

TEST(SimulatorTest, ReservedSequenceEventsCancelAndRejectStaleIds) {
  Simulator simulator;
  const uint64_t first = simulator.ReserveSequence(2);
  bool first_fired = false;
  EventId id = simulator.ScheduleAtSequence(1.0, first,
                                            [&] { first_fired = true; });
  EXPECT_EQ(simulator.pending_events(), 1u);
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  EXPECT_EQ(simulator.pending_events(), 0u);

  // The freed slot is reused under a fresh generation: the stale handle
  // must not cancel the new reserved-rank event.
  bool second_fired = false;
  EventId second = simulator.ScheduleAtSequence(1.0, first + 1,
                                                [&] { second_fired = true; });
  EXPECT_EQ(simulator.slot_capacity(), 1u);
  EXPECT_FALSE(simulator.Cancel(id));
  simulator.RunToCompletion();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(simulator.Cancel(second));
}

// The tick times the pre-scheduling loop produced, float accumulation
// and all.
std::vector<SimTime> LoopTicks(SimTime interval, SimTime until) {
  std::vector<SimTime> ticks;
  if (interval <= 0.0) return ticks;
  for (SimTime t = interval; t <= until; t += interval) ticks.push_back(t);
  return ticks;
}

// Records the model time of every tick. Periodic callbacks capture one
// pointer (so each tick fits EventFn inline), hence the struct.
struct TickLog {
  Simulator simulator;
  std::vector<SimTime> ticks;
  void Tick() { ticks.push_back(simulator.Now()); }
};

std::vector<SimTime> PeriodicTicks(SimTime interval, SimTime until) {
  TickLog log;
  log.simulator.SchedulePeriodic(interval, until,
                                 [log = &log] { log->Tick(); });
  log.simulator.RunToCompletion();
  return log.ticks;
}

TEST(PeriodicTest, TickTimesMatchAccumulatingLoop) {
  // 0.1 is inexact in binary: the ticks must carry the loop's rounding
  // (0.30000000000000004, ...) and its count (0.9999999999999999 is in).
  const std::vector<SimTime> tenths = PeriodicTicks(0.1, 1.0);
  EXPECT_EQ(tenths, LoopTicks(0.1, 1.0));
  EXPECT_EQ(tenths.size(), 10u);
  EXPECT_EQ(PeriodicTicks(10.0, 7200.0), LoopTicks(10.0, 7200.0));
  EXPECT_EQ(PeriodicTicks(0.7, 1000.0), LoopTicks(0.7, 1000.0));
  EXPECT_EQ(PeriodicTicks(60.0, 60.0), LoopTicks(60.0, 60.0));
}

TEST(PeriodicTest, NoTicksForNonPositiveIntervalOrShortHorizon) {
  for (SimTime interval : {0.0, -1.0}) {
    Simulator simulator;
    simulator.SchedulePeriodic(interval, 100.0, [] { FAIL(); });
    EXPECT_EQ(simulator.pending_events(), 0u);
  }
  Simulator simulator;
  simulator.SchedulePeriodic(10.0, 9.99, [] { FAIL(); });
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_TRUE(PeriodicTicks(10.0, 9.99).empty());
}

TEST(PeriodicTest, KeepsOnePendingEventPerSource) {
  TickLog log;
  log.simulator.SchedulePeriodic(10.0, 7200.0, [log = &log] { log->Tick(); });
  log.simulator.SchedulePeriodic(60.0, 7200.0, [log = &log] { log->Tick(); });
  EXPECT_EQ(log.simulator.pending_events(), 2u);
  while (log.simulator.Step()) {
    EXPECT_LE(log.simulator.pending_events(), 2u);
  }
  EXPECT_EQ(log.ticks.size(), 720u + 120u);
  EXPECT_EQ(log.simulator.slot_capacity(), 2u);
}

TEST(PeriodicTest, UnboundedHorizonTicksUntilTheRunStops) {
  TickLog log;
  log.simulator.SchedulePeriodic(10.0,
                                 std::numeric_limits<SimTime>::infinity(),
                                 [log = &log] { log->Tick(); });
  log.simulator.RunUntil(100.0);
  EXPECT_EQ(log.ticks, LoopTicks(10.0, 100.0));
  EXPECT_EQ(log.simulator.pending_events(), 1u);
}

// Two periodic sources (intervals 10 and 60, so every 60 s they tie),
// an event scheduled before them and one after, all at tying times, and
// follow-ups scheduled from inside the ticks: firing order and times
// must equal the pre-scheduled loops'.
TEST(PeriodicTest, EqualTimestampOrderMatchesPreScheduling) {
  struct World {
    Simulator simulator;
    std::vector<std::pair<int, SimTime>> order;
    void Record(int tag) { order.emplace_back(tag, simulator.Now()); }
    void Tick(int tag) {
      Record(tag);
      simulator.ScheduleAfter(0.0, [this, tag] { Record(tag + 1); });
    }
  };
  auto run = [](bool periodic) {
    World world;
    Simulator& simulator = world.simulator;
    simulator.ScheduleAt(60.0, [&world] { world.Record(1); });
    if (periodic) {
      simulator.SchedulePeriodic(10.0, 600.0, [w = &world] { w->Tick(10); });
      simulator.SchedulePeriodic(60.0, 600.0, [w = &world] { w->Tick(60); });
    } else {
      for (SimTime t : LoopTicks(10.0, 600.0)) {
        simulator.ScheduleAt(t, [&world] { world.Tick(10); });
      }
      for (SimTime t : LoopTicks(60.0, 600.0)) {
        simulator.ScheduleAt(t, [&world] { world.Tick(60); });
      }
    }
    simulator.ScheduleAt(120.0, [&world] { world.Record(2); });
    simulator.RunToCompletion();
    return std::make_pair(world.order, simulator.events_processed());
  };
  const auto up_front = run(false);
  const auto periodic = run(true);
  EXPECT_EQ(periodic.first, up_front.first);
  EXPECT_EQ(periodic.second, up_front.second);
  EXPECT_EQ(up_front.first.size(), 2u + 2u * (60u + 10u));
}

TEST(EventFnTest, HoldsMoveOnlyCallable) {
  auto counter = std::make_unique<int>(0);
  int* raw = counter.get();
  EventFn fn = [boxed = std::move(counter)] { ++*boxed; };
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(*raw, 2);
}

TEST(EventFnTest, MovePreservesInlineState) {
  // Fits the 48-byte inline buffer: state moves with the EventFn.
  int hits = 0;
  std::array<char, 32> payload{};
  payload[0] = 7;
  EventFn a = [&hits, payload] { hits += payload[0]; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from is empty
  b();
  EXPECT_EQ(hits, 7);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 14);
}

TEST(EventFnTest, LargeCapturesFallBackToHeapBox) {
  int hits = 0;
  std::array<char, 128> payload{};  // > kInlineCapacity
  payload[5] = 3;
  EventFn a = [&hits, payload] { hits += payload[5]; };
  EventFn b = std::move(a);
  b();
  EXPECT_EQ(hits, 3);
  b.Reset();
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(EventFnTest, DestroysCapturesOnReset) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    EventFn fn = [held = std::move(token)] { (void)held; };
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(WelfordTest, KnownValues) {
  WelfordAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(WelfordTest, EmptyIsZero) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(WelfordTest, MergeMatchesPooledStream) {
  qsched::Rng rng(5);
  WelfordAccumulator a, b, pooled;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(3.0, 2.0);
    if (i % 3 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    pooled.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(WelfordTest, MergeWithEmpty) {
  WelfordAccumulator a, empty;
  a.Add(5.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(HistogramTest, MeanMinMaxExact) {
  Histogram histogram(0.001, 100.0);
  histogram.Add(1.0);
  histogram.Add(2.0);
  histogram.Add(3.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 2.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 3.0);
}

TEST(HistogramTest, QuantilesMonotone) {
  Histogram histogram(0.001, 1000.0);
  qsched::Rng rng(31);
  for (int i = 0; i < 20000; ++i) histogram.Add(rng.LogNormal(0.0, 1.0));
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double value = histogram.Quantile(q);
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST(HistogramTest, MedianApproximatesTrueMedian) {
  Histogram histogram(0.001, 1000.0, 40);
  qsched::Rng rng(37);
  for (int i = 0; i < 50000; ++i) histogram.Add(rng.LogNormal(0.0, 1.0));
  // Lognormal(0,1) median is 1.0.
  EXPECT_NEAR(histogram.Quantile(0.5), 1.0, 0.15);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram histogram(0.01, 10.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(HistogramTest, OutOfRangeValuesClampIntoEndBuckets) {
  Histogram histogram(1.0, 10.0);
  histogram.Add(0.0001);
  histogram.Add(1e9);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_GT(histogram.bucket_count(0), 0u);
  EXPECT_GT(histogram.bucket_count(histogram.num_buckets() - 1), 0u);
}

TEST(HistogramTest, ResetClears) {
  Histogram histogram(0.01, 10.0);
  histogram.Add(5.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.9), 0.0);
}

TEST(TimeSeriesTest, AppendAndWindows) {
  TimeSeries series;
  series.Append(1.0, 10.0);
  series.Append(2.0, 20.0);
  series.Append(3.0, 30.0);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.MeanInWindow(1.0, 3.0), 15.0);
  EXPECT_DOUBLE_EQ(series.MeanInWindow(0.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(series.MeanInWindow(5.0, 6.0), 0.0);
}

TEST(TimeSeriesTest, LastBefore) {
  TimeSeries series;
  series.Append(1.0, 10.0);
  series.Append(5.0, 50.0);
  EXPECT_DOUBLE_EQ(series.LastBefore(3.0, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(series.LastBefore(6.0, -1.0), 50.0);
  EXPECT_DOUBLE_EQ(series.LastBefore(0.5, -1.0), -1.0);
}

TEST(PercentileTest, ExactOnSmallSample) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.25), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenOrderStats) {
  std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 5.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace qsched::sim
