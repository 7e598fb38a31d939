#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "replay/shadow_planner.h"
#include "rt/gateway.h"
#include "rt/loadgen.h"
#include "rt/runtime.h"
#include "rt/wall_clock.h"
#include "scheduler/service_class.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::rt {
namespace {

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(WallClockTest, NowAdvancesWithTimeScale) {
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  double t0 = clock.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double t1 = clock.Now();
  // 20 ms wall at scale 100 is 2 model seconds; allow generous slack.
  EXPECT_GE(t1 - t0, 1.0);
  EXPECT_LT(t1 - t0, 60.0);
}

TEST(WallClockTest, TimersFireInOrderWithFifoTieBreak) {
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  double base = clock.Now() + 2.0;  // 20 ms wall from now
  clock.ScheduleAt(base + 1.0, [&] { record(3); });
  clock.ScheduleAt(base, [&] { record(1); });
  clock.ScheduleAt(base, [&] { record(2); });  // same timestamp: FIFO
  sim::EventId cancelled = clock.ScheduleAt(base + 0.5, [&] { record(9); });
  EXPECT_TRUE(clock.Cancel(cancelled));
  EXPECT_FALSE(clock.Cancel(cancelled));  // already cancelled
  clock.Start();
  // Wait for all three to fire (wall deadline ~30 ms, allow 5 s).
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> lock(mu);
    if (order.size() >= 3) break;
  }
  clock.Stop();
  // timers_fired() takes the core lock, which timer callbacks hold while
  // taking `mu`: read it before taking `mu`.
  EXPECT_EQ(clock.timers_fired(), 3u);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(WallClockTest, PastTimesClampAndStillFire) {
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  clock.Start();
  std::atomic<bool> fired{false};
  clock.ScheduleAt(-50.0, [&] { fired.store(true); });
  for (int i = 0; i < 500 && !fired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fired.load());
  clock.Stop();
}

TEST(WallClockTest, CallbacksMayScheduleFollowOnEvents) {
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  std::atomic<int> hops{0};
  clock.Start();
  // Each hop schedules the next from inside a timer callback — the
  // DES idiom the core lock must support re-entrantly.
  std::function<void()> hop = [&] {
    if (hops.fetch_add(1) < 4) clock.ScheduleAfter(0.1, [&] { hop(); });
  };
  clock.ScheduleAfter(0.1, [&] { hop(); });
  for (int i = 0; i < 500 && hops.load() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(hops.load(), 5);
  clock.Stop();
}

// Reserved ranks order equal-timestamp timers on the wall clock exactly
// as on the Simulator: by rank, not by when they were scheduled.
TEST(WallClockTest, ReservedRanksKeepFifoOrder) {
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  double base = clock.Now() + 2.0;  // 20 ms wall from now
  const uint64_t first = clock.ReserveSequence(2);
  clock.ScheduleAt(base, [&] { record(3); });
  clock.ScheduleAtSequence(base, first + 1, [&] { record(2); });
  clock.ScheduleAtSequence(base, first, [&] { record(1); });
  clock.Start();
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> lock(mu);
    if (order.size() >= 3) break;
  }
  clock.Stop();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Timer ids are the queue's slot + generation ids: a freed slot is
// reused by the next timer, and the old id must not reach the new one —
// whether the old timer was cancelled or fired.
TEST(WallClockTest, StaleIdCannotCancelAReusedSlot) {
  constexpr sim::EventId kSlotMask = 0xffffffffu;
  WallClock clock(WallClock::Options{/*time_scale=*/100.0});
  std::atomic<int> fired{0};
  auto wait_for_fired = [&](int n) {
    for (int i = 0; i < 500 && fired.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  const sim::EventId cancelled = clock.ScheduleAfter(1000.0, [] {});
  EXPECT_NE(cancelled, 0u);
  EXPECT_TRUE(clock.Cancel(cancelled));
  const sim::EventId reuser = clock.ScheduleAfter(0.0, [&] { ++fired; });
  ASSERT_EQ(reuser & kSlotMask, cancelled & kSlotMask);
  EXPECT_NE(reuser, cancelled);
  EXPECT_FALSE(clock.Cancel(cancelled));
  clock.Start();
  wait_for_fired(1);
  EXPECT_EQ(fired.load(), 1);

  const sim::EventId done = clock.ScheduleAfter(0.0, [&] { ++fired; });
  wait_for_fired(2);
  ASSERT_EQ(fired.load(), 2);
  const sim::EventId pending = clock.ScheduleAfter(1000.0, [&] { ++fired; });
  ASSERT_EQ(pending & kSlotMask, done & kSlotMask);
  EXPECT_FALSE(clock.Cancel(done));
  EXPECT_EQ(clock.timers_pending(), 1u);
  EXPECT_TRUE(clock.Cancel(pending));
  clock.Stop();
  EXPECT_EQ(clock.timers_fired(), 2u);
}

// Timers later than the pending earliest one cannot shorten the clock
// thread's sleep, so scheduling them must not wake it.
TEST(WallClockTest, LaterTimersDoNotWakeTheClockThread) {
  obs::Telemetry telemetry;
  const obs::Counter* wakeups =
      telemetry.registry.GetCounter("qsched_rt_clock_wakeups_total");
  WallClock clock;  // real time
  clock.set_telemetry(&telemetry);
  clock.Start();
  std::atomic<bool> fired{false};
  clock.ScheduleAfter(0.3, [&] { fired.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t before = wakeups->value();
  std::thread scheduler([&] {
    for (int i = 0; i < 1000; ++i) {
      clock.ScheduleAfter(60.0 + i * 0.001, [] {});
    }
  });
  scheduler.join();
  EXPECT_EQ(clock.timers_pending(), 1001u);
  // A handful allows for spurious wakeups; notifying on every insert
  // shows up as dozens.
  EXPECT_LE(wakeups->value() - before, 5u);
  EXPECT_FALSE(fired.load());
  clock.Stop();
}

TEST(LoadGenTest, RateFactorPatterns) {
  ArrivalShape shape;
  shape.pattern = ArrivalPattern::kConstant;
  EXPECT_DOUBLE_EQ(shape.RateFactorAt(0.37), 1.0);

  shape.pattern = ArrivalPattern::kBursty;
  shape.burst_period_seconds = 1.0;
  shape.burst_duty = 0.3;
  shape.burst_factor = 4.0;
  EXPECT_DOUBLE_EQ(shape.RateFactorAt(0.1), 4.0);
  EXPECT_DOUBLE_EQ(shape.RateFactorAt(0.9), 1.0);
  EXPECT_DOUBLE_EQ(shape.RateFactorAt(1.2), 4.0);

  shape.pattern = ArrivalPattern::kDiurnal;
  shape.diurnal_period_seconds = 4.0;
  shape.diurnal_amplitude = 0.8;
  EXPECT_NEAR(shape.RateFactorAt(1.0), 1.8, 1e-9);
  EXPECT_NEAR(shape.RateFactorAt(3.0), 0.2, 1e-9);
  // Amplitude above 1 would go negative at the trough: clamped to 0.
  shape.diurnal_amplitude = 1.5;
  EXPECT_DOUBLE_EQ(shape.RateFactorAt(3.0), 0.0);

  ArrivalPattern parsed;
  EXPECT_TRUE(ArrivalPatternFromString("bursty", &parsed));
  EXPECT_EQ(parsed, ArrivalPattern::kBursty);
  EXPECT_FALSE(ArrivalPatternFromString("nope", &parsed));
}

// The PR's acceptance test (wired into CTest as rt_gateway_smoke and run
// under the TSan and ASan gates): a >= 2 s wall-clock mixed OLAP + OLTP
// run at >= 1000 submissions/second through the gateway, with exact
// query conservation (no query lost, none completed twice) and at least
// two planning cycles in the planner audit JSONL.
TEST(RtRuntimeTest, GatewaySmoke) {
  obs::Telemetry telemetry;

  RuntimeOptions options;
  options.time_scale = 60.0;  // 1 wall second = 1 paper-scale minute
  options.horizon_model_seconds = 3600.0;
  options.seed = 42;
  options.gateway.queue_capacity = 8192;
  options.gateway.workers = 4;
  options.scheduler.control_interval_seconds = 15.0;  // 0.25 s wall
  options.telemetry = &telemetry;

  sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);

  // Duplicate / loss detection over everything that completes.
  std::mutex seen_mu;
  std::unordered_set<uint64_t> seen_ids;
  std::atomic<uint64_t> duplicate_completions{0};
  runtime.gateway().set_on_complete(
      [&](const workload::QueryRecord& record) {
        std::lock_guard<std::mutex> lock(seen_mu);
        if (!seen_ids.insert(record.query_id).second) {
          duplicate_completions.fetch_add(1);
        }
      });

  auto wall_start = std::chrono::steady_clock::now();
  runtime.Start();

  // Mixed workload, OLTP-heavy like the paper's testbed. A light TPC-H
  // scale keeps individual scans short enough for a bounded drain.
  workload::TpchWorkloadParams tpch;
  tpch.scale_factor = 0.1;
  workload::TpchWorkload olap1(tpch, /*seed=*/7);
  workload::TpchWorkload olap2(tpch, /*seed=*/8);
  workload::TpccWorkloadParams tpcc;
  workload::TpccWorkload oltp(tpcc, /*seed=*/9);

  LoadGenOptions load;
  load.shape.pattern = ArrivalPattern::kBursty;
  load.qps = 1500.0;
  load.duration_wall_seconds = 2.1;
  load.seed = 1234;
  load.shape.burst_period_seconds = 0.5;
  load.shape.burst_duty = 0.4;
  load.shape.burst_factor = 2.0;
  LoadGenerator loadgen(&runtime.gateway(),
                        {{&olap1, 1, 3.0}, {&olap2, 2, 3.0}, {&oltp, 3, 94.0}},
                        load, &telemetry);
  loadgen.Start();
  loadgen.Join();
  double feed_seconds = WallSecondsSince(wall_start);

  Runtime::Stats stats = runtime.Shutdown(/*drain_timeout_wall_seconds=*/120.0);

  // Sustained offered load: >= 2 s of wall time at >= 1000 queries/s.
  EXPECT_GE(feed_seconds, 2.0);
  EXPECT_GE(static_cast<double>(loadgen.offered()),
            1000.0 * load.duration_wall_seconds)
      << "offered " << loadgen.offered() << " over "
      << load.duration_wall_seconds << " s";

  // Conservation: every producer-side query is accounted for exactly
  // once — accepted or rejected at the gate, and every accepted query
  // admitted and completed exactly once.
  EXPECT_TRUE(stats.drained) << "in flight after drain: "
                             << stats.admitted - stats.completed;
  EXPECT_EQ(stats.accepted + stats.rejected, loadgen.offered());
  EXPECT_EQ(loadgen.shed(), stats.rejected);
  EXPECT_EQ(stats.admitted, stats.accepted);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(duplicate_completions.load(), 0u);
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    EXPECT_EQ(seen_ids.size(), stats.completed);
  }
  // The run actually pushed real volume through the stack.
  EXPECT_GE(stats.completed, 2000u);

  // The live planner timer planned repeatedly and left an audit trail.
  EXPECT_GE(stats.planning_cycles, 2u);
  std::ostringstream jsonl;
  telemetry.recorder.WriteJsonl(jsonl);
  std::string text = jsonl.str();
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_GE(lines, 2u) << "planner audit JSONL has too few records";

  // Model components really ran on the wall clock.
  EXPECT_GT(stats.timers_fired, 0u);
  EXPECT_GT(stats.model_seconds, 2.0 * options.time_scale * 0.9);
  EXPECT_GT(runtime.engine().queries_completed(), 0u);
}

// The capture summary's live line is the per-query mean over the run,
// the estimator every what-if world uses: class 3's measured response is
// the mean of every response the interceptor exported, and the OLAP
// classes' measured velocity the mean of every velocity the Monitor saw.
TEST(RtRuntimeTest, CaptureSummaryIsThePerQueryMean) {
  obs::Telemetry telemetry;
  RuntimeOptions options;
  options.time_scale = 600.0;
  options.seed = 42;
  options.gateway.workers = 2;
  options.scheduler.control_interval_seconds = 60.0;  // 0.1 s wall
  options.telemetry = &telemetry;
  const sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);
  runtime.Start();

  workload::TpchWorkloadParams tpch;
  tpch.scale_factor = 0.1;
  workload::TpchWorkload olap1(tpch, /*seed=*/7);
  workload::TpchWorkload olap2(tpch, /*seed=*/8);
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/9);
  LoadGenOptions load;
  load.qps = 400.0;
  load.duration_wall_seconds = 2.0;
  load.seed = 42;
  LoadGenerator loadgen(
      &runtime.gateway(),
      {{&olap1, 1, 15.0}, {&olap2, 2, 15.0}, {&oltp, 3, 70.0}}, load,
      &telemetry);
  loadgen.Start();
  loadgen.Join();
  Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/120.0);
  ASSERT_TRUE(stats.drained);
  ASSERT_GE(stats.planning_cycles, 2u);

  const replay::TraceSummary summary =
      replay::MakeCaptureSummary(options.scheduler, runtime.scheduler(),
                                 classes);
  EXPECT_EQ(summary.control_interval_seconds, 60.0);
  ASSERT_EQ(summary.classes.size(), 3u);
  for (const replay::TraceSummaryClass& cls : summary.classes) {
    const std::string labels = "class=\"" + std::to_string(cls.class_id) +
                               "\"";
    const obs::Histogram* hist = telemetry.registry.GetHistogram(
        cls.class_id == 3 ? "qsched_response_seconds"
                          : "qsched_monitor_velocity_ratio",
        labels);
    ASSERT_GT(hist->count(), 0u) << labels;
    const double mean = hist->sum() / static_cast<double>(hist->count());
    EXPECT_NEAR(cls.measured, mean, 1e-9 * mean) << labels;
    EXPECT_GE(cls.attainment, 0.0);
    EXPECT_LE(cls.attainment, 1.0);
  }
}

// With default options the OLTP sampler runs until Shutdown: it still
// takes snapshots after an hour of model time.
TEST(RtRuntimeTest, DefaultOptionsKeepSamplingPastAnHour) {
  RuntimeOptions options;
  options.time_scale = 6000.0;  // one hour of model time in 0.6 s
  Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();
  auto snapshots = [&runtime] {
    return runtime.clock().Run([&runtime] {
      return runtime.scheduler().snapshot_monitor().snapshots_taken();
    });
  };
  auto wait_for_model_time = [&runtime](double model_seconds) {
    for (int i = 0; i < 1000 && runtime.clock().Now() < model_seconds;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  wait_for_model_time(3700.0);
  const uint64_t past_an_hour = snapshots();
  wait_for_model_time(4200.0);
  EXPECT_GT(snapshots(), past_an_hour);
  // An hour's horizon ends at 360 snapshots; a lagging clock thread
  // still catches up past it.
  for (int i = 0; i < 400 && snapshots() <= 400u; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(snapshots(), 400u);
  // One timer each for the sampler and the planner, not one per tick.
  EXPECT_LE(runtime.clock().timers_pending(), 2u);
  runtime.Shutdown();
}

// A long horizon arms one sampler timer at a time: the pending set
// holds it and the planner's one timer, not one timer per tick.
TEST(RtRuntimeTest, LongHorizonArmsOneSamplerTimer) {
  RuntimeOptions options;
  options.time_scale = 60.0;
  options.horizon_model_seconds = 1e6;  // 100 000 ticks of 10 s
  Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();
  EXPECT_LE(runtime.clock().timers_pending(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_LE(runtime.clock().timers_pending(), 2u);
  EXPECT_GE(runtime.clock().timers_fired(), 1u);
  runtime.Shutdown();
}

// The planner is a model timer: cycle k runs at model time k * interval
// or later, and by Shutdown every cycle that was due has run, give or
// take the one the clock thread may still have been sleeping towards.
TEST(RtRuntimeTest, PlannerRunsOnTheModelSchedule) {
  constexpr double kInterval = 15.0;
  obs::Telemetry telemetry;
  RuntimeOptions options;
  options.time_scale = 60.0;  // one cycle per 0.25 s wall
  options.scheduler.control_interval_seconds = kInterval;
  options.telemetry = &telemetry;
  Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  Runtime::Stats stats = runtime.Shutdown();

  const auto due =
      static_cast<uint64_t>(std::floor(stats.model_seconds / kInterval));
  EXPECT_LE(stats.planning_cycles, due);
  EXPECT_GE(stats.planning_cycles + 1, due);
  EXPECT_GE(stats.planning_cycles, 3u);
  const std::vector<obs::IntervalRow> records = telemetry.recorder.Rows();
  ASSERT_EQ(records.size(), stats.planning_cycles);
  for (size_t k = 0; k < records.size(); ++k) {
    EXPECT_GE(records[k].sim_time, kInterval * static_cast<double>(k + 1))
        << "cycle " << k + 1;
  }
}

// Batched admission under concurrent producers: whatever the batch size,
// offered == accepted + rejected and admitted == completed, with the
// batch-occupancy histogram never exceeding the configured cap. Runs in
// the TSan gate, so the PopBatch -> RunBatch handoff is raced for real.
TEST(RtRuntimeTest, BatchedAdmissionConservesAcrossProducers) {
  for (size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
    obs::Telemetry telemetry;
    RuntimeOptions options;
    options.time_scale = 240.0;
    options.gateway.queue_capacity = 4096;
    options.gateway.workers = 4;
    options.gateway.admit_batch_size = batch;
    options.telemetry = &telemetry;
    sched::ServiceClassSet classes = sched::MakePaperClasses();
    Runtime runtime(classes, options);
    runtime.Start();

    constexpr int kProducers = 8;
    constexpr int kPerProducer = 150;
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        workload::TpccWorkload oltp(workload::TpccWorkloadParams{},
                                    /*seed=*/100 + p);
        for (int i = 0; i < kPerProducer; ++i) {
          workload::Query query = oltp.Next();
          query.class_id = 3;
          query.client_id = p;
          if (runtime.gateway().Submit(std::move(query))) {
            accepted.fetch_add(1);
          } else {
            rejected.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    Runtime::Stats stats =
        runtime.Shutdown(/*drain_timeout_wall_seconds=*/120.0);

    EXPECT_TRUE(stats.drained) << "batch " << batch;
    EXPECT_EQ(accepted.load() + rejected.load(),
              static_cast<uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(stats.accepted, accepted.load()) << "batch " << batch;
    EXPECT_EQ(stats.admitted, stats.accepted) << "batch " << batch;
    EXPECT_EQ(stats.completed, stats.accepted) << "batch " << batch;

    obs::Histogram* occupancy =
        telemetry.registry.GetHistogram("qsched_rt_batch_occupancy");
    EXPECT_GT(occupancy->count(), 0u) << "batch " << batch;
    EXPECT_LE(occupancy->max(), static_cast<double>(batch))
        << "batch " << batch;
    EXPECT_EQ(
        telemetry.registry.GetGauge("qsched_rt_admit_batch_size")->value(),
        static_cast<double>(batch));
  }
}

// Shutdown racing the producers mid-batch: queries already accepted into
// the queue are still admitted and completed; later offers are rejected
// with kShuttingDown; nothing is lost in a half-drained batch.
TEST(RtRuntimeTest, ShutdownMidBatchConservesAdmittedQueries) {
  RuntimeOptions options;
  options.time_scale = 240.0;
  options.gateway.queue_capacity = 1024;
  options.gateway.workers = 4;
  options.gateway.admit_batch_size = 16;
  sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);
  runtime.Start();

  constexpr int kProducers = 8;
  constexpr int kMaxPerProducer = 3000;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> shutdown_rejects{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      workload::TpccWorkload oltp(workload::TpccWorkloadParams{},
                                  /*seed=*/200 + p);
      for (int i = 0; i < kMaxPerProducer; ++i) {
        workload::Query query = oltp.Next();
        query.class_id = 3;
        query.client_id = p;
        RejectReason reason = RejectReason::kQueueFull;
        if (runtime.gateway().Offer(std::move(query), nullptr, &reason)) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
          if (reason == RejectReason::kShuttingDown) {
            shutdown_rejects.fetch_add(1);
            break;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/120.0);
  for (auto& t : producers) t.join();

  EXPECT_TRUE(stats.drained);
  EXPECT_GT(accepted.load(), 0u);
  EXPECT_GT(shutdown_rejects.load(), 0u)
      << "shutdown did not race the producers";
  // Accepted is final once the queue closes, so the post-drain snapshot
  // agrees with the producers' own count; every accepted query was
  // admitted and completed even when the shutdown landed mid-batch.
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.admitted, stats.accepted);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(runtime.gateway().rejected(), rejected.load());
}

// Backpressure end-to-end: a tiny queue with blocking submission never
// sheds, and every query still completes exactly once.
TEST(RtRuntimeTest, BlockingSubmissionBackpressure) {
  RuntimeOptions options;
  options.time_scale = 120.0;
  options.gateway.queue_capacity = 2;
  options.gateway.workers = 1;
  options.scheduler.control_interval_seconds = 30.0;

  sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);
  runtime.Start();

  workload::TpccWorkloadParams tpcc;
  workload::TpccWorkload oltp(tpcc, /*seed=*/5);
  for (int i = 0; i < 200; ++i) {
    workload::Query query = oltp.Next();
    query.class_id = 3;
    query.client_id = i % 8;
    ASSERT_TRUE(runtime.gateway().Submit(std::move(query)));
  }
  Runtime::Stats stats = runtime.Shutdown(/*drain_timeout_wall_seconds=*/60.0);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.accepted, 200u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 200u);
}

// After Shutdown the gateway refuses new work instead of losing it
// silently.
TEST(RtRuntimeTest, SubmissionAfterShutdownIsRejected) {
  RuntimeOptions options;
  options.time_scale = 120.0;
  sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);
  runtime.Start();
  runtime.Shutdown();

  workload::TpccWorkloadParams tpcc;
  workload::TpccWorkload oltp(tpcc, /*seed=*/5);
  workload::Query query = oltp.Next();
  query.class_id = 3;
  EXPECT_FALSE(runtime.gateway().Offer(std::move(query)));
}

/// Frontend that swallows queries without completing them, so the
/// gateway queue stays exactly as the test filled it.
class BlackholeFrontend : public workload::QueryFrontend {
 public:
  void Submit(const workload::Query&, CompleteFn) override {}
};

// The two rejection reasons are reported distinctly, with matching
// per-reason counters and telemetry labels.
TEST(RtRuntimeTest, OfferReportsRejectReason) {
  WallClock clock(WallClock::Options{/*time_scale=*/1.0});
  BlackholeFrontend frontend;
  obs::Telemetry telemetry;
  GatewayOptions options;
  options.queue_capacity = 2;
  // Workers never started: the queue fills and stays full.
  Gateway gateway(&clock, &frontend, options, &telemetry);

  workload::TpccWorkloadParams tpcc;
  workload::TpccWorkload oltp(tpcc, /*seed=*/5);
  EXPECT_TRUE(gateway.Offer(oltp.Next()));
  EXPECT_TRUE(gateway.Offer(oltp.Next()));
  RejectReason reason = RejectReason::kShuttingDown;
  EXPECT_FALSE(gateway.Offer(oltp.Next(), nullptr, &reason));
  EXPECT_EQ(reason, RejectReason::kQueueFull);
  EXPECT_EQ(gateway.rejected_queue_full(), 1u);
  EXPECT_EQ(gateway.rejected_shutting_down(), 0u);

  gateway.Drain();
  reason = RejectReason::kQueueFull;
  EXPECT_FALSE(gateway.Offer(oltp.Next(), nullptr, &reason));
  EXPECT_EQ(reason, RejectReason::kShuttingDown);
  EXPECT_FALSE(gateway.Submit(oltp.Next(), nullptr, &reason));
  EXPECT_EQ(reason, RejectReason::kShuttingDown);
  EXPECT_EQ(gateway.rejected_shutting_down(), 2u);
  EXPECT_EQ(gateway.rejected(), 3u);

  obs::Registry& reg = telemetry.registry;
  EXPECT_EQ(reg.GetCounter("qsched_rt_rejected_total")->value(), 3u);
  EXPECT_EQ(reg.GetCounter("qsched_rt_rejected_by_reason_total",
                           "reason=\"queue_full\"")
                ->value(),
            1u);
  EXPECT_EQ(reg.GetCounter("qsched_rt_rejected_by_reason_total",
                           "reason=\"shutting_down\"")
                ->value(),
            2u);
}

// A live runtime with telemetry attached keeps no per-query state once
// its queries complete: nothing reads spans here, so none are recorded,
// neither open nor closed, however many queries went through; and the QP
// control table holds no row for a finished query.
TEST(RtRuntimeTest, LiveTelemetryKeepsNoPerQueryState) {
  obs::Telemetry telemetry;
  RuntimeOptions options;
  options.time_scale = 6000.0;
  options.gateway.workers = 2;
  options.telemetry = &telemetry;
  Runtime runtime(sched::MakePaperClasses(), options);
  std::atomic<uint64_t> completed{0};
  runtime.gateway().set_on_complete(
      [&](const workload::QueryRecord&) { completed.fetch_add(1); });
  runtime.Start();

  // Mostly OLTP with an intercepted OLAP query every 20th, so both the
  // bypass and the interceptor's enqueue/dispatch transitions run.
  workload::TpchWorkloadParams tpch;
  tpch.scale_factor = 0.1;
  workload::TpchWorkload olap(tpch, /*seed=*/3);
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/4);
  constexpr int kQueries = 5000;
  for (int i = 0; i < kQueries; ++i) {
    const bool is_olap = i % 20 == 0;
    workload::Query query = is_olap ? olap.Next() : oltp.Next();
    query.class_id = is_olap ? 1 + (i / 20) % 2 : 3;
    query.client_id = i % 8;
    ASSERT_TRUE(runtime.gateway().Submit(std::move(query)));
  }
  runtime.gateway().Drain();
  ASSERT_TRUE(runtime.gateway().WaitIdle(/*timeout_wall_seconds=*/120.0));
  EXPECT_EQ(completed.load(), static_cast<uint64_t>(kQueries));

  runtime.clock().Run([&telemetry, &runtime] {
    EXPECT_EQ(runtime.scheduler().interceptor().control_table().size(),
              0u);
    EXPECT_EQ(telemetry.spans.open_count(), 0u);
    EXPECT_EQ(telemetry.spans.closed_total(), 0u);
    EXPECT_TRUE(telemetry.spans.closed().empty());
  });
  // The run did flow through the instrumented scheduler.
  EXPECT_EQ(telemetry.registry.GetCounter("qsched_qp_intercepted_total")
                ->value(),
            static_cast<uint64_t>(kQueries / 20));

  Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/60.0);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
}

// A live server keeps a fixed window of planner history: at time scale
// 6000 the planner runs every 10 ms wall, so well past the window every
// per-interval store and the scheduler's cost-limit history hold
// kLiveHistoryIntervals entries while the counters cover every cycle.
// With KeepFullHistory() the same run keeps every cycle.
TEST(RtRuntimeTest, LiveStoresKeepAWindowOfPlannerHistory) {
  constexpr uint64_t kCycles = 3 * obs::kLiveHistoryIntervals;
  for (bool full : {false, true}) {
    obs::Telemetry telemetry;
    if (full) telemetry.KeepFullHistory();
    RuntimeOptions options;
    options.time_scale = 6000.0;
    options.scheduler.control_interval_seconds = 60.0;
    options.telemetry = &telemetry;
    Runtime runtime(sched::MakePaperClasses(), options);
    runtime.Start();
    workload::TpccWorkload oltp(workload::TpccWorkloadParams{},
                                /*seed=*/5);
    auto cycles = [&runtime] {
      return runtime.clock().Run(
          [&runtime] { return runtime.scheduler().planning_cycles(); });
    };
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; cycles() < kCycles && WallSecondsSince(start) < 60.0;
         ++i) {
      workload::Query query = oltp.Next();
      query.class_id = 3;
      query.client_id = i % 8;
      runtime.gateway().Offer(std::move(query));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Runtime::Stats stats = runtime.Shutdown();
    ASSERT_GE(stats.planning_cycles, kCycles) << "full " << full;

    const size_t kept =
        full ? stats.planning_cycles : obs::kLiveHistoryIntervals;
    EXPECT_EQ(telemetry.recorder.size(), kept) << "full " << full;
    EXPECT_EQ(telemetry.recorder.size() + telemetry.recorder.dropped(),
              stats.planning_cycles);
    EXPECT_EQ(telemetry.recorder.Rows().back().interval,
              stats.planning_cycles);
    if (!full) {
      // One prediction per class per interval, for the whole window.
      EXPECT_EQ(telemetry.ledger.size(), 3 * obs::kLiveHistoryIntervals);
      EXPECT_LE(telemetry.slo.Events().size(),
                obs::kLiveHistoryIntervals + 3);
    }
    for (const auto& [class_id, history] :
         runtime.scheduler().limit_history()) {
      EXPECT_EQ(history.size(), kept) << "class " << class_id;
      EXPECT_EQ(telemetry.slo.AttainmentSeries(class_id).size(), kept);
      EXPECT_EQ(telemetry.slo.intervals_observed(class_id),
                stats.planning_cycles);
    }
  }
}

// An idle gateway is idle at once, also when told to wait without
// bound: +inf must not overflow into a past (or UB) deadline.
TEST(RtRuntimeTest, WaitIdleWithoutBoundOnAnIdleGateway) {
  WallClock clock(WallClock::Options{/*time_scale=*/1.0});
  BlackholeFrontend frontend;
  Gateway gateway(&clock, &frontend, GatewayOptions{});
  gateway.Drain();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(gateway.WaitIdle(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(gateway.WaitIdle(0.0));
  EXPECT_LT(WallSecondsSince(start), 1.0);
}

// The per-query completion hook fires exactly once per accepted query,
// before the global observer, and never for rejected submissions.
TEST(RtRuntimeTest, PerQueryCompletionHookFiresExactlyOnce) {
  RuntimeOptions options;
  options.time_scale = 120.0;
  sched::ServiceClassSet classes = sched::MakePaperClasses();
  Runtime runtime(classes, options);

  std::atomic<uint64_t> global_calls{0};
  runtime.gateway().set_on_complete(
      [&](const workload::QueryRecord&) { global_calls.fetch_add(1); });
  runtime.Start();

  workload::TpccWorkloadParams tpcc;
  workload::TpccWorkload oltp(tpcc, /*seed=*/6);
  constexpr int kQueries = 20;
  std::atomic<uint64_t> hook_calls{0};
  std::atomic<uint64_t> hook_before_global{0};
  for (int i = 0; i < kQueries; ++i) {
    workload::Query query = oltp.Next();
    query.class_id = 3;
    query.client_id = i % 4;
    ASSERT_TRUE(runtime.gateway().Submit(
        std::move(query), [&](const workload::QueryRecord& record) {
          EXPECT_GT(record.query_id, 0u);
          hook_calls.fetch_add(1);
          // The per-query hook runs before the global observer sees
          // this completion.
          if (global_calls.load() < kQueries) {
            hook_before_global.fetch_add(1);
          }
        }));
  }
  Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/60.0);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(hook_calls.load(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(global_calls.load(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(hook_before_global.load(), static_cast<uint64_t>(kQueries));
}

}  // namespace
}  // namespace qsched::rt
