// Hammers one shared obs::Telemetry from a ThreadPool's workers — the
// exact sharing pattern the parallel replication runner uses — and
// asserts the final counts are exact; also races threads to install a
// fresh histogram's stripes. Built into the normal test binary
// and additionally run under -DQSCHED_SANITIZE=thread as part of the
// parallel_replication_tsan gate, where TSan turns any missing lock in
// the telemetry sinks into a hard failure.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/parallel.h"
#include "obs/telemetry.h"

namespace qsched::obs {
namespace {

constexpr int kWorkers = 8;
constexpr int kOpsPerWorker = 400;

TEST(TelemetryParallelTest, RegistryCountsStayExactUnderContention) {
  Telemetry telemetry;
  // Pre-register the shared handles once, like instrumented components
  // do, so workers exercise the hot (pointer-cached) path as well as
  // the registry lookup path.
  Counter* shared_counter =
      telemetry.registry.GetCounter("par_events_total");
  Gauge* shared_gauge = telemetry.registry.GetGauge("par_gauge");
  Histogram* shared_hist =
      telemetry.registry.GetHistogram("par_latency_seconds");

  harness::ThreadPool pool(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&, w] {
      // Per-worker labelled metric, looked up through the registry on
      // every iteration to contend on the registry mutex too.
      const std::string label = "worker=\"" + std::to_string(w) + "\"";
      for (int i = 0; i < kOpsPerWorker; ++i) {
        shared_counter->Inc();
        shared_gauge->Add(1.0);
        shared_hist->Record(0.001 * (i + 1));
        telemetry.registry.GetCounter("par_events_total", label)->Inc();
      }
    });
  }
  pool.Wait();

  const uint64_t expected =
      static_cast<uint64_t>(kWorkers) * kOpsPerWorker;
  EXPECT_EQ(shared_counter->value(), expected);
  EXPECT_DOUBLE_EQ(shared_gauge->value(), static_cast<double>(expected));
  EXPECT_EQ(shared_hist->count(), expected);
  EXPECT_DOUBLE_EQ(shared_hist->min(), 0.001);
  for (int w = 0; w < kWorkers; ++w) {
    const std::string label = "worker=\"" + std::to_string(w) + "\"";
    EXPECT_EQ(
        telemetry.registry.GetCounter("par_events_total", label)->value(),
        static_cast<uint64_t>(kOpsPerWorker));
  }
  // Shared counter + gauge + histogram + one labelled counter per worker.
  EXPECT_EQ(telemetry.registry.size(), 3u + kWorkers);
}

TEST(TelemetryParallelTest, FirstRecordsRaceToInstallStripes) {
  // Every thread's first Record lands on an empty histogram at once, so
  // threads hashed to one stripe race to install it. Integer samples
  // keep the per-stripe sums exact in any order, so the result must
  // equal a serial histogram fed the same values.
  constexpr int kThreads = 16;
  constexpr int kSamples = 200;
  Histogram raced;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 1; i <= kSamples; ++i) raced.Record(i);
    });
  }
  for (std::thread& thread : threads) thread.join();

  Histogram serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 1; i <= kSamples; ++i) serial.Record(i);
  }
  EXPECT_EQ(raced.count(), serial.count());
  EXPECT_EQ(raced.sum(), serial.sum());
  EXPECT_EQ(raced.buckets(), serial.buckets());
  EXPECT_EQ(raced.min(), serial.min());
  EXPECT_EQ(raced.max(), serial.max());
  EXPECT_GE(raced.stripes_allocated(), 1);
  EXPECT_LE(raced.stripes_allocated(), Histogram::kStripes);
}

TEST(TelemetryParallelTest, RecorderAcceptsConcurrentWritersAndReaders) {
  Telemetry telemetry;
  // Every write is checked below, so keep more than the live window.
  telemetry.KeepFullHistory();

  harness::ThreadPool pool(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&, w] {
      for (int i = 0; i < kOpsPerWorker; ++i) {
        IntervalRow row;
        row.interval = static_cast<uint64_t>(i + 1);
        row.sim_time = 60.0 * (i + 1);
        row.system_cost_limit = 300000.0;
        row.allocator = "utility-search";
        IntervalClassSample sample;
        sample.class_id = w + 1;
        sample.cost_limit = 1000.0 * (w + 1);
        sample.measured = 0.5;
        row.classes.push_back(sample);
        telemetry.recorder.Append(std::move(row));
        // Exports read the same store while the writers append.
        if (i % 100 == 0) {
          std::ostringstream jsonl;
          telemetry.recorder.WriteJsonl(jsonl);
          std::ostringstream csv;
          telemetry.recorder.WriteCsv(csv);
        }
      }
    });
  }
  pool.Wait();

  const size_t expected = static_cast<size_t>(kWorkers) * kOpsPerWorker;
  EXPECT_EQ(telemetry.recorder.size(), expected);
  EXPECT_EQ(telemetry.recorder.dropped(), 0u);
  // Every row survived intact: per-class totals match what was written.
  std::vector<int> rows_per_class(kWorkers + 1, 0);
  for (const IntervalRow& row : telemetry.recorder.Rows()) {
    ASSERT_EQ(row.classes.size(), 1u);
    const int id = row.classes[0].class_id;
    ASSERT_GE(id, 1);
    ASSERT_LE(id, kWorkers);
    EXPECT_DOUBLE_EQ(row.classes[0].cost_limit, 1000.0 * id);
    ++rows_per_class[id];
  }
  for (int w = 1; w <= kWorkers; ++w) {
    EXPECT_EQ(rows_per_class[w], kOpsPerWorker);
  }
  // The JSONL export holds one line per row.
  std::ostringstream jsonl;
  telemetry.recorder.WriteJsonl(jsonl);
  const std::string text = jsonl.str();
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            expected);
}

TEST(TelemetryParallelTest, LedgerAndSloMonitorPartitionByClass) {
  Telemetry telemetry;
  // Every write is checked below, so keep more than the live window.
  telemetry.KeepFullHistory();

  // Each worker owns one class id and walks its own interval sequence —
  // the per-class monotonicity contract — while all of them share the
  // ledger's and monitor's internal state.
  harness::ThreadPool pool(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&, w] {
      const int class_id = w + 1;
      const bool is_oltp = (w % 2 == 1);
      for (int i = 1; i <= kOpsPerWorker; ++i) {
        const uint64_t interval = static_cast<uint64_t>(i);
        // Resolve the previous interval's prediction, then record the
        // next one — the planner's per-cycle order.
        telemetry.ledger.Observe(interval, class_id, 1.0);
        telemetry.ledger.Predict(interval, class_id, is_oltp,
                                 /*predicted=*/1.25,
                                 /*model_slope=*/1e-5);
        // Alternate met/missed so attainment and violation events are
        // both exercised.
        const double ratio = (i % 2 == 0) ? 1.1 : 0.8;
        telemetry.slo.Observe(class_id, interval, 60.0 * i, ratio);
      }
    });
  }
  pool.Wait();

  const size_t expected = static_cast<size_t>(kWorkers) * kOpsPerWorker;
  EXPECT_EQ(telemetry.ledger.size(), expected);
  EXPECT_EQ(telemetry.ledger.dropped(), 0u);
  for (int w = 0; w < kWorkers; ++w) {
    const int class_id = w + 1;
    // Every prediction except the last resolved against the next
    // interval's Observe, with |1.0 - 1.25| = 0.25 residual each time.
    const ResidualStats stats = telemetry.ledger.StatsFor(class_id);
    EXPECT_EQ(stats.count,
              static_cast<uint64_t>(kOpsPerWorker - 1));
    EXPECT_NEAR(stats.mean_abs_error, 0.25, 1e-12);
    EXPECT_NEAR(stats.bias, -0.25, 1e-12);

    EXPECT_EQ(telemetry.slo.intervals_observed(class_id),
              static_cast<uint64_t>(kOpsPerWorker));
    EXPECT_NEAR(telemetry.slo.OverallAttainment(class_id), 0.5, 1e-12);
    // Odd intervals violate, even ones recover: one single-interval
    // event per odd interval.
    EXPECT_EQ(telemetry.slo.EventsFor(class_id).size(),
              static_cast<size_t>(kOpsPerWorker / 2));
  }
  // The OLTP classes all logged one slope point per prediction.
  EXPECT_EQ(telemetry.ledger.SlopeTrajectory().size(),
            static_cast<size_t>(kWorkers / 2) * kOpsPerWorker);
}

}  // namespace
}  // namespace qsched::obs
