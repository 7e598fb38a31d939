#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "harness/experiment.h"
#include "harness/parallel.h"
#include "harness/replication.h"
#include "harness/report.h"
#include "metrics/period_collector.h"
#include "obs/telemetry.h"

namespace qsched::harness {
namespace {

workload::QueryRecord MakeRecord(int class_id, double end_time,
                                 double velocity) {
  workload::QueryRecord record;
  record.class_id = class_id;
  record.submit_time = 0.0;
  record.end_time = end_time;
  record.exec_start_time = end_time - velocity * end_time;
  return record;
}

TEST(PeriodCollectorTest, BucketsByCompletionPeriod) {
  workload::WorkloadSchedule schedule(10.0, {1});
  schedule.AddPeriod({1});
  schedule.AddPeriod({1});
  metrics::PeriodCollector collector(&schedule);
  collector.Add(MakeRecord(1, 5.0, 0.5));
  collector.Add(MakeRecord(1, 15.0, 1.0));
  collector.Add(MakeRecord(1, 99.0, 1.0));  // clamps to last period
  EXPECT_EQ(collector.Get(0, 1).completed, 1u);
  EXPECT_EQ(collector.Get(1, 1).completed, 2u);
  EXPECT_EQ(collector.Get(0, 2).completed, 0u);
  EXPECT_EQ(collector.total_records(), 3u);
  EXPECT_EQ(collector.Overall(1).completed, 3u);
}

TEST(PeriodCollectorTest, SeriesAndGoals) {
  workload::WorkloadSchedule schedule(10.0, {1});
  schedule.AddPeriod({1});
  schedule.AddPeriod({1});
  metrics::PeriodCollector collector(&schedule);
  collector.Add(MakeRecord(1, 5.0, 0.3));
  collector.Add(MakeRecord(1, 15.0, 0.9));
  ASSERT_EQ(collector.num_periods(), 2);
  EXPECT_NEAR(collector.Get(0, 1).MeanVelocity(), 0.3, 1e-9);
  EXPECT_NEAR(collector.Get(1, 1).MeanVelocity(), 0.9, 1e-9);

  sched::ServiceClassSpec spec;
  spec.class_id = 1;
  spec.goal_kind = sched::GoalKind::kVelocityFloor;
  spec.goal_value = 0.5;
  EXPECT_EQ(collector.PeriodsMeetingGoal(spec), 1);
}

TEST(PeriodCollectorTest, EmptyPeriodsNotCountedAsMet) {
  workload::WorkloadSchedule schedule(10.0, {1});
  schedule.AddPeriod({1});
  schedule.AddPeriod({1});
  metrics::PeriodCollector collector(&schedule);
  collector.Add(MakeRecord(1, 5.0, 0.9));
  sched::ServiceClassSpec spec;
  spec.class_id = 1;
  spec.goal_kind = sched::GoalKind::kVelocityFloor;
  spec.goal_value = 0.5;
  EXPECT_EQ(collector.PeriodsMeetingGoal(spec), 1);  // period 2 empty
}

TEST(HarnessTest, ValidateAcceptsDefaults) {
  ExperimentConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(HarnessTest, ValidateRejectsBadValues) {
  {
    ExperimentConfig config;
    config.period_seconds = 0.0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ExperimentConfig config;
    config.system_cost_limit = -1.0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ExperimentConfig config;
    config.engine.num_disks = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ExperimentConfig config;
    config.tpch.scale_factor = 0.0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ExperimentConfig config;
    config.qp_olap_limit_fraction = 1.5;
    EXPECT_FALSE(config.Validate().ok());
  }
}

TEST(HarnessTest, ValidateCatchesMinShareOverflow) {
  ExperimentConfig config;
  sched::ServiceClassSet classes;
  for (int id = 1; id <= 3; ++id) {
    sched::ServiceClassSpec spec;
    spec.class_id = id;
    spec.min_share = 0.5;  // 1.5 total
    classes.Add(spec);
  }
  config.classes = classes;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HarnessTest, ValidateCatchesScheduleClassMismatch) {
  ExperimentConfig config;
  workload::WorkloadSchedule schedule(100.0, {1, 2});  // class 3 missing
  schedule.AddPeriod({1, 1});
  config.schedule = schedule;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HarnessTest, ControllerKindNames) {
  EXPECT_STREQ(ControllerKindToString(ControllerKind::kNoControl),
               "no-control");
  EXPECT_STREQ(ControllerKindToString(ControllerKind::kQueryScheduler),
               "query-scheduler");
}

TEST(HarnessTest, QpThresholdsOrdered) {
  ExperimentConfig config;
  double large = 0.0, medium = 0.0;
  DeriveQpThresholds(config, &large, &medium);
  EXPECT_GT(large, medium);
  EXPECT_GT(medium, 0.0);
}

ExperimentConfig ShortConfig() {
  ExperimentConfig config;
  // Two short periods so the smoke tests run in well under a second of
  // wall time.
  workload::WorkloadSchedule schedule(120.0, {1, 2, 3});
  schedule.AddPeriod({2, 2, 10});
  schedule.AddPeriod({3, 2, 15});
  config.schedule = schedule;
  return config;
}

class ControllerSmokeTest
    : public ::testing::TestWithParam<ControllerKind> {};

TEST_P(ControllerSmokeTest, RunsAndProducesSaneSeries) {
  ExperimentConfig config = ShortConfig();
  ExperimentResult result = RunExperiment(config, GetParam());
  EXPECT_EQ(result.num_periods, 2);
  for (int cls : {1, 2, 3}) {
    ASSERT_EQ(result.velocity_series.at(cls).size(), 2u);
    for (double v : result.velocity_series.at(cls)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    for (double r : result.response_series.at(cls)) {
      EXPECT_GE(r, 0.0);
    }
  }
  // OLTP completes plenty of transactions; OLAP completes at least a few.
  EXPECT_GT(result.overall_completed.at(3), 100);
  EXPECT_GT(result.overall_completed.at(1) + result.overall_completed.at(2),
            0);
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LE(result.cpu_utilization, 1.0);
  EXPECT_GT(result.disk_utilization, 0.0);
  EXPECT_LE(result.disk_utilization, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, ControllerSmokeTest,
    ::testing::Values(ControllerKind::kNoControl,
                      ControllerKind::kQpNoPriority,
                      ControllerKind::kQpPriority,
                      ControllerKind::kQueryScheduler,
                      ControllerKind::kMpl,
                      ControllerKind::kQsDirectOltp));

TEST(HarnessTest, DeterministicForSeed) {
  ExperimentConfig config = ShortConfig();
  ExperimentResult a = RunExperiment(config, ControllerKind::kNoControl);
  ExperimentResult b = RunExperiment(config, ControllerKind::kNoControl);
  EXPECT_EQ(a.overall_completed.at(3), b.overall_completed.at(3));
  EXPECT_EQ(a.velocity_series.at(1), b.velocity_series.at(1));
  EXPECT_EQ(a.response_series.at(3), b.response_series.at(3));
}

// Golden figure series captured on the pre-rewrite simulator
// (std::priority_queue + lazy cancellation), printed with %.17g so the
// literals round-trip exactly. The DES core rewrite must keep event
// ordering — and therefore every figure — bit-for-bit identical.
TEST(HarnessTest, GoldenSeriesMatchPreRewriteSimulator) {
  ExperimentConfig config = ShortConfig();
  ExperimentResult result =
      RunExperiment(config, ControllerKind::kQueryScheduler);
  const std::vector<double> golden_v1 = {0.8303552950287697,
                                         0.89639846496452358};
  const std::vector<double> golden_v2 = {0.71103131373012074,
                                         0.91370319340812778};
  const std::vector<double> golden_r3 = {0.1336380355124675,
                                         0.23120148509097962};
  EXPECT_EQ(result.velocity_series.at(1), golden_v1);
  EXPECT_EQ(result.velocity_series.at(2), golden_v2);
  EXPECT_EQ(result.response_series.at(3), golden_r3);
  EXPECT_EQ(result.overall_completed.at(1), 7);
  EXPECT_EQ(result.overall_completed.at(2), 6);
  EXPECT_EQ(result.overall_completed.at(3), 16328);
  EXPECT_EQ(result.total_completed, 16341u);
  EXPECT_EQ(result.oltp_model_slope, 7.5000000000000002e-07);
}

TEST(ParallelForTest, CoversAllIndicesAcrossThreads) {
  std::vector<int> hits(257, 0);
  std::atomic<int> calls{0};
  ParallelFor(257, 4, [&](int i) {
    hits[static_cast<size_t>(i)] += 1;
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 257);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, SerialJobsRunInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(8, 4,
                  [](int i) {
                    if (i % 2 == 1) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, WaitDrainsAllSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
  // The pool stays usable after Wait.
  pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.Wait();
  EXPECT_EQ(done.load(), 101);
}

// The determinism contract of the parallel runner: replica fan-out
// across worker threads merges in seed order, so every aggregate is
// byte-identical to the serial run.
TEST(ParallelReplicationTest, JobsDoNotChangeResults) {
  ExperimentConfig config = ShortConfig();
  ReplicationOptions serial;
  serial.jobs = 1;
  ReplicationOptions parallel;
  parallel.jobs = 4;
  ReplicatedResult a = RunReplicated(
      config, ControllerKind::kQueryScheduler, 8, serial);
  ReplicatedResult b = RunReplicated(
      config, ControllerKind::kQueryScheduler, 8, parallel);

  ASSERT_EQ(a.replications, b.replications);
  ASSERT_EQ(a.num_periods, b.num_periods);
  for (int cls : {1, 2, 3}) {
    EXPECT_EQ(a.velocity.at(cls).mean, b.velocity.at(cls).mean);
    EXPECT_EQ(a.velocity.at(cls).stddev, b.velocity.at(cls).stddev);
    EXPECT_EQ(a.response.at(cls).mean, b.response.at(cls).mean);
    EXPECT_EQ(a.response.at(cls).stddev, b.response.at(cls).stddev);
    EXPECT_EQ(a.goal_periods_mean.at(cls), b.goal_periods_mean.at(cls));
    EXPECT_EQ(a.goal_periods_stddev.at(cls),
              b.goal_periods_stddev.at(cls));
  }
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].velocity_series, b.runs[r].velocity_series);
    EXPECT_EQ(a.runs[r].response_series, b.runs[r].response_series);
    EXPECT_EQ(a.runs[r].overall_completed, b.runs[r].overall_completed);
    EXPECT_EQ(a.runs[r].sim_events_processed,
              b.runs[r].sim_events_processed);
  }
}

TEST(ParallelReplicationTest, RecordsPerReplicaGauges) {
  ExperimentConfig config = ShortConfig();
  obs::Telemetry telemetry;
  ReplicationOptions options;
  options.jobs = 2;
  options.telemetry = &telemetry;
  RunReplicated(config, ControllerKind::kNoControl, 3, options);
  bool found_wall = false;
  bool found_eps = false;
  for (const obs::MetricSnapshot& snapshot :
       telemetry.registry.Snapshot()) {
    if (snapshot.name == "qsched_replica_wall_seconds" &&
        snapshot.labels == "replica=\"2\"") {
      found_wall = true;
      EXPECT_GT(snapshot.value, 0.0);
    }
    if (snapshot.name == "qsched_replica_events_per_second" &&
        snapshot.labels == "replica=\"0\"") {
      found_eps = true;
      EXPECT_GT(snapshot.value, 0.0);
    }
  }
  EXPECT_TRUE(found_wall);
  EXPECT_TRUE(found_eps);
}

TEST(HarnessTest, DifferentSeedsDiffer) {
  ExperimentConfig config = ShortConfig();
  ExperimentResult a = RunExperiment(config, ControllerKind::kNoControl);
  config.seed = 4242;
  ExperimentResult b = RunExperiment(config, ControllerKind::kNoControl);
  EXPECT_NE(a.overall_completed.at(3), b.overall_completed.at(3));
}

TEST(HarnessTest, QuerySchedulerRecordsLimitHistory) {
  ExperimentConfig config = ShortConfig();
  ExperimentResult result =
      RunExperiment(config, ControllerKind::kQueryScheduler);
  ASSERT_EQ(result.limit_history.size(), 3u);
  EXPECT_GT(result.limit_history.at(1).size(), 0u);
  ASSERT_EQ(result.period_mean_limits.at(3).size(), 2u);
  // Limits sum approximately to the system cost limit per decision.
  const auto& h1 = result.limit_history.at(1);
  const auto& h2 = result.limit_history.at(2);
  const auto& h3 = result.limit_history.at(3);
  for (size_t i = 0; i < h1.size(); ++i) {
    double total =
        h1.at(i).value + h2.at(i).value + h3.at(i).value;
    EXPECT_NEAR(total, config.system_cost_limit, 1.0);
  }
  EXPECT_GT(result.oltp_model_slope, 0.0);
}

TEST(HarnessTest, ReportSummaryIncludesTelemetryGauges) {
  ExperimentConfig config = ShortConfig();
  obs::Telemetry telemetry;
  config.telemetry = &telemetry;
  ExperimentResult result =
      RunExperiment(config, ControllerKind::kQueryScheduler);
  ASSERT_FALSE(result.metric_snapshot.empty());

  ReportOptions options;
  options.per_period = false;
  options.cost_limits = false;
  options.summary = true;
  std::ostringstream out;
  PrintPerformanceReport(result, sched::MakePaperClasses(), options, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("gauges:"), std::string::npos) << text;
  EXPECT_NE(text.find("qsched_engine_cpu_utilization"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("qsched_cost_limit_timerons{class=\"3\"}"),
      std::string::npos)
      << text;
}

TEST(HarnessTest, MeasureOltpResponseIncreasesWithOlapLimit) {
  ExperimentConfig config;
  double low = MeasureOltpResponse(config, 20, 6, 60000.0, 360.0);
  double high = MeasureOltpResponse(config, 20, 6, 350000.0, 360.0);
  EXPECT_GT(low, 0.0);
  EXPECT_GT(high, low);
}

TEST(HarnessTest, OlapThroughputGrowsWithLimit) {
  ExperimentConfig config;
  double tput_low = 0.0, tput_high = 0.0;
  MeasureOltpResponse(config, 0, 12, 60000.0, 360.0, &tput_low);
  MeasureOltpResponse(config, 0, 12, 300000.0, 360.0, &tput_high);
  EXPECT_GT(tput_high, tput_low);
}

}  // namespace
}  // namespace qsched::harness
