#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "metrics/class_outcome.h"
#include "metrics/period_collector.h"
#include "metrics/trace_writer.h"
#include "scheduler/service_class.h"
#include "workload/schedule.h"

namespace qsched::metrics {
namespace {

workload::QueryRecord MakeRecord(uint64_t id, int class_id, double cost,
                                 double submit, double start, double end) {
  workload::QueryRecord record;
  record.query_id = id;
  record.class_id = class_id;
  record.client_id = 5;
  record.type = class_id == 3 ? workload::WorkloadType::kOltp
                              : workload::WorkloadType::kOlap;
  record.cost_timerons = cost;
  record.submit_time = submit;
  record.exec_start_time = start;
  record.end_time = end;
  return record;
}

TEST(RecordLogTest, StoresUpToCapacityThenDropsOldest) {
  RecordLog log(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Add(MakeRecord(i, 1, 10.0, 0, 0, 1));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.records().front().query_id, 3u);
  EXPECT_EQ(log.records().back().query_id, 5u);
}

TEST(RecordLogTest, CapacityZeroClampsToOne) {
  RecordLog log(0);
  log.Add(MakeRecord(1, 1, 10.0, 0, 0, 1));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
  log.Add(MakeRecord(2, 1, 10.0, 0, 0, 1));
  // Still holds exactly the newest record; the older one was dropped.
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.records().back().query_id, 2u);
}

TEST(RecordLogTest, CapacityOneKeepsOnlyNewest) {
  RecordLog log(1);
  for (uint64_t i = 1; i <= 4; ++i) {
    log.Add(MakeRecord(i, 1, 10.0, 0, 0, 1));
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(log.records().back().query_id, i);
  }
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(RecordLogTest, SinkAdaptorFeedsLog) {
  RecordLog log(10);
  auto sink = log.Sink();
  sink(MakeRecord(1, 1, 10.0, 0, 0, 1));
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceWriterTest, CsvHasHeaderAndRows) {
  RecordLog log(10);
  log.Add(MakeRecord(1, 1, 1234.5, 0.0, 2.0, 10.0));
  log.Add(MakeRecord(2, 3, 20.0, 1.0, 1.0, 1.2));
  std::ostringstream out;
  WriteQueryRecordsCsv(log, out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("query_id,class_id"), std::string::npos);
  EXPECT_NE(csv.find("1,1,5,OLAP,1234.500"), std::string::npos);
  EXPECT_NE(csv.find("2,3,5,OLTP,20.000"), std::string::npos);
  // Header + 2 rows.
  int lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);
}

TEST(TraceWriterTest, SeriesCsvShape) {
  std::map<int, std::vector<double>> series;
  series[1] = {0.1, 0.2};
  series[3] = {0.5, 0.6};
  std::ostringstream out;
  WriteSeriesCsv(series, "velocity", out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("period,velocity_class1,velocity_class3"),
            std::string::npos);
  EXPECT_NE(csv.find("1,0.100000,0.500000"), std::string::npos);
  EXPECT_NE(csv.find("2,0.200000,0.600000"), std::string::npos);
}

TEST(PeriodCollectorCancelTest, CancelledRecordsExcludedFromMeans) {
  workload::WorkloadSchedule schedule(10.0, {1});
  schedule.AddPeriod({1});
  PeriodCollector collector(&schedule);
  workload::QueryRecord ok = MakeRecord(1, 1, 100.0, 0.0, 1.0, 3.0);
  collector.Add(ok);
  workload::QueryRecord cancelled = MakeRecord(2, 1, 100.0, 0.0, 5.0, 5.0);
  cancelled.cancelled = true;
  collector.Add(cancelled);
  const ClassOutcome& cell = collector.Get(0, 1);
  EXPECT_EQ(cell.completed, 1u);
  EXPECT_EQ(cell.cancelled, 1u);
  EXPECT_NEAR(cell.MeanResponse(), 3.0, 1e-12);
  EXPECT_EQ(collector.Overall(1).cancelled, 1u);
}

TEST(ClassOutcomeTest, MeansExcludeCancelledAndJudgeByGoalKind) {
  ClassOutcome outcome;
  EXPECT_EQ(outcome.MeanResponse(), 0.0);
  outcome.Add(MakeRecord(1, 3, 50.0, 0.0, 0.0, 0.2));   // velocity 1
  outcome.Add(MakeRecord(2, 3, 50.0, 0.0, 0.2, 0.4));   // velocity 0.5
  workload::QueryRecord cancelled = MakeRecord(3, 3, 50.0, 0.0, 0.0, 9.0);
  cancelled.cancelled = true;
  outcome.Add(cancelled);
  EXPECT_EQ(outcome.completed, 2u);
  EXPECT_EQ(outcome.cancelled, 1u);
  EXPECT_NEAR(outcome.MeanResponse(), 0.3, 1e-12);
  EXPECT_NEAR(outcome.MeanVelocity(), 0.75, 1e-12);
  EXPECT_NEAR(outcome.MeanExec(), 0.2, 1e-12);

  const sched::ServiceClassSet classes = sched::MakePaperClasses();
  const sched::ServiceClassSpec& oltp = *classes.Find(3);  // 0.25 s goal
  EXPECT_EQ(outcome.Measured(oltp), outcome.MeanResponse());
  EXPECT_FALSE(outcome.MeetsGoal(oltp));
  const sched::ServiceClassSpec& olap = *classes.Find(1);  // velocity 0.4
  EXPECT_EQ(outcome.Measured(olap), outcome.MeanVelocity());
  EXPECT_TRUE(outcome.MeetsGoal(olap));
  // No completions: no data, so never met.
  EXPECT_FALSE(ClassOutcome().MeetsGoal(olap));

  ClassOutcome sum;
  sum += outcome;
  sum += outcome;
  EXPECT_EQ(sum.completed, 4u);
  EXPECT_EQ(sum.cancelled, 2u);
  EXPECT_EQ(sum.MeanResponse(), outcome.MeanResponse());
}

// The tally against a direct recomputation: every completion summed in
// order for the run mean, and a map of every end-time bucket for the
// attainment. Both must agree bit for bit.
TEST(OutcomeTallyTest, MatchesAMapOfEveryBucket) {
  const sched::ServiceClassSet classes = sched::MakePaperClasses();
  constexpr double kBucket = 15.0;
  OutcomeTally tally(classes, kBucket);
  std::map<int, std::pair<double, uint64_t>> run;
  std::map<int, std::map<int64_t, std::pair<double, uint64_t>>> buckets;
  Rng rng(11);
  double now = 0.0;
  for (uint64_t i = 0; i < 5000; ++i) {
    now += 0.05 * static_cast<double>(rng.NextU32() % 200);
    const int class_id = 1 + static_cast<int>(rng.NextU32() % 3);
    const double response = 0.01 * static_cast<double>(
        1 + rng.NextU32() % (class_id == 3 ? 50 : 4000));
    const double wait = response * 0.001 *
                        static_cast<double>(rng.NextU32() % 1000);
    workload::QueryRecord record = MakeRecord(
        i, class_id, 1.0, now - response, now - response + wait, now);
    tally.Add(record);
    const sched::ServiceClassSpec& spec = *classes.Find(class_id);
    const double value = spec.goal_kind == sched::GoalKind::kVelocityFloor
                             ? record.Velocity()
                             : record.ResponseSeconds();
    run[class_id].first += value;
    ++run[class_id].second;
    auto& slot = buckets[class_id][static_cast<int64_t>(
        std::floor(record.end_time / kBucket))];
    slot.first += value;
    ++slot.second;
  }
  for (const sched::ServiceClassSpec& spec : classes.classes()) {
    const ClassOutcome& total = tally.Total(spec.class_id);
    const auto& [sum, count] = run[spec.class_id];
    ASSERT_GT(count, 0u);
    EXPECT_EQ(total.completed, count);
    EXPECT_EQ(total.Measured(spec), sum / static_cast<double>(count));
    uint64_t met = 0;
    for (const auto& [bucket, slot] : buckets[spec.class_id]) {
      const double mean = slot.first / static_cast<double>(slot.second);
      if (spec.GoalRatio(mean) >= 1.0) ++met;
    }
    const double attainment =
        static_cast<double>(met) /
        static_cast<double>(buckets[spec.class_id].size());
    EXPECT_GT(attainment, 0.0);
    EXPECT_LT(attainment, 1.0);
    EXPECT_EQ(tally.Attainment(spec.class_id), attainment)
        << "class " << spec.class_id;
  }
}

TEST(OutcomeTallyTest, LateCompletionJoinsTheOpenBucket) {
  const sched::ServiceClassSet classes = sched::MakePaperClasses();
  OutcomeTally tally(classes, 10.0);
  EXPECT_EQ(tally.Attainment(3), 0.0);  // no data yet
  tally.Add(MakeRecord(1, 3, 1.0, 4.9, 4.9, 5.0));    // bucket 0: met
  tally.Add(MakeRecord(2, 3, 1.0, 14.0, 14.0, 15.0));  // bucket 1: missed
  EXPECT_EQ(tally.Attainment(3), 0.5);
  // Ends in bucket 0, arrives after bucket 1 opened: it joins bucket 1
  // (mean 0.55 s, still missed) instead of reopening bucket 0.
  tally.Add(MakeRecord(3, 3, 1.0, 8.9, 8.9, 9.0));
  EXPECT_EQ(tally.Attainment(3), 0.5);
  EXPECT_EQ(tally.Total(3).completed, 3u);
  // A cancelled query counts but opens no bucket with data; a class
  // outside the set is ignored.
  workload::QueryRecord cancelled = MakeRecord(4, 3, 1.0, 20.0, 0.0, 25.0);
  cancelled.cancelled = true;
  tally.Add(cancelled);
  tally.Add(MakeRecord(5, 9, 1.0, 0.0, 0.0, 30.0));
  EXPECT_EQ(tally.Total(3).cancelled, 1u);
  EXPECT_EQ(tally.Attainment(3), 0.5);
  EXPECT_EQ(tally.Total(9).completed, 0u);
  EXPECT_EQ(tally.Attainment(9), 0.0);
}

}  // namespace
}  // namespace qsched::metrics
