#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/execution_engine.h"
#include "scheduler/dispatcher.h"
#include "scheduler/monitor.h"
#include "scheduler/perf_models.h"
#include "scheduler/query_scheduler.h"
#include "scheduler/service_class.h"
#include "scheduler/snapshot_monitor.h"
#include "scheduler/solver.h"
#include "scheduler/utility.h"
#include "sim/simulator.h"

namespace qsched::sched {
namespace {

TEST(ServiceClassTest, PaperClasses) {
  ServiceClassSet classes = MakePaperClasses();
  ASSERT_EQ(classes.size(), 3u);
  const ServiceClassSpec* class3 = classes.Find(3);
  ASSERT_NE(class3, nullptr);
  EXPECT_EQ(class3->importance, 3);
  EXPECT_EQ(class3->goal_kind, GoalKind::kAvgResponseCeiling);
  EXPECT_DOUBLE_EQ(class3->goal_value, 0.25);
  EXPECT_EQ(classes.OlapClassIds(), (std::vector<int>{1, 2}));
  EXPECT_EQ(classes.OltpClassIds(), (std::vector<int>{3}));
  EXPECT_EQ(classes.Find(9), nullptr);
}

TEST(ServiceClassTest, DuplicateIdRejected) {
  ServiceClassSet classes;
  ServiceClassSpec spec;
  spec.class_id = 1;
  EXPECT_TRUE(classes.Add(spec).ok());
  EXPECT_EQ(classes.Add(spec).code(), StatusCode::kAlreadyExists);
}

TEST(ServiceClassTest, VelocityGoalRatio) {
  ServiceClassSpec spec;
  spec.goal_kind = GoalKind::kVelocityFloor;
  spec.goal_value = 0.4;
  EXPECT_DOUBLE_EQ(spec.GoalRatio(0.4), 1.0);
  EXPECT_DOUBLE_EQ(spec.GoalRatio(0.2), 0.5);
  EXPECT_DOUBLE_EQ(spec.GoalRatio(0.8), 2.0);
}

TEST(ServiceClassTest, ResponseGoalRatioLinearScale) {
  ServiceClassSpec spec;
  spec.goal_kind = GoalKind::kAvgResponseCeiling;
  spec.goal_value = 0.25;
  // At the goal: ratio exactly 1. Better (lower) response: ratio > 1.
  EXPECT_DOUBLE_EQ(spec.GoalRatio(0.25), 1.0);
  EXPECT_GT(spec.GoalRatio(0.10), 1.0);
  EXPECT_LT(spec.GoalRatio(0.40), 1.0);
  // Linear: every extra goal-multiple of response costs the same ratio.
  double d1 = spec.GoalRatio(0.25) - spec.GoalRatio(0.50);
  double d2 = spec.GoalRatio(0.50) - spec.GoalRatio(0.75);
  EXPECT_NEAR(d1, d2, 1e-12);
  // Floor guards deep violations.
  EXPECT_GE(spec.GoalRatio(100.0), -2.0);
}

TEST(UtilityTest, ContinuousAtKinks) {
  UtilityFunction utility(0.05, 1.25, 0.3, 1.0);
  ServiceClassSpec spec;
  spec.importance = 3;
  spec.goal_kind = GoalKind::kVelocityFloor;
  spec.goal_value = 1.0;
  double eps = 1e-9;
  EXPECT_NEAR(utility.FromGoalRatio(spec, 1.0 - eps),
              utility.FromGoalRatio(spec, 1.0 + eps), 1e-6);
  EXPECT_NEAR(utility.FromGoalRatio(spec, 1.25 - eps),
              utility.FromGoalRatio(spec, 1.25 + eps), 1e-6);
}

TEST(UtilityTest, MonotoneInPerformance) {
  UtilityFunction utility;
  ServiceClassSpec spec;
  spec.importance = 2;
  spec.goal_kind = GoalKind::kVelocityFloor;
  spec.goal_value = 0.5;
  double prev = -1e9;
  for (double v = 0.0; v <= 1.0; v += 0.01) {
    double u = utility.Evaluate(spec, v);
    EXPECT_GE(u, prev);
    prev = u;
  }
}

TEST(UtilityTest, ViolationSlopeScalesWithImportance) {
  UtilityFunction utility;
  ServiceClassSpec low;
  low.importance = 1;
  ServiceClassSpec high;
  high.importance = 3;
  // Marginal utility below goal: u(1) - u(0.9).
  double low_slope =
      utility.FromGoalRatio(low, 1.0) - utility.FromGoalRatio(low, 0.9);
  double high_slope =
      utility.FromGoalRatio(high, 1.0) - utility.FromGoalRatio(high, 0.9);
  // importance^2 scaling: 9x vs 1x.
  EXPECT_NEAR(high_slope / low_slope, 9.0, 1e-6);
}

TEST(UtilityTest, SurplusNearlyWorthless) {
  UtilityFunction utility;
  ServiceClassSpec spec;
  spec.importance = 2;
  double at_margin = utility.FromGoalRatio(spec, 1.25);
  double far_above = utility.FromGoalRatio(spec, 2.5);
  double below = utility.FromGoalRatio(spec, 0.75);
  EXPECT_LT(far_above - at_margin, 0.2 * (at_margin - below));
}

TEST(UtilityTest, SurplusCappedAtFour) {
  UtilityFunction utility;
  ServiceClassSpec spec;
  spec.importance = 1;
  EXPECT_DOUBLE_EQ(utility.FromGoalRatio(spec, 4.0),
                   utility.FromGoalRatio(spec, 10.0));
}

TEST(OlapVelocityModelTest, ProportionalScaling) {
  EXPECT_NEAR(OlapVelocityModel::Predict(0.4, 100.0, 200.0), 0.8, 1e-12);
  EXPECT_NEAR(OlapVelocityModel::Predict(0.4, 100.0, 50.0), 0.2, 1e-12);
  EXPECT_NEAR(OlapVelocityModel::Predict(0.5, 100.0, 100.0), 0.5, 1e-12);
}

TEST(OlapVelocityModelTest, SaturatesAtOne) {
  EXPECT_DOUBLE_EQ(OlapVelocityModel::Predict(0.8, 100.0, 1000.0), 1.0);
}

TEST(OlapVelocityModelTest, DegenerateInputsClamped) {
  EXPECT_GT(OlapVelocityModel::Predict(0.0, 100.0, 200.0), 0.0);
  EXPECT_GE(OlapVelocityModel::Predict(0.5, 0.0, 100.0), 0.0);
  EXPECT_LE(OlapVelocityModel::Predict(0.5, 0.0, 100.0), 1.0);
}

TEST(OltpResponseModelTest, OfflineConstantByDefault) {
  OltpResponseModel model;
  double prior = model.slope();
  EXPECT_GT(prior, 0.0);
  // Updates are ignored unless online estimation is enabled.
  model.Update(0.1, 0.5, 100000.0, 200000.0);
  EXPECT_DOUBLE_EQ(model.slope(), prior);
  EXPECT_EQ(model.updates(), 0);
}

TEST(OltpResponseModelTest, PredictIsLinearInLimitDelta) {
  OltpResponseModel model;
  double s = model.slope();
  EXPECT_NEAR(model.Predict(0.2, 100000.0, 150000.0), 0.2 + s * 50000.0,
              1e-12);
  EXPECT_NEAR(model.Predict(0.2, 100000.0, 50000.0), 0.2 - s * 50000.0,
              1e-12);
  // Never negative.
  EXPECT_GE(model.Predict(0.01, 1000000.0, 0.0), 0.0);
}

TEST(OltpResponseModelTest, OnlineRegressionConvergesOnLinearData) {
  OltpResponseModel::Options options;
  options.online_updates = true;
  options.prior_slope = 1e-7;
  OltpResponseModel model(options);
  const double true_slope = 2.5e-6;
  Rng rng(3);
  double limit = 100000.0;
  double response = 0.2;
  for (int i = 0; i < 200; ++i) {
    double next_limit = rng.Uniform(50000.0, 300000.0);
    double next_response =
        response + true_slope * (next_limit - limit) +
        rng.Normal(0.0, 0.002);
    model.Update(response, next_response, limit, next_limit);
    limit = next_limit;
    response = next_response;
  }
  EXPECT_NEAR(model.slope(), true_slope, 0.4e-6);
  EXPECT_EQ(model.updates(), 200);
}

TEST(OltpResponseModelTest, SlopeClampedToPhysicalSign) {
  OltpResponseModel::Options options;
  options.online_updates = true;
  options.prior_weight = 0.001;
  OltpResponseModel model(options);
  // Feed anti-causal data (response falls when limit rises).
  for (int i = 0; i < 50; ++i) {
    model.Update(0.5, 0.1, 100000.0, 300000.0);
    model.Update(0.1, 0.5, 300000.0, 100000.0);
  }
  EXPECT_GE(model.slope(), options.min_slope);
}

TEST(OltpResponseModelTest, TinyDeltasIgnored) {
  OltpResponseModel::Options options;
  options.online_updates = true;
  OltpResponseModel model(options);
  model.Update(0.1, 0.9, 100000.0, 100000.0);
  EXPECT_EQ(model.updates(), 0);
}

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : classes_(MakePaperClasses()) {}

  SolverInput MakeInput(double v1, double v2, double t3,
                        double c1 = 100000, double c2 = 100000,
                        double c3 = 100000) {
    SolverInput input;
    input.total_cost_limit = 300000.0;
    input.oltp_model = &model_;
    input.classes = {
        {classes_.Find(1), v1, c1, false},
        {classes_.Find(2), v2, c2, false},
        {classes_.Find(3), t3, c3, false},
    };
    return input;
  }

  ServiceClassSet classes_;
  OltpResponseModel model_;
  PerformanceSolver solver_;
};

TEST_F(SolverTest, LimitsSumToTotalAndRespectMinShares) {
  SchedulingPlan plan = solver_.Solve(MakeInput(0.5, 0.7, 0.2));
  EXPECT_NEAR(plan.Total(), 300000.0, 1.0);
  for (int id : {1, 2, 3}) {
    EXPECT_GE(plan.LimitFor(id), 0.05 * 300000.0 - 1.0) << id;
  }
}

TEST_F(SolverTest, ViolatedOltpPullsResources) {
  // OLTP deeply violating, OLAP classes above goal.
  SchedulingPlan violated = solver_.Solve(MakeInput(0.8, 0.9, 0.45));
  // OLTP comfortably meeting.
  SchedulingPlan met = solver_.Solve(MakeInput(0.8, 0.9, 0.10));
  EXPECT_GT(violated.LimitFor(3), met.LimitFor(3));
  // During violation, OLTP holds the majority of the system.
  EXPECT_GT(violated.LimitFor(3), 150000.0);
}

TEST_F(SolverTest, StarvedOlapClassRecoversWhenOltpComfortable) {
  // Class 1 far below its velocity goal with a tiny limit; OLTP has
  // plenty of headroom.
  SchedulingPlan plan =
      solver_.Solve(MakeInput(0.1, 0.9, 0.08, 20000, 140000, 140000));
  EXPECT_GT(plan.LimitFor(1), 20000.0);
}

TEST_F(SolverTest, MoreImportantOlapClassWinsContention) {
  // Both OLAP classes equally below goal relative to their goals; the
  // importance-2 class should end up with at least as much.
  SchedulingPlan plan =
      solver_.Solve(MakeInput(0.2, 0.3, 0.10, 100000, 100000, 100000));
  EXPECT_GE(plan.LimitFor(2), plan.LimitFor(1) * 0.9);
}

TEST_F(SolverTest, DegenerateInputsSafe) {
  SolverInput empty;
  empty.total_cost_limit = 300000.0;
  SchedulingPlan plan = solver_.Solve(empty);
  EXPECT_EQ(plan.cost_limits.size(), 0u);

  SolverInput zero = MakeInput(0.5, 0.5, 0.2);
  zero.total_cost_limit = 0.0;
  EXPECT_EQ(solver_.Solve(zero).cost_limits.size(), 0u);
}

TEST_F(SolverTest, ChangePenaltyStabilizesFlatUtility) {
  // Everyone comfortably above goal: without a penalty the optimum is a
  // flat plateau; with it, the solver stays near the current plan.
  SolverInput input = MakeInput(0.9, 0.95, 0.05, 90000, 120000, 90000);
  SchedulingPlan plan = solver_.Solve(input);
  EXPECT_NEAR(plan.LimitFor(1), 90000.0, 45000.0);
  EXPECT_NEAR(plan.LimitFor(2), 120000.0, 45000.0);
}

TEST_F(SolverTest, DirectlyControlledOltpUsesOwnLimit) {
  SolverInput input;
  input.total_cost_limit = 300000.0;
  input.oltp_model = &model_;
  input.classes = {
      {classes_.Find(1), 0.9, 100000, false},
      {classes_.Find(2), 0.9, 100000, false},
      {classes_.Find(3), 0.40, 100000, true},  // violating, direct mode
  };
  SchedulingPlan plan = solver_.Solve(input);
  // Direct control: raising the OLTP limit improves it, so it gains.
  EXPECT_GT(plan.LimitFor(3), 100000.0);
}

TEST_F(SolverTest, EvaluateFractionsChecksArity) {
  SolverInput input = MakeInput(0.5, 0.5, 0.2);
  double u = solver_.EvaluateFractions(input, {0.3, 0.3, 0.4});
  EXPECT_TRUE(std::isfinite(u));
}

class SolverSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverSeedSweep, SolutionNeverWorseThanCurrent) {
  Rng rng(GetParam());
  ServiceClassSet classes = MakePaperClasses();
  OltpResponseModel model;
  PerformanceSolver solver;
  for (int trial = 0; trial < 20; ++trial) {
    double c1 = rng.Uniform(15000, 200000);
    double c2 = rng.Uniform(15000, 250000 - c1);
    double c3 = 300000 - c1 - c2;
    SolverInput input;
    input.total_cost_limit = 300000.0;
    input.oltp_model = &model;
    input.classes = {
        {classes.Find(1), rng.Uniform(0.05, 1.0), c1, false},
        {classes.Find(2), rng.Uniform(0.05, 1.0), c2, false},
        {classes.Find(3), rng.Uniform(0.05, 0.6), c3, false},
    };
    double current_utility = solver.EvaluateFractions(
        input, {c1 / 300000.0, c2 / 300000.0, c3 / 300000.0});
    SchedulingPlan plan = solver.Solve(input);
    EXPECT_GE(plan.predicted_utility, current_utility - 1e-9);
    EXPECT_NEAR(plan.Total(), 300000.0, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSeedSweep,
                         ::testing::Range<uint64_t>(1, 9));

TEST(MonitorTest, HarvestAggregatesAndResets) {
  sim::Simulator simulator;
  Monitor monitor(&simulator);
  workload::QueryRecord record;
  record.class_id = 1;
  record.submit_time = 0.0;
  record.exec_start_time = 2.0;
  record.end_time = 4.0;  // velocity 0.5, response 4
  monitor.AddRecord(record);
  record.exec_start_time = 0.0;  // velocity 1.0
  monitor.AddRecord(record);
  simulator.RunUntil(10.0);
  auto stats = monitor.Harvest();
  ASSERT_EQ(stats.count(1), 1u);
  EXPECT_EQ(stats[1].outcome.completed, 2u);
  EXPECT_NEAR(stats[1].outcome.MeanVelocity(), 0.75, 1e-12);
  EXPECT_NEAR(stats[1].outcome.MeanResponse(), 4.0, 1e-12);
  EXPECT_NEAR(stats[1].throughput_per_second, 0.2, 1e-12);
  // Second harvest is empty.
  EXPECT_TRUE(monitor.Harvest().empty());
}

// Live completions reach the Monitor from the clock thread and gateway
// workers while the planner harvests: every record lands in exactly one
// harvest.
TEST(MonitorTest, ConcurrentWritersLoseNoRecord) {
  sim::Simulator simulator;
  Monitor monitor(&simulator);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&monitor, &writers_done, w] {
      workload::QueryRecord record;
      record.class_id = 1 + w % 3;
      record.end_time = 1.0;
      for (int i = 0; i < kPerWriter; ++i) monitor.AddRecord(record);
      writers_done.fetch_add(1);
    });
  }
  uint64_t harvested = 0;
  std::thread harvester([&] {
    while (writers_done.load() < kWriters) {
      for (const auto& [class_id, stats] : monitor.Harvest()) {
        harvested += stats.outcome.completed;
      }
    }
  });
  for (std::thread& writer : writers) writer.join();
  harvester.join();
  for (const auto& [class_id, stats] : monitor.Harvest()) {
    harvested += stats.outcome.completed;
  }
  EXPECT_EQ(harvested, static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(monitor.records_total(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

TEST(SnapshotMonitorTest, SamplesLastFinishedPerClient) {
  sim::Simulator simulator;
  SnapshotMonitor::Options options;
  options.sample_interval_seconds = 10.0;
  options.per_client_cpu_seconds = 0.0;
  SnapshotMonitor monitor(&simulator, nullptr, options);
  monitor.Start(35.0);

  workload::QueryRecord record;
  record.client_id = 1;
  record.submit_time = 0.0;
  record.exec_start_time = 0.0;
  record.end_time = 0.3;  // response 0.3
  monitor.RecordCompletion(record);
  record.client_id = 2;
  record.end_time = 0.1;  // response 0.1
  monitor.RecordCompletion(record);

  simulator.RunUntil(35.0);
  EXPECT_EQ(monitor.snapshots_taken(), 3u);
  EXPECT_NEAR(monitor.HarvestAvgResponse(-1.0), 0.2, 1e-12);
}

TEST(SnapshotMonitorTest, FallbackWhenNoData) {
  sim::Simulator simulator;
  SnapshotMonitor monitor(&simulator, nullptr, SnapshotMonitor::Options());
  EXPECT_DOUBLE_EQ(monitor.HarvestAvgResponse(0.77), 0.77);
}

TEST(SnapshotMonitorTest, RemembersLastKnownAverage) {
  sim::Simulator simulator;
  SnapshotMonitor::Options options;
  options.sample_interval_seconds = 10.0;
  SnapshotMonitor monitor(&simulator, nullptr, options);
  monitor.Start(100.0);
  workload::QueryRecord record;
  record.client_id = 1;
  record.end_time = 0.4;
  monitor.RecordCompletion(record);
  simulator.RunUntil(15.0);
  EXPECT_NEAR(monitor.HarvestAvgResponse(-1.0), 0.4, 1e-12);
  // No new samples harvested yet, but the last average persists.
  EXPECT_NEAR(monitor.HarvestAvgResponse(-1.0), 0.4, 1e-12);
}

TEST(SnapshotMonitorTest, OverheadBilledToEngine) {
  sim::Simulator simulator;
  engine::ExecutionEngine engine(&simulator, engine::EngineConfig(),
                                 Rng(4));
  SnapshotMonitor::Options options;
  options.sample_interval_seconds = 5.0;
  options.per_client_cpu_seconds = 0.001;
  SnapshotMonitor monitor(&simulator, &engine, options);
  monitor.Start(20.0);
  workload::QueryRecord record;
  for (int c = 0; c < 10; ++c) {
    record.client_id = c;
    record.end_time = 0.1;
    monitor.RecordCompletion(record);
  }
  simulator.RunUntil(21.0);
  // 4 snapshots x 10 clients x 1 ms.
  EXPECT_NEAR(monitor.total_overhead_cpu_seconds(), 0.04, 1e-9);
  EXPECT_NEAR(engine.cpu_pool().busy_core_seconds(), 0.04, 1e-9);
}

}  // namespace
}  // namespace qsched::sched
