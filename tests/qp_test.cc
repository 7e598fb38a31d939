#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "qp/control_table.h"
#include "qp/interceptor.h"
#include "qp/qp_controller.h"
#include "sim/simulator.h"

namespace qsched::qp {
namespace {

workload::Query MakeQuery(uint64_t id, int class_id, double cost,
                          workload::WorkloadType type =
                              workload::WorkloadType::kOlap) {
  workload::Query query;
  query.id = id;
  query.class_id = class_id;
  query.type = type;
  query.cost_timerons = cost;
  query.job.query_id = id;
  query.job.cpu_seconds = 0.05;
  query.job.logical_pages = 100.0;
  query.job.hit_ratio = 0.5;
  query.job.database = type == workload::WorkloadType::kOlap
                           ? engine::DatabaseId::kOlap
                           : engine::DatabaseId::kOltp;
  return query;
}

TEST(ControlTableTest, LifecycleStateMachine) {
  ControlTable table;
  QueryInfoRecord record;
  record.query_id = 1;
  record.class_id = 2;
  record.cost_timerons = 100.0;
  record.intercept_time = 1.0;
  ASSERT_TRUE(table.Insert(record).ok());
  EXPECT_EQ(table.Insert(record).code(), StatusCode::kAlreadyExists);

  std::optional<QueryInfoRecord> row = table.Find(1);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->state, QueryState::kQueued);

  ASSERT_TRUE(table.MarkReleased(1, 2.0).ok());
  EXPECT_EQ(table.MarkReleased(1, 2.0).code(),
            StatusCode::kFailedPrecondition);
  row = table.Find(1);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->state, QueryState::kRunning);
  EXPECT_DOUBLE_EQ(row->release_time, 2.0);

  EXPECT_EQ(table.MarkCancelled(1, 3.0).status().code(),
            StatusCode::kFailedPrecondition);
  Result<QueryInfoRecord> done = table.MarkDone(1, 5.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.ValueOrDie().state, QueryState::kDone);
  EXPECT_EQ(done.ValueOrDie().class_id, 2);
  EXPECT_DOUBLE_EQ(done.ValueOrDie().intercept_time, 1.0);
  EXPECT_DOUBLE_EQ(done.ValueOrDie().release_time, 2.0);
  EXPECT_DOUBLE_EQ(done.ValueOrDie().end_time, 5.0);
  // A finished row leaves the table.
  EXPECT_FALSE(table.Find(1).has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.MarkDone(1, 6.0).status().code(), StatusCode::kNotFound);

  record.query_id = 2;
  ASSERT_TRUE(table.Insert(record).ok());
  EXPECT_EQ(table.MarkDone(2, 3.0).status().code(),
            StatusCode::kFailedPrecondition);
  Result<QueryInfoRecord> cancelled = table.MarkCancelled(2, 4.0);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled.ValueOrDie().state, QueryState::kCancelled);
  EXPECT_DOUBLE_EQ(cancelled.ValueOrDie().end_time, 4.0);
  EXPECT_FALSE(table.Find(2).has_value());
  EXPECT_EQ(table.size(), 0u);
}

TEST(ControlTableTest, MissingQueryErrors) {
  ControlTable table;
  EXPECT_EQ(table.MarkReleased(9, 1.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.MarkDone(9, 1.0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.MarkCancelled(9, 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(table.Find(9).has_value());
}

class InterceptorTest : public ::testing::Test {
 protected:
  InterceptorTest()
      : engine_(&simulator_, engine::EngineConfig(), Rng(1)),
        interceptor_(&simulator_, &engine_, InterceptorConfig()) {}

  sim::Simulator simulator_;
  engine::ExecutionEngine engine_;
  Interceptor interceptor_;
};

TEST_F(InterceptorTest, InterceptionDelayApplied) {
  double arrived_at = -1.0;
  interceptor_.set_on_arrived(
      [&](const QueryInfoRecord&) { arrived_at = simulator_.Now(); });
  interceptor_.Intercept(MakeQuery(1, 1, 50.0), nullptr);
  simulator_.RunToCompletion();
  EXPECT_NEAR(arrived_at, 0.35, 1e-9);
  EXPECT_EQ(interceptor_.intercepted_total(), 1u);
  EXPECT_EQ(interceptor_.queued_count(1), 1);
}

TEST_F(InterceptorTest, ReleaseRunsAndCompletes) {
  bool completed = false;
  workload::QueryRecord final_record;
  interceptor_.set_on_arrived([&](const QueryInfoRecord& record) {
    EXPECT_TRUE(interceptor_.Release(record.query_id).ok());
  });
  interceptor_.Intercept(MakeQuery(7, 2, 80.0),
                         [&](const workload::QueryRecord& record) {
                           completed = true;
                           final_record = record;
                         });
  simulator_.RunToCompletion();
  ASSERT_TRUE(completed);
  EXPECT_EQ(final_record.query_id, 7u);
  EXPECT_EQ(final_record.class_id, 2);
  // Submit stamped before the interception delay; exec after it.
  EXPECT_DOUBLE_EQ(final_record.submit_time, 0.0);
  EXPECT_GE(final_record.exec_start_time, 0.35);
  EXPECT_GT(final_record.end_time, final_record.exec_start_time);
  // Velocity < 1 because of the interception wait.
  EXPECT_LT(final_record.Velocity(), 1.0);
  EXPECT_EQ(interceptor_.running_count(2), 0);
  EXPECT_DOUBLE_EQ(interceptor_.running_cost(2), 0.0);
}

TEST_F(InterceptorTest, ReleaseUnknownFails) {
  EXPECT_EQ(interceptor_.Release(42).code(), StatusCode::kNotFound);
}

TEST_F(InterceptorTest, LedgerTracksRunningCost) {
  interceptor_.set_on_arrived([&](const QueryInfoRecord& record) {
    interceptor_.Release(record.query_id);
  });
  interceptor_.Intercept(MakeQuery(1, 1, 100.0), nullptr);
  interceptor_.Intercept(MakeQuery(2, 1, 60.0), nullptr);
  simulator_.RunUntil(0.4);  // past interception, queries running
  EXPECT_EQ(interceptor_.running_count(1), 2);
  EXPECT_DOUBLE_EQ(interceptor_.running_cost(1), 160.0);
  simulator_.RunToCompletion();
  EXPECT_DOUBLE_EQ(interceptor_.running_cost(1), 0.0);
}

TEST_F(InterceptorTest, BypassSkipsOverheadAndTable) {
  bool completed = false;
  interceptor_.Bypass(MakeQuery(3, 3, 10.0, workload::WorkloadType::kOltp),
                      [&](const workload::QueryRecord& record) {
                        completed = true;
                        EXPECT_DOUBLE_EQ(record.submit_time, 0.0);
                        EXPECT_DOUBLE_EQ(record.exec_start_time, 0.0);
                      });
  simulator_.RunToCompletion();
  EXPECT_TRUE(completed);
  EXPECT_EQ(interceptor_.bypassed_total(), 1u);
  EXPECT_EQ(interceptor_.control_table().size(), 0u);
}

TEST(InterceptorConfigTest, OltpOverridesApplyOnlyWhenSet) {
  InterceptorConfig config;
  config.interception_delay_seconds = 0.35;
  EXPECT_DOUBLE_EQ(config.DelayFor(true), 0.35);
  config.oltp_interception_delay_seconds = 0.001;
  EXPECT_DOUBLE_EQ(config.DelayFor(true), 0.001);
  EXPECT_DOUBLE_EQ(config.DelayFor(false), 0.35);
  config.oltp_interception_cpu_seconds = 0.0;
  EXPECT_DOUBLE_EQ(config.CpuFor(true), 0.0);
}

class QpControllerTest : public ::testing::Test {
 protected:
  QpControllerTest()
      : engine_(&simulator_, engine::EngineConfig(), Rng(2)) {}

  void Build(const QpStaticConfig& config) {
    controller_ = std::make_unique<QpController>(
        &simulator_, &engine_, InterceptorConfig(), config);
  }

  void Submit(uint64_t id, int class_id, double cost) {
    controller_->Submit(MakeQuery(id, class_id, cost),
                        [this](const workload::QueryRecord& record) {
                          completed_.push_back(record);
                        });
  }

  sim::Simulator simulator_;
  engine::ExecutionEngine engine_;
  std::unique_ptr<QpController> controller_;
  std::vector<workload::QueryRecord> completed_;
};

TEST_F(QpControllerTest, NoControlAdmitsUpToSystemLimit) {
  Build(QpStaticConfig::NoControl(150.0));
  Submit(1, 1, 100.0);
  Submit(2, 1, 100.0);  // would exceed 150 -> queued
  simulator_.RunUntil(0.4);
  EXPECT_EQ(controller_->interceptor().running_count(1), 1);
  EXPECT_EQ(controller_->TotalQueued(), 1);
  simulator_.RunToCompletion();
  EXPECT_EQ(completed_.size(), 2u);
}

TEST_F(QpControllerTest, MinOneRuleAvoidsStarvation) {
  Build(QpStaticConfig::NoControl(50.0));
  Submit(1, 1, 500.0);  // alone it may run even though over limit
  simulator_.RunToCompletion();
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(QpControllerTest, GroupCapsLimitConcurrency) {
  QpStaticConfig config;
  config.system_cost_limit = 1e9;
  config.large_cost_threshold = 1000.0;
  config.medium_cost_threshold = 100.0;
  config.max_large_concurrent = 1;
  config.max_medium_concurrent = 2;
  Build(config);
  // Three large queries: only one runs at a time.
  Submit(1, 1, 5000.0);
  Submit(2, 1, 5000.0);
  Submit(3, 1, 5000.0);
  // Three medium queries: two run concurrently.
  Submit(4, 1, 500.0);
  Submit(5, 1, 500.0);
  Submit(6, 1, 500.0);
  simulator_.RunUntil(0.4);
  const Interceptor& interceptor = controller_->interceptor();
  EXPECT_EQ(interceptor.running_count(1), 3);  // 1 large + 2 medium
  EXPECT_EQ(controller_->TotalQueued(), 3);
  simulator_.RunToCompletion();
  EXPECT_EQ(completed_.size(), 6u);
}

TEST_F(QpControllerTest, PriorityReleasesImportantClassFirst) {
  QpStaticConfig config;
  config.system_cost_limit = 100.0;  // one query at a time
  config.priority_enabled = true;
  config.class_priority = {{1, 1}, {2, 2}};
  Build(config);
  Submit(1, 1, 90.0);  // runs first (arrives first, nothing queued)
  Submit(2, 1, 90.0);  // class 1, queued
  Submit(3, 2, 90.0);  // class 2, queued after -- but higher priority
  simulator_.RunToCompletion();
  ASSERT_EQ(completed_.size(), 3u);
  // Completion order: 1 then 3 (priority) then 2.
  EXPECT_EQ(completed_[0].query_id, 1u);
  EXPECT_EQ(completed_[1].query_id, 3u);
  EXPECT_EQ(completed_[2].query_id, 2u);
}

TEST_F(QpControllerTest, FifoWithoutPriority) {
  QpStaticConfig config;
  config.system_cost_limit = 100.0;
  config.priority_enabled = false;
  config.class_priority = {{1, 1}, {2, 2}};
  Build(config);
  Submit(1, 1, 90.0);
  Submit(2, 1, 90.0);
  Submit(3, 2, 90.0);
  simulator_.RunToCompletion();
  ASSERT_EQ(completed_.size(), 3u);
  EXPECT_EQ(completed_[1].query_id, 2u);
  EXPECT_EQ(completed_[2].query_id, 3u);
}

TEST_F(QpControllerTest, OltpBypassedByDefault) {
  Build(QpStaticConfig::NoControl(1e6));
  controller_->Submit(
      MakeQuery(9, 3, 20.0, workload::WorkloadType::kOltp),
      [this](const workload::QueryRecord& record) {
        completed_.push_back(record);
      });
  simulator_.RunToCompletion();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(controller_->interceptor().bypassed_total(), 1u);
  EXPECT_EQ(controller_->interceptor().intercepted_total(), 0u);
  // No interception overhead: exec starts at submission.
  EXPECT_DOUBLE_EQ(completed_[0].exec_start_time, 0.0);
}

TEST_F(QpControllerTest, InterceptedOltpPaysOverheadButAutoReleases) {
  QpStaticConfig config = QpStaticConfig::NoControl(1e6);
  config.intercept_oltp = true;
  Build(config);
  controller_->Submit(
      MakeQuery(9, 3, 20.0, workload::WorkloadType::kOltp),
      [this](const workload::QueryRecord& record) {
        completed_.push_back(record);
      });
  simulator_.RunToCompletion();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(controller_->interceptor().intercepted_total(), 1u);
  EXPECT_GE(completed_[0].exec_start_time, 0.35);
  // The paper's point: response >> execution for sub-second queries.
  EXPECT_GT(completed_[0].ResponseSeconds(),
            2.0 * completed_[0].ExecSeconds());
}

TEST_F(InterceptorTest, CancelQueuedCompletesWithCancelledRecord) {
  bool arrived = false;
  interceptor_.set_on_arrived(
      [&](const QueryInfoRecord&) { arrived = true; });
  bool cancelled_hook = false;
  interceptor_.set_on_cancelled([&](const QueryInfoRecord& record) {
    cancelled_hook = true;
    EXPECT_EQ(record.state, QueryState::kCancelled);
  });
  workload::QueryRecord final_record;
  bool completed = false;
  interceptor_.Intercept(MakeQuery(5, 1, 40.0),
                         [&](const workload::QueryRecord& record) {
                           completed = true;
                           final_record = record;
                         });
  simulator_.RunUntil(0.4);  // past interception, still queued
  ASSERT_TRUE(arrived);
  ASSERT_TRUE(interceptor_.CancelQueued(5).ok());
  EXPECT_TRUE(cancelled_hook);
  EXPECT_TRUE(completed);
  EXPECT_TRUE(final_record.cancelled);
  EXPECT_DOUBLE_EQ(final_record.ExecSeconds(), 0.0);
  EXPECT_EQ(interceptor_.queued_count(1), 0);
  EXPECT_EQ(interceptor_.cancelled_total(), 1u);
  // Cannot cancel twice or release after cancel.
  EXPECT_FALSE(interceptor_.CancelQueued(5).ok());
  EXPECT_FALSE(interceptor_.Release(5).ok());
}

TEST_F(InterceptorTest, CancelRunningQueryRejected) {
  interceptor_.set_on_arrived([&](const QueryInfoRecord& record) {
    interceptor_.Release(record.query_id);
  });
  interceptor_.Intercept(MakeQuery(6, 1, 40.0), nullptr);
  simulator_.RunUntil(0.4);
  EXPECT_EQ(interceptor_.CancelQueued(6).code(), StatusCode::kNotFound);
  simulator_.RunToCompletion();
}

TEST_F(QpControllerTest, CancelledQueryLeavesQueueAndOthersProceed) {
  Build(QpStaticConfig::NoControl(100.0));
  Submit(1, 1, 90.0);  // runs
  Submit(2, 1, 90.0);  // queued
  Submit(3, 1, 90.0);  // queued
  simulator_.RunUntil(0.4);
  EXPECT_EQ(controller_->TotalQueued(), 2);
  ASSERT_TRUE(controller_->interceptor().CancelQueued(2).ok());
  EXPECT_EQ(controller_->TotalQueued(), 1);
  simulator_.RunToCompletion();
  // 1 and 3 execute; 2 completes as cancelled.
  ASSERT_EQ(completed_.size(), 3u);
  int cancelled = 0;
  for (const auto& record : completed_) {
    if (record.cancelled) ++cancelled;
  }
  EXPECT_EQ(cancelled, 1);
}

class QpRandomLoadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QpRandomLoadTest, AllQueriesEventuallyComplete) {
  Rng rng(GetParam());
  sim::Simulator simulator;
  engine::ExecutionEngine engine(&simulator, engine::EngineConfig(),
                                 Rng(GetParam()));
  QpStaticConfig config;
  config.system_cost_limit = 300.0;
  config.large_cost_threshold = 200.0;
  config.medium_cost_threshold = 80.0;
  config.max_large_concurrent = 1;
  config.max_medium_concurrent = 2;
  config.max_small_concurrent = 4;
  config.priority_enabled = true;
  config.class_priority = {{1, 1}, {2, 2}};
  QpController controller(&simulator, &engine, InterceptorConfig(),
                          config);
  int completed = 0;
  const int queries = 40;
  for (int i = 0; i < queries; ++i) {
    double at = rng.Uniform(0.0, 20.0);
    workload::Query query = MakeQuery(
        static_cast<uint64_t>(i + 1),
        static_cast<int>(rng.UniformInt(1, 2)),
        rng.BoundedPareto(1.1, 10.0, 400.0));
    simulator.ScheduleAt(at, [&controller, &completed, query] {
      controller.Submit(query, [&completed](const workload::QueryRecord&) {
        ++completed;
      });
    });
  }
  simulator.RunToCompletion();
  EXPECT_EQ(completed, queries);
  EXPECT_EQ(controller.TotalQueued(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpRandomLoadTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace qsched::qp
