// Unit tests for the QueryScheduler facade itself (the integration and
// harness tests cover it end-to-end; these pin down its plumbing).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "engine/execution_engine.h"
#include "qp/governor.h"
#include "scheduler/mpl_controller.h"
#include "scheduler/query_scheduler.h"
#include "sim/simulator.h"

namespace qsched::sched {
namespace {

workload::Query MakeOlap(uint64_t id, int class_id, double cost) {
  workload::Query query;
  query.id = id;
  query.class_id = class_id;
  query.type = workload::WorkloadType::kOlap;
  query.cost_timerons = cost;
  query.job.query_id = id;
  query.job.cpu_seconds = 0.1;
  query.job.logical_pages = 2000.0;
  query.job.hit_ratio = 0.3;
  return query;
}

workload::Query MakeOltp(uint64_t id, int client_id) {
  workload::Query query;
  query.id = id;
  query.class_id = 3;
  query.client_id = client_id;
  query.type = workload::WorkloadType::kOltp;
  query.cost_timerons = 20.0;
  query.job.query_id = id;
  query.job.database = engine::DatabaseId::kOltp;
  query.job.cpu_seconds = 0.01;
  query.job.logical_pages = 50.0;
  query.job.hit_ratio = 0.9;
  return query;
}

/// What RunOlapWithGovernor saw.
struct InFlightRun {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  /// Completions after which the control table's size differed from the
  /// interceptor's queued + running count.
  uint64_t mismatches = 0;
  size_t peak_rows = 0;
};

/// Drives `hours` model hours of Poisson OLAP arrivals (classes 1 and 2,
/// alternating busy and quiet half hours so queues build and drain)
/// through `frontend`, with a queue-timeout Governor on `interceptor`,
/// then runs the simulation dry. After every completion or cancellation
/// it compares the control table's size with the interceptor's ledgers.
InFlightRun RunOlapWithGovernor(sim::Simulator* simulator,
                                workload::QueryFrontend* frontend,
                                qp::Interceptor* interceptor,
                                double hours) {
  qp::Governor::Options options;
  options.max_queue_seconds = 120.0;
  options.sweep_interval_seconds = 30.0;
  qp::Governor governor(simulator, interceptor, options);
  const double until = hours * 3600.0;
  // Sweeps outlast the arrivals so work stranded in a queue at the end
  // is cancelled too.
  governor.Start(until + 2.0 * options.max_queue_seconds);

  InFlightRun run;
  auto on_complete = [&](const workload::QueryRecord& record) {
    ++(record.cancelled ? run.cancelled : run.completed);
    size_t in_flight = 0;
    for (int class_id : {1, 2}) {
      in_flight += static_cast<size_t>(interceptor->queued_count(class_id) +
                                       interceptor->running_count(class_id));
    }
    size_t rows = interceptor->control_table().size();
    if (rows != in_flight) ++run.mismatches;
    run.peak_rows = std::max(run.peak_rows, rows);
  };

  Rng rng(11);
  uint64_t next_id = 1;
  std::function<void()> arrive = [&] {
    double now = simulator->Now();
    if (now >= until) return;
    int class_id = rng.Bernoulli(0.5) ? 1 : 2;
    frontend->Submit(MakeOlap(next_id++, class_id, rng.Uniform(2e4, 8e4)),
                     on_complete);
    ++run.submitted;
    bool busy = static_cast<int64_t>(now / 1800.0) % 2 == 0;
    simulator->ScheduleAfter(rng.Exponential(busy ? 0.5 : 8.0),
                             [&arrive] { arrive(); });
  };
  arrive();
  simulator->RunToCompletion();
  return run;
}

class QuerySchedulerTest : public ::testing::Test {
 protected:
  QuerySchedulerTest()
      : engine_(&simulator_, engine::EngineConfig(), Rng(5)),
        classes_(MakePaperClasses()) {}

  std::unique_ptr<QueryScheduler> Make(QuerySchedulerConfig config) {
    config.system_cost_limit = 300000.0;
    return std::make_unique<QueryScheduler>(&simulator_, &engine_,
                                            &classes_, config);
  }

  sim::Simulator simulator_;
  engine::ExecutionEngine engine_;
  ServiceClassSet classes_;
};

TEST_F(QuerySchedulerTest, InitialPlanSumsToSystemLimit) {
  auto qs = Make(QuerySchedulerConfig());
  EXPECT_NEAR(qs->current_plan().Total(), 300000.0, 1.0);
  for (int id : {1, 2, 3}) {
    EXPECT_GT(qs->current_plan().LimitFor(id), 0.0);
  }
}

TEST_F(QuerySchedulerTest, OltpBypassesInterception) {
  auto qs = Make(QuerySchedulerConfig());
  bool done = false;
  qs->Submit(MakeOltp(1, 0), [&](const workload::QueryRecord& record) {
    done = true;
    // No interception: execution starts at submission time.
    EXPECT_DOUBLE_EQ(record.exec_start_time, record.submit_time);
  });
  simulator_.RunToCompletion();
  EXPECT_TRUE(done);
  EXPECT_EQ(qs->interceptor().intercepted_total(), 0u);
  EXPECT_EQ(qs->interceptor().bypassed_total(), 1u);
}

TEST_F(QuerySchedulerTest, OlapIsInterceptedAndDispatched) {
  auto qs = Make(QuerySchedulerConfig());
  bool done = false;
  qs->Submit(MakeOlap(2, 1, 1000.0),
             [&](const workload::QueryRecord& record) {
               done = true;
               EXPECT_GE(record.exec_start_time, 0.35);
             });
  simulator_.RunToCompletion();
  EXPECT_TRUE(done);
  EXPECT_EQ(qs->interceptor().intercepted_total(), 1u);
}

TEST_F(QuerySchedulerTest, DirectModeInterceptsOltpCheaply) {
  QuerySchedulerConfig config;
  config.control_oltp_directly = true;
  config.interceptor.oltp_interception_delay_seconds = 0.002;
  auto qs = Make(config);
  bool done = false;
  qs->Submit(MakeOltp(3, 0), [&](const workload::QueryRecord& record) {
    done = true;
    EXPECT_GE(record.exec_start_time, 0.002);
    EXPECT_LT(record.exec_start_time, 0.05);
  });
  simulator_.RunToCompletion();
  EXPECT_TRUE(done);
  EXPECT_EQ(qs->interceptor().intercepted_total(), 1u);
}

TEST_F(QuerySchedulerTest, PlanningCyclesRunOnSchedule) {
  QuerySchedulerConfig config;
  config.control_interval_seconds = 50.0;
  auto qs = Make(config);
  qs->Start(400.0);
  simulator_.RunUntil(400.0);
  EXPECT_EQ(qs->planning_cycles(), 8u);
  // Every plan decision was recorded for all three classes.
  EXPECT_EQ(qs->limit_history().at(1).size(), 8u);
  EXPECT_EQ(qs->limit_history().at(3).size(), 8u);
}

TEST_F(QuerySchedulerTest, PlansAlwaysSumToLimitAfterRateLimiting) {
  QuerySchedulerConfig config;
  config.control_interval_seconds = 30.0;
  auto qs = Make(config);
  qs->Start(600.0);
  // Drive some load so measurements move.
  for (int i = 0; i < 8; ++i) {
    qs->Submit(MakeOlap(100 + i, 1 + i % 2, 30000.0),
               [](const workload::QueryRecord&) {});
    qs->Submit(MakeOltp(200 + i, i), [](const workload::QueryRecord&) {});
  }
  simulator_.RunUntil(600.0);
  const auto& h1 = qs->limit_history().at(1);
  const auto& h2 = qs->limit_history().at(2);
  const auto& h3 = qs->limit_history().at(3);
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_NEAR(h1.at(i).value + h2.at(i).value + h3.at(i).value,
                300000.0, 1.0);
  }
}

TEST_F(QuerySchedulerTest, ArrivalsFeedWorkloadDetector) {
  auto qs = Make(QuerySchedulerConfig());
  for (int i = 0; i < 5; ++i) {
    qs->Submit(MakeOltp(300 + i, i), [](const workload::QueryRecord&) {});
  }
  EXPECT_EQ(qs->workload_detector().arrivals_total(), 5u);
}

TEST_F(QuerySchedulerTest, MeasurementsStartAtGoals) {
  auto qs = Make(QuerySchedulerConfig());
  EXPECT_DOUBLE_EQ(qs->measurements().at(1), 0.4);
  EXPECT_DOUBLE_EQ(qs->measurements().at(2), 0.6);
  EXPECT_DOUBLE_EQ(qs->measurements().at(3), 0.25);
}

// A control-table row lives only while its query is queued or running:
// over hours of arrivals, completions and Governor cancellations the table
// holds exactly the queries in flight, and nothing once the run drains.
TEST_F(QuerySchedulerTest, ControlTableHoldsOnlyQueriesInFlight) {
  QuerySchedulerConfig config;
  config.control_interval_seconds = 60.0;
  auto qs = Make(config);
  qs->Start(3.0 * 3600.0);
  InFlightRun run =
      RunOlapWithGovernor(&simulator_, qs.get(), &qs->interceptor(), 3.0);
  EXPECT_EQ(run.completed + run.cancelled, run.submitted);
  EXPECT_GT(run.completed, 0u);
  EXPECT_GT(run.cancelled, 0u);
  EXPECT_EQ(run.mismatches, 0u);
  EXPECT_LT(run.peak_rows, run.submitted / 4);
  EXPECT_EQ(qs->interceptor().control_table().size(), 0u);
}

class MplControllerTest : public QuerySchedulerTest {};

TEST_F(MplControllerTest, ControlTableHoldsOnlyQueriesInFlight) {
  MplController::Options options;
  options.initial_mpl = {{1, 1}, {2, 1}};
  options.adaptive = false;
  MplController mpl(&simulator_, &engine_, &classes_, options);
  mpl.Start(3.0 * 3600.0);
  InFlightRun run =
      RunOlapWithGovernor(&simulator_, &mpl, &mpl.interceptor(), 3.0);
  EXPECT_EQ(run.completed + run.cancelled, run.submitted);
  EXPECT_GT(run.completed, 0u);
  EXPECT_GT(run.cancelled, 0u);
  EXPECT_EQ(run.mismatches, 0u);
  EXPECT_LT(run.peak_rows, run.submitted / 4);
  EXPECT_EQ(mpl.interceptor().control_table().size(), 0u);
}

}  // namespace
}  // namespace qsched::sched
