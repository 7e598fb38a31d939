// Per-query stage tracing: the telescoping identity (gateway_queue +
// dispatch + execute == end-to-end) as pure math, live through the
// real-time gateway under load, across queue-full shedding, and over
// the wire via the v2 COMPLETED trace context. These run in the TSan
// and ASan gates (see tests/CMakeLists.txt) because the stamps cross
// the producer, worker, and clock threads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "obs/stage_trace.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "rt/loadgen.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "workload/client.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched {
namespace {

// The acceptance tolerance: per-stage durations must sum to the
// end-to-end latency within one millisecond.
constexpr double kToleranceSeconds = 1e-3;

TEST(StageTraceTest, TelescopingIdentityIsExact) {
  using Clock = obs::QueryStageTrace::Clock;
  obs::QueryStageTrace trace;
  trace.trace_id = 7;
  Clock::time_point base = Clock::now();
  trace.enqueued = base;
  trace.admitted = base + std::chrono::microseconds(137);
  trace.exec_start = base + std::chrono::milliseconds(3);
  trace.completed = base + std::chrono::milliseconds(42);

  EXPECT_TRUE(trace.HasExecStart());
  EXPECT_GE(trace.GatewayQueueSeconds(), 0.0);
  EXPECT_GE(trace.DispatchSeconds(), 0.0);
  EXPECT_GE(trace.ExecuteSeconds(), 0.0);
  // The stages telescope: adjacent timestamps cancel, so the sum is
  // bit-for-bit the end-to-end duration, not merely close to it.
  EXPECT_DOUBLE_EQ(trace.GatewayQueueSeconds() + trace.DispatchSeconds() +
                       trace.ExecuteSeconds(),
                   trace.TotalSeconds());
  EXPECT_NEAR(trace.TotalSeconds(), 0.042, 1e-9);
}

TEST(StageTraceTest, DefaultTraceHasNoExecStart) {
  obs::QueryStageTrace trace;
  EXPECT_FALSE(trace.HasExecStart());
  EXPECT_EQ(trace.trace_id, 0u);
}

// Live run: every completed query's stages must sum to its end-to-end
// wall latency within 1 ms, under sustained loopback load with a queue
// small enough that the open-loop generator sheds part of the offer.
TEST(StageTraceTest, GatewayStagesSumToEndToEndUnderLoad) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions options;
  options.time_scale = 60.0;
  options.horizon_model_seconds = 3600.0;
  options.seed = 5;
  options.gateway.queue_capacity = 256;  // small: bursts shed
  options.gateway.workers = 2;
  options.scheduler.control_interval_seconds = 15.0;
  options.telemetry = &telemetry;

  sched::ServiceClassSet classes = sched::MakePaperClasses();
  rt::Runtime runtime(classes, options);

  std::atomic<uint64_t> traced{0};
  std::atomic<uint64_t> untraced{0};
  std::mutex mu;
  double worst_residual = 0.0;
  double worst_negative_stage = 0.0;
  runtime.gateway().set_on_complete(
      [&](const workload::QueryRecord& record) {
        if (record.trace == nullptr) {
          untraced.fetch_add(1);
          return;
        }
        traced.fetch_add(1);
        const obs::QueryStageTrace& trace = *record.trace;
        double sum = trace.GatewayQueueSeconds() + trace.DispatchSeconds() +
                     trace.ExecuteSeconds();
        double residual = std::abs(sum - trace.TotalSeconds());
        double most_negative =
            std::min({trace.GatewayQueueSeconds(), trace.DispatchSeconds(),
                      trace.ExecuteSeconds()});
        std::lock_guard<std::mutex> lock(mu);
        worst_residual = std::max(worst_residual, residual);
        worst_negative_stage =
            std::min(worst_negative_stage, most_negative);
      });
  runtime.Start();

  workload::TpchWorkloadParams tpch;
  tpch.scale_factor = 0.1;
  workload::TpchWorkload olap(tpch, /*seed=*/21);
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/22);

  rt::LoadGenOptions load;
  load.shape.pattern = rt::ArrivalPattern::kBursty;
  load.qps = 1500.0;
  load.duration_wall_seconds = 1.5;
  load.seed = 99;
  load.shape.burst_period_seconds = 0.3;
  load.shape.burst_duty = 0.3;
  load.shape.burst_factor = 3.0;
  rt::LoadGenerator loadgen(&runtime.gateway(),
                            {{&olap, 1, 6.0}, {&oltp, 3, 94.0}}, load,
                            &telemetry);
  loadgen.Start();
  loadgen.Join();
  rt::Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/120.0);

  ASSERT_TRUE(stats.drained);
  // Every rt submission carries a trace; the sum matches end-to-end to
  // sub-millisecond (by construction it is exact — the tolerance guards
  // the f64 arithmetic, not the stamps).
  EXPECT_GE(traced.load(), 500u);
  EXPECT_EQ(untraced.load(), 0u);
  EXPECT_EQ(traced.load(), stats.completed);
  EXPECT_LE(worst_residual, kToleranceSeconds);
  EXPECT_GE(worst_negative_stage, 0.0) << "a stage duration went negative";

  // Shedding must not corrupt accounting: rejected queries never reach
  // the completion path, and the conservation identity still holds.
  EXPECT_EQ(stats.accepted + stats.rejected, loadgen.offered());
  EXPECT_EQ(stats.completed, stats.accepted);

  // The per-class stage histograms saw all three stages.
  std::vector<obs::MetricSnapshot> snaps = telemetry.registry.Snapshot();
  uint64_t gateway_queue_count = 0, dispatch_count = 0, execute_count = 0;
  for (const obs::MetricSnapshot& snap : snaps) {
    if (snap.name != "qsched_stage_seconds") continue;
    if (snap.labels.find("stage=\"gateway_queue\"") != std::string::npos) {
      gateway_queue_count += snap.count;
    } else if (snap.labels.find("stage=\"dispatch\"") !=
               std::string::npos) {
      dispatch_count += snap.count;
    } else if (snap.labels.find("stage=\"execute\"") != std::string::npos) {
      execute_count += snap.count;
    }
  }
  EXPECT_EQ(gateway_queue_count, stats.completed);
  EXPECT_EQ(dispatch_count, stats.completed);
  EXPECT_EQ(execute_count, stats.completed);
}

// Over the wire: the v2 COMPLETED trace context arrives when asked for,
// its stages are non-negative and sum to a plausible server-side
// end-to-end latency (bounded by the client-observed round trip), and
// turning want_trace off suppresses it (v1-compatible behavior).
TEST(StageTraceTest, WireTraceContextRoundTrip) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions options;
  options.time_scale = 120.0;
  options.horizon_model_seconds = 7200.0;
  options.seed = 12;
  options.gateway.queue_capacity = 4096;
  options.gateway.workers = 2;
  options.telemetry = &telemetry;
  rt::Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();

  net::ServerOptions server_options;
  net::Server server(&runtime.gateway(), server_options, &telemetry);
  ASSERT_TRUE(server.Start().ok());

  Result<std::unique_ptr<net::Client>> connected =
      net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<net::Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/4);
  constexpr int kQueries = 20;
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    workload::Query query = oltp.Next();
    query.class_id = 3;
    query.client_id = i;
    Result<net::Client::SubmitResult> verdict = client->Submit(query);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    ASSERT_TRUE(verdict.ValueOrDie().accepted);
  }
  for (int i = 0; i < kQueries; ++i) {
    Result<net::ClientCompletion> completion = client->NextCompletion();
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    const net::ClientCompletion& done = completion.ValueOrDie();
    double round_trip = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    EXPECT_TRUE(done.has_trace);
    EXPECT_NE(done.trace_id, 0u);
    EXPECT_GE(done.stage_gateway_queue_seconds, 0.0);
    EXPECT_GE(done.stage_dispatch_seconds, 0.0);
    EXPECT_GE(done.stage_execute_seconds, 0.0);
    // The server-side end-to-end span is contained in the client's
    // submit-to-receive window.
    EXPECT_GT(done.StageTotalSeconds(), 0.0);
    EXPECT_LE(done.StageTotalSeconds(), round_trip + kToleranceSeconds);
  }

  // v1-style clients (no trace flag) get a trace-free COMPLETED.
  client->set_want_trace(false);
  workload::Query query = oltp.Next();
  query.class_id = 3;
  Result<net::Client::SubmitResult> verdict = client->Submit(query);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_TRUE(verdict.ValueOrDie().accepted);
  Result<net::ClientCompletion> completion = client->NextCompletion();
  ASSERT_TRUE(completion.ok()) << completion.status().ToString();
  EXPECT_FALSE(completion.ValueOrDie().has_trace);
  EXPECT_DOUBLE_EQ(completion.ValueOrDie().StageTotalSeconds(), 0.0);

  ASSERT_TRUE(client->Drain().ok());
  server.Stop();
  runtime.Shutdown();
}

}  // namespace
}  // namespace qsched
