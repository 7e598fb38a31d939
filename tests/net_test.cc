// Loopback lifecycle tests for the TCP front-end: connect/submit/
// complete, concurrent-connection stress, graceful shutdown with zero
// lost completions, malformed-frame injection, backpressure mapping,
// the connection cap, sub-millisecond poll timeouts and the synthetic
// arrival source's pinned draw order. These run in the TSan and ASan gates (see
// tests/CMakeLists.txt), so the reactor/clock-thread handoff is checked
// for races and memory errors, not just behavior.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "rt/runtime.h"
#include "rt/wall_clock.h"
#include "scheduler/service_class.h"
#include "workload/client.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::net {
namespace {

/// Runtime + server harness with paper classes at a fast time scale, so
/// OLTP queries complete in milliseconds of wall time.
struct ServerHarness {
  explicit ServerHarness(int max_connections = 64, int reactors = 0)
      : runtime(sched::MakePaperClasses(), MakeRuntimeOptions()) {
    runtime.Start();
    ServerOptions options;
    options.max_connections = max_connections;
    options.reactors = reactors;
    server = std::make_unique<Server>(&runtime.gateway(), options,
                                      &telemetry);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ServerHarness() {
    server->Stop();
    runtime.Shutdown();
  }

  rt::RuntimeOptions MakeRuntimeOptions() {
    rt::RuntimeOptions options;
    options.time_scale = 120.0;
    options.horizon_model_seconds = 7200.0;
    options.seed = 11;
    options.gateway.queue_capacity = 8192;
    options.gateway.workers = 2;
    options.telemetry = &telemetry;
    return options;
  }

  obs::Telemetry telemetry;
  rt::Runtime runtime;
  std::unique_ptr<Server> server;
};

workload::Query NextOltp(workload::TpccWorkload* gen, int client_id) {
  workload::Query query = gen->Next();
  query.class_id = 3;
  query.client_id = client_id;
  return query;
}

TEST(NetTest, ConnectSubmitCompleteStats) {
  ServerHarness harness;
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();

  ASSERT_TRUE(client->Ping().ok());

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/3);
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    Result<Client::SubmitResult> verdict =
        client->Submit(NextOltp(&oltp, i));
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict.ValueOrDie().accepted);
  }
  for (int i = 0; i < kQueries; ++i) {
    Result<ClientCompletion> completion = client->NextCompletion();
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    EXPECT_EQ(completion.ValueOrDie().class_id, 3);
    EXPECT_GE(completion.ValueOrDie().response_seconds, 0.0);
    EXPECT_FALSE(completion.ValueOrDie().cancelled);
  }
  EXPECT_EQ(client->outstanding(), 0u);

  Result<WireStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.ValueOrDie().accepted, 5u);
  EXPECT_GE(stats.ValueOrDie().completed, 5u);
  EXPECT_GE(stats.ValueOrDie().connections, 1u);

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_EQ(harness.server->submits_accepted(), 5u);
  EXPECT_EQ(harness.server->completions_delivered(), 5u);
  EXPECT_EQ(harness.server->completions_dropped(), 0u);
  EXPECT_EQ(harness.server->protocol_errors(), 0u);
}

// Pipelined submission: SUBMITs are queued client-side and flushed in
// one send(); verdicts come back in submission order and every accepted
// query still completes exactly once.
TEST(NetTest, PipelinedSubmissionConservesEveryQuery) {
  ServerHarness harness;
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/12);
  constexpr int kQueries = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kQueries; ++i) {
    Result<uint64_t> rid = client->SubmitNoWait(NextOltp(&oltp, i));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    ids.push_back(rid.ValueOrDie());
  }
  EXPECT_EQ(client->verdicts_pending(), static_cast<size_t>(kQueries));
  ASSERT_TRUE(client->Flush().ok());

  uint64_t accepted = 0;
  for (int i = 0; i < kQueries; ++i) {
    Result<Client::SubmitResult> verdict = client->NextVerdict();
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(verdict.ValueOrDie().request_id, ids[static_cast<size_t>(i)]);
    if (verdict.ValueOrDie().accepted) ++accepted;
  }
  EXPECT_EQ(accepted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(client->verdicts_pending(), 0u);

  uint64_t received = 0;
  while (client->outstanding() > 0) {
    Result<Client::PolledCompletion> polled = client->PollCompletion(10.0);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    ASSERT_TRUE(polled.ValueOrDie().found);
    ++received;
  }
  EXPECT_EQ(received, accepted);
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_EQ(harness.server->submits_accepted(), accepted);
  EXPECT_EQ(harness.server->completions_delivered(), accepted);
  EXPECT_EQ(harness.server->protocol_errors(), 0u);
}

// A blocking Submit behind pipelined ones on the same connection: it
// returns its own verdict, the older verdicts stay queued in order, and
// the connection's accounting balances after the drain.
TEST(NetTest, BlockingSubmitAfterPipelinedKeepsVerdictOrder) {
  ServerHarness harness;
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/21);
  std::vector<uint64_t> pipelined;
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> rid = client->SubmitNoWait(NextOltp(&oltp, i));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    pipelined.push_back(rid.ValueOrDie());
  }
  Result<Client::SubmitResult> blocking = client->Submit(NextOltp(&oltp, 3));
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  EXPECT_EQ(blocking.ValueOrDie().request_id, pipelined.back() + 1);
  EXPECT_EQ(client->verdicts_pending(), pipelined.size());

  uint64_t accepted = blocking.ValueOrDie().accepted ? 1 : 0;
  for (uint64_t want : pipelined) {
    Client::SubmitResult verdict;
    ASSERT_TRUE(client->PopVerdict(&verdict));
    EXPECT_EQ(verdict.request_id, want);
    if (verdict.accepted) ++accepted;
  }
  Client::SubmitResult extra;
  EXPECT_FALSE(client->PopVerdict(&extra));
  EXPECT_EQ(accepted, 4u);

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_EQ(client->outstanding(), 0u);
  uint64_t received = 0;
  while (true) {
    Result<Client::PolledCompletion> polled = client->PollCompletion(0.0);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    if (!polled.ValueOrDie().found) break;
    ++received;
  }
  EXPECT_EQ(received, accepted);
  EXPECT_EQ(harness.server->submits_accepted(), accepted);
  EXPECT_EQ(harness.server->completions_delivered(), accepted);
}

TEST(NetTest, EightConnectionStressConservesEveryQuery) {
  ServerHarness harness;
  RemoteLoadOptions options;
  options.connections = 8;
  options.qps = 1600.0;
  options.duration_wall_seconds = 1.2;
  options.seed = 99;
  options.tpch_scale_factor = 0.05;
  RemoteLoadGenerator loadgen("127.0.0.1", harness.server->port(),
                              options, &harness.telemetry);
  Result<LoadReport> run = loadgen.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const LoadReport& report = run.ValueOrDie();

  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.offered, report.accepted + report.rejected());
  EXPECT_EQ(report.completed, report.accepted);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.unmatched, 0u);
  EXPECT_TRUE(report.conserved());

  // Server-side view agrees: every accepted submission produced exactly
  // one COMPLETED on its originating, still-open connection.
  EXPECT_EQ(harness.server->submits_accepted(), report.accepted);
  EXPECT_EQ(harness.server->completions_delivered(), report.completed);
  EXPECT_EQ(harness.server->completions_dropped(), 0u);
  EXPECT_EQ(harness.server->connections_accepted(), 8u);
}

// The multi-reactor front-end under pipelined load: 8 connections dealt
// round-robin across 4 reactors, no query lost, duplicated or
// cross-wired between reactors.
TEST(NetTest, MultiReactorPipelinedStressConservesEveryQuery) {
  ServerHarness harness(/*max_connections=*/64, /*reactors=*/4);
  EXPECT_EQ(harness.server->reactors(), 4);

  RemoteLoadOptions options;
  options.connections = 8;
  options.qps = 4000.0;
  options.duration_wall_seconds = 1.2;
  options.seed = 77;
  options.tpch_scale_factor = 0.05;
  options.pipeline = true;
  options.max_outstanding = 64;
  RemoteLoadGenerator loadgen("127.0.0.1", harness.server->port(),
                              options, &harness.telemetry);
  Result<LoadReport> run = loadgen.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const LoadReport& report = run.ValueOrDie();

  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.offered, report.accepted + report.rejected());
  EXPECT_EQ(report.completed, report.accepted);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.unmatched, 0u);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.feed_seconds, 0.0);

  EXPECT_EQ(harness.server->submits_accepted(), report.accepted);
  EXPECT_EQ(harness.server->completions_delivered(), report.completed);
  EXPECT_EQ(harness.server->completions_dropped(), 0u);
  EXPECT_EQ(harness.server->connections_accepted(), 8u);
}

// Drain-then-close across reactors: Stop() with completions in flight on
// every reactor still delivers each accepted query's COMPLETED.
TEST(NetTest, MultiReactorStopDeliversEveryAcceptedCompletion) {
  auto harness =
      std::make_unique<ServerHarness>(/*max_connections=*/64,
                                      /*reactors=*/3);
  constexpr int kClients = 6;
  constexpr int kPerClient = 20;

  std::vector<std::unique_ptr<Client>> clients;
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/15);
  uint64_t accepted = 0;
  for (int c = 0; c < kClients; ++c) {
    Result<std::unique_ptr<Client>> connected =
        Client::Connect("127.0.0.1", harness->server->port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    clients.push_back(std::move(connected).ValueOrDie());
    for (int i = 0; i < kPerClient; ++i) {
      Result<uint64_t> rid =
          clients.back()->SubmitNoWait(NextOltp(&oltp, c));
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    }
    ASSERT_TRUE(clients.back()->Flush().ok());
    while (clients.back()->verdicts_pending() > 0) {
      Result<Client::SubmitResult> verdict = clients.back()->NextVerdict();
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (verdict.ValueOrDie().accepted) ++accepted;
    }
  }
  ASSERT_GT(accepted, 0u);

  harness->server->Stop();
  EXPECT_EQ(harness->server->submits_accepted(), accepted);
  EXPECT_EQ(harness->server->completions_delivered(), accepted);
  EXPECT_EQ(harness->server->completions_dropped(), 0u);

  uint64_t received = 0;
  for (auto& client : clients) {
    while (client->outstanding() > 0) {
      Result<Client::PolledCompletion> polled =
          client->PollCompletion(10.0);
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      ASSERT_TRUE(polled.ValueOrDie().found);
      ++received;
    }
  }
  EXPECT_EQ(received, accepted);
}

// Each malformed probe is a fresh connection, so round-robin accept
// lands them on every reactor; none crashes, and every reactor still
// serves well-behaved clients afterwards.
TEST(NetTest, MalformedFramesSurviveOnEveryReactor) {
  ServerHarness harness(/*max_connections=*/64, /*reactors=*/4);
  Status injected = InjectMalformedFrames(
      "127.0.0.1", harness.server->port(), /*count=*/12, /*seed=*/6);
  EXPECT_TRUE(injected.ok()) << injected.ToString();
  EXPECT_GT(harness.server->protocol_errors(), 0u);

  for (int i = 0; i < 4; ++i) {
    Result<std::unique_ptr<Client>> connected =
        Client::Connect("127.0.0.1", harness.server->port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    EXPECT_TRUE(connected.ValueOrDie()->Ping().ok());
  }
}

// The connection cap counts connections across all reactors, including
// accepted-but-not-yet-adopted hand-offs.
TEST(NetTest, ConnectionCapIsGlobalAcrossReactors) {
  ServerHarness harness(/*max_connections=*/2, /*reactors=*/3);
  std::vector<std::unique_ptr<Client>> keep;
  for (int i = 0; i < 2; ++i) {
    Result<std::unique_ptr<Client>> connected =
        Client::Connect("127.0.0.1", harness.server->port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    ASSERT_TRUE(connected.ValueOrDie()->Ping().ok());
    keep.push_back(std::move(connected).ValueOrDie());
  }
  Result<std::unique_ptr<Client>> overflow =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(overflow.ok()) << overflow.status().ToString();
  EXPECT_FALSE(overflow.ValueOrDie()->Ping().ok());
  EXPECT_GE(harness.server->connections_refused(), 1u);

  for (auto& client : keep) EXPECT_TRUE(client->Ping().ok());
}

TEST(NetTest, ShutdownWhileClientsConnectedLosesNoCompletions) {
  auto harness = std::make_unique<ServerHarness>();
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;

  std::vector<std::unique_ptr<Client>> clients;
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/8);
  uint64_t accepted = 0;
  for (int c = 0; c < kClients; ++c) {
    Result<std::unique_ptr<Client>> connected =
        Client::Connect("127.0.0.1", harness->server->port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    clients.push_back(std::move(connected).ValueOrDie());
    for (int i = 0; i < kPerClient; ++i) {
      Result<Client::SubmitResult> verdict =
          clients.back()->Submit(NextOltp(&oltp, c));
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (verdict.ValueOrDie().accepted) ++accepted;
    }
  }
  ASSERT_GT(accepted, 0u);

  // Stop with completions still in flight and every client connected:
  // the drain-then-close contract says each accepted query's COMPLETED
  // is delivered (or at least flushed to the socket) before the close.
  harness->server->Stop();
  EXPECT_EQ(harness->server->submits_accepted(), accepted);
  EXPECT_EQ(harness->server->completions_delivered(), accepted);
  EXPECT_EQ(harness->server->completions_dropped(), 0u);

  // The clients can still read every buffered completion after the
  // server is gone.
  uint64_t received = 0;
  for (auto& client : clients) {
    while (client->outstanding() > 0) {
      Result<Client::PolledCompletion> polled =
          client->PollCompletion(10.0);
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      ASSERT_TRUE(polled.ValueOrDie().found);
      ++received;
    }
  }
  EXPECT_EQ(received, accepted);
}

TEST(NetTest, MalformedFramesDoNotKillTheServer) {
  ServerHarness harness;
  Status injected = InjectMalformedFrames(
      "127.0.0.1", harness.server->port(), /*count=*/10, /*seed=*/5);
  EXPECT_TRUE(injected.ok()) << injected.ToString();
  EXPECT_GT(harness.server->protocol_errors(), 0u);

  // The server is still fully functional for well-behaved clients.
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();
  EXPECT_TRUE(client->Ping().ok());
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/4);
  Result<Client::SubmitResult> verdict = client->Submit(NextOltp(&oltp, 0));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict.ValueOrDie().accepted);
  ASSERT_TRUE(client->NextCompletion().ok());
  ASSERT_TRUE(client->Drain().ok());
}

/// Frontend that never completes anything: queries vanish into it, so a
/// gateway with no workers keeps its queue exactly as the test fills it.
class BlackholeFrontend : public workload::QueryFrontend {
 public:
  void Submit(const workload::Query&, CompleteFn) override {}
};

TEST(NetTest, BackpressureMapsToQueueFullRejection) {
  // A gateway whose workers are never started: capacity 2 fills after
  // two accepts, deterministically forcing the queue-full path.
  rt::WallClock clock(rt::WallClock::Options{/*time_scale=*/1.0});
  BlackholeFrontend frontend;
  rt::GatewayOptions gateway_options;
  gateway_options.queue_capacity = 2;
  rt::Gateway gateway(&clock, &frontend, gateway_options);

  ServerOptions server_options;
  // Two accepted submissions never complete; don't wait for them.
  server_options.stop_drain_timeout_seconds = 0.2;
  obs::Telemetry telemetry;
  Server server(&gateway, server_options, &telemetry);
  ASSERT_TRUE(server.Start().ok());

  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/2);
  for (int i = 0; i < 2; ++i) {
    Result<Client::SubmitResult> verdict =
        client->Submit(NextOltp(&oltp, i));
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict.ValueOrDie().accepted);
  }
  Result<Client::SubmitResult> verdict = client->Submit(NextOltp(&oltp, 2));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict.ValueOrDie().accepted);
  EXPECT_EQ(verdict.ValueOrDie().reject_reason,
            rt::RejectReason::kQueueFull);
  EXPECT_EQ(gateway.rejected_queue_full(), 1u);
  EXPECT_EQ(server.submits_rejected(), 1u);
  EXPECT_EQ(telemetry.registry
                .GetCounter("qsched_net_submit_rejected_total",
                            "reason=\"queue_full\"")
                ->value(),
            1u);
  server.Stop();
}

TEST(NetTest, ConnectionCapRefusesTheOverflowConnection) {
  ServerHarness harness(/*max_connections=*/1);
  Result<std::unique_ptr<Client>> first =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.ValueOrDie()->Ping().ok());

  // The overflow connection is accepted at the TCP level and closed
  // immediately; its first round-trip fails.
  Result<std::unique_ptr<Client>> second =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.ValueOrDie()->Ping().ok());
  EXPECT_GE(harness.server->connections_refused(), 1u);

  // The in-cap connection is unaffected.
  EXPECT_TRUE(first.ValueOrDie()->Ping().ok());
}

// A paced wire driver waits for due times a fraction of a millisecond
// away; rounding them up to whole poll() milliseconds sends late.
TEST(NetTest, PollCompletionHonoursSubMillisecondTimeout) {
  ServerHarness harness;
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", harness.server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();
  ASSERT_TRUE(client->Ping().ok());

  std::vector<double> waits;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<Client::PolledCompletion> polled = client->PollCompletion(0.0003);
    waits.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    EXPECT_FALSE(polled.ValueOrDie().found);
  }
  std::nth_element(waits.begin(), waits.begin() + 25, waits.end());
  EXPECT_LT(waits[25], 0.0008);
  ASSERT_TRUE(client->Drain().ok());
}

// The synthetic source's (class, query, due time, client id) sequence is
// a pure function of (seed, options), drawn in the documented order.
TEST(NetTest, SyntheticSourceDrawOrderPinned) {
  for (uint64_t seed : {42u, 7u}) {
    RemoteLoadOptions options;
    options.connections = 2;
    options.qps = 1000.0;
    options.duration_wall_seconds = 60.0;
    options.seed = seed;
    options.tpch_scale_factor = 0.05;
    for (int connection = 0; connection < 2; ++connection) {
      const uint64_t base = seed + static_cast<uint64_t>(connection) * 7919;
      workload::TpchWorkloadParams tpch;
      tpch.scale_factor = 0.05;
      workload::TpchWorkload olap(tpch, base);
      workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, base + 1);
      Rng rng(base, 0x9e3779b97f4a7c15ULL);
      const std::vector<double> weights = {3.0, 3.0, 94.0};
      double due = 0.0;

      SyntheticSource source(options, connection);
      for (int k = 0; k < 200; ++k) {
        const size_t pick = rng.Categorical(weights);
        const workload::Query expected =
            pick < 2 ? olap.Next() : oltp.Next();
        double got_due = -1.0;
        workload::Query got;
        ASSERT_TRUE(source.Next(&got_due, &got));
        EXPECT_EQ(got.class_id, static_cast<int>(pick) + 1);
        EXPECT_EQ(got.cost_timerons, expected.cost_timerons);
        EXPECT_EQ(got.template_name, expected.template_name);
        EXPECT_EQ(got_due, due);
        EXPECT_EQ(got.client_id, connection * 16 + k % 16);
        due += rng.Exponential(1.0 / 500.0);
      }
    }
  }
}

}  // namespace
}  // namespace qsched::net
