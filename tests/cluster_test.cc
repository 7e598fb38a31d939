// Cluster-layer tests: SLO-aware routing across loopback backends,
// failover on backend death with zero lost COMPLETEDs, the per-backend
// circuit breaker lifecycle, a channel that cannot create its wakeup
// pipe, attainment-deficit rerouting, and the pool's readiness wait
// (woken by the channels, bounded by its timeout). These
// run in the TSan and ASan gates (tests/CMakeLists.txt): the router's
// callbacks cross the front reactors, the channel threads and the
// backends' completion threads, so the handoffs are checked for races
// and memory errors, not just behavior.

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/backend_channel.h"
#include "cluster/backend_pool.h"
#include "cluster/router.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "workload/tpcc_workload.h"

namespace qsched::cluster {
namespace {

using std::chrono::steady_clock;

/// One qsched backend (runtime + net::Server) at a fast time scale, so
/// OLTP queries complete in milliseconds of wall time. Restartable on a
/// fixed port for the failover and breaker tests.
struct Backend {
  explicit Backend(uint16_t port = 0)
      : runtime(sched::MakePaperClasses(), MakeRuntimeOptions()) {
    runtime.Start();
    net::ServerOptions options;
    options.port = port;
    options.reactors = 1;
    server = std::make_unique<net::Server>(&runtime.gateway(), options,
                                           &telemetry);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~Backend() {
    server->Stop();
    runtime.Shutdown();
  }

  static rt::RuntimeOptions MakeRuntimeOptions() {
    rt::RuntimeOptions options;
    options.time_scale = 120.0;
    options.horizon_model_seconds = 7200.0;
    options.seed = 7;
    options.gateway.queue_capacity = 8192;
    options.gateway.workers = 2;
    return options;
  }

  BackendAddress address() const { return {"127.0.0.1", server->port()}; }

  obs::Telemetry telemetry;
  rt::Runtime runtime;
  std::unique_ptr<net::Server> server;
};

/// Short intervals so breaker transitions happen in test time.
BackendTuning FastTuning() {
  BackendTuning tuning;
  tuning.connect_timeout_seconds = 0.5;
  tuning.probe_interval_seconds = 0.05;
  tuning.probe_timeout_seconds = 0.15;
  tuning.eject_after_failures = 2;
  tuning.backoff_initial_seconds = 0.02;
  tuning.backoff_max_seconds = 0.2;
  tuning.seed = 99;
  return tuning;
}

workload::Query NextOltp(workload::TpccWorkload* gen, int client_id) {
  workload::Query query = gen->Next();
  query.class_id = 3;
  query.client_id = client_id;
  return query;
}

bool WaitFor(const std::function<bool()>& cond, double timeout_seconds) {
  const auto deadline =
      steady_clock::now() + std::chrono::duration<double>(timeout_seconds);
  while (steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// A loopback port nothing listens on (bound, read back, released).
uint16_t UnusedPort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  close(fd);
  return ntohs(addr.sin_port);
}

void RejectFailover(RoutedQuery item, BackendChannel*) {
  item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
}

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

TEST(ClusterTest, RejectReasonAndStateStrings) {
  EXPECT_STREQ(rt::RejectReasonToString(rt::RejectReason::kQueueFull),
               "queue_full");
  EXPECT_STREQ(rt::RejectReasonToString(rt::RejectReason::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(
      rt::RejectReasonToString(rt::RejectReason::kBackendUnavailable),
      "backend_unavailable");
  EXPECT_STREQ(BackendHealthToString(BackendHealth::kHealthy), "healthy");
  EXPECT_STREQ(BackendHealthToString(BackendHealth::kDegraded), "degraded");
  EXPECT_STREQ(BackendHealthToString(BackendHealth::kEjected), "ejected");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kClosed), "closed");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kOpen), "open");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kHalfOpen), "half_open");
}

TEST(ClusterTest, BackendUnavailableSurvivesTheWire) {
  net::Frame frame;
  frame.type = net::FrameType::kRejected;
  frame.request_id = 77;
  frame.reject_reason = rt::RejectReason::kBackendUnavailable;
  std::vector<uint8_t> wire;
  net::EncodeFrame(frame, &wire);
  net::Frame decoded;
  size_t consumed = 0;
  ASSERT_EQ(net::DecodeFrame(wire.data(), wire.size(), &decoded, &consumed),
            net::DecodeStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.type, net::FrameType::kRejected);
  EXPECT_EQ(decoded.reject_reason, rt::RejectReason::kBackendUnavailable);
}

TEST(ClusterTest, BackendScoreWeighsLoadAndDeficit) {
  // Equal load: the backend missing its SLO scores strictly worse.
  EXPECT_LT(BackendScore(2.0, 0.0, 4.0), BackendScore(2.0, 0.5, 4.0));
  // Equal deficit: the less loaded backend wins.
  EXPECT_LT(BackendScore(1.0, 0.3, 4.0), BackendScore(5.0, 0.3, 4.0));
  // Deficit is clamped to [0, 1]: over-attainment is not a bonus.
  EXPECT_EQ(BackendScore(1.0, -0.5, 4.0), BackendScore(1.0, 0.0, 4.0));
}

// Full stack: wire client -> front net::Server -> Router -> 3 loopback
// backends. Every query routes, completes exactly once, and the
// conservation identity holds at shutdown.
TEST(ClusterTest, RouteThenCompleteAcrossThreeBackends) {
  Backend b0, b1, b2;
  obs::Telemetry telemetry;
  RouterOptions options;
  options.tuning = FastTuning();
  Router router({b0.address(), b1.address(), b2.address()}, options,
                &telemetry);
  router.Start();
  ASSERT_EQ(router.pool().WaitUsable(3, 5.0), 3u);

  net::ServerOptions front_options;
  front_options.reactors = 1;
  net::Server front(&router, front_options, &telemetry);
  ASSERT_TRUE(front.Start().ok());

  Result<std::unique_ptr<net::Client>> connected =
      net::Client::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<net::Client> client = std::move(connected).ValueOrDie();
  ASSERT_TRUE(client->Ping().ok());

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/5);
  constexpr int kQueries = 90;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client->SubmitNoWait(NextOltp(&oltp, i)).ok());
  }
  int accepted = 0;
  for (int i = 0; i < kQueries; ++i) {
    Result<net::Client::SubmitResult> verdict = client->NextVerdict();
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    if (verdict.ValueOrDie().accepted) ++accepted;
  }
  EXPECT_EQ(accepted, kQueries);
  for (int i = 0; i < accepted; ++i) {
    Result<net::ClientCompletion> completion = client->NextCompletion();
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    EXPECT_EQ(completion.ValueOrDie().class_id, 3);
  }
  EXPECT_EQ(client->outstanding(), 0u);

  // STATS through the router aggregates the pool.
  Result<net::WireStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().accepted, static_cast<uint64_t>(accepted));

  uint64_t forwarded = 0;
  int backends_used = 0;
  for (const BackendSnapshot& snap : router.pool().Snapshots()) {
    forwarded += snap.forwarded;
    if (snap.forwarded > 0) ++backends_used;
  }
  EXPECT_EQ(forwarded, static_cast<uint64_t>(kQueries));
  // Least-loaded scoring spreads a pipelined burst over the pool.
  EXPECT_GE(backends_used, 2);

  client.reset();
  front.Stop();
  router.Stop();
  EXPECT_TRUE(router.ConservationHolds());
  const RouterAccounting acc = router.Accounting();
  EXPECT_EQ(acc.offered, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(acc.accepted, static_cast<uint64_t>(accepted));
  EXPECT_EQ(acc.completions_relayed, static_cast<uint64_t>(accepted));

  // The route stage was stamped for every verdict.
  obs::Histogram* route_hist = telemetry.registry.GetHistogram(
      "qsched_stage_seconds", "class=\"3\",stage=\"route\"");
  EXPECT_GE(route_hist->count(), static_cast<uint64_t>(kQueries));
}

// Kill one of two backends mid-stream: in-flight queries fail over or
// resolve as cancelled completions, later queries route around the dead
// backend, and not a single accepted query loses its COMPLETED.
TEST(ClusterTest, KillOneBackendFailoverLosesNothing) {
  auto b0 = std::make_unique<Backend>();
  Backend b1;
  obs::Telemetry telemetry;
  RouterOptions options;
  options.tuning = FastTuning();
  Router router({b0->address(), b1.address()}, options, &telemetry);
  router.Start();
  ASSERT_EQ(router.pool().WaitUsable(2, 5.0), 2u);

  net::ServerOptions front_options;
  front_options.reactors = 1;
  net::Server front(&router, front_options, &telemetry);
  ASSERT_TRUE(front.Start().ok());

  Result<std::unique_ptr<net::Client>> connected =
      net::Client::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<net::Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/21);
  constexpr int kBefore = 60;
  constexpr int kAfter = 60;
  int accepted = 0;
  int completions = 0;

  auto drain_buffered = [&] {
    Result<net::Client::PolledCompletion> polled =
        client->PollCompletion(0.0);
    while (polled.ok() && polled.ValueOrDie().found) {
      ++completions;
      polled = client->PollCompletion(0.0);
    }
  };

  for (int i = 0; i < kBefore; ++i) {
    Result<net::Client::SubmitResult> verdict =
        client->Submit(NextOltp(&oltp, i));
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    if (verdict.ValueOrDie().accepted) ++accepted;
    drain_buffered();
  }

  // Backend 0 goes away (graceful stop: its in-flight queries complete,
  // then the channel sees EOF, ejects it and re-routes).
  b0.reset();

  for (int i = 0; i < kAfter; ++i) {
    Result<net::Client::SubmitResult> verdict =
        client->Submit(NextOltp(&oltp, kBefore + i));
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    if (verdict.ValueOrDie().accepted) ++accepted;
    drain_buffered();
  }

  // Post-kill queries must keep being accepted: backend 1 covers.
  EXPECT_GE(accepted, kAfter);

  // Zero lost COMPLETEDs: every accepted query yields exactly one
  // completion frame (real or cancelled).
  while (completions < accepted) {
    Result<net::ClientCompletion> completion = client->NextCompletion();
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    ++completions;
  }
  EXPECT_EQ(completions, accepted);
  EXPECT_EQ(client->outstanding(), 0u);

  // The breaker needs a couple of failed reconnects to reach the
  // ejection threshold; the routing shift happened regardless.
  EXPECT_TRUE(WaitFor(
      [&] {
        const BackendSnapshot snap = router.pool().Snapshots()[0];
        return snap.health == BackendHealth::kEjected && !snap.connected;
      },
      5.0));
  EXPECT_GT(router.pool().Snapshots()[1].forwarded, 0u);

  client.reset();
  front.Stop();
  router.Stop();
  EXPECT_TRUE(router.ConservationHolds());
}

// A channel asked to forward while unusable hands the query back for
// re-routing instead of dropping it.
TEST(ClusterTest, UnusableChannelFailsOverInsteadOfDropping) {
  std::atomic<int> failovers{0};
  std::atomic<int> rejects{0};
  BackendChannel channel(
      {"127.0.0.1", 1}, FastTuning(), /*index=*/0,
      [&](RoutedQuery item, BackendChannel*) {
        failovers.fetch_add(1);
        item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
      });
  channel.Start();
  ASSERT_FALSE(channel.Usable());

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/9);
  RoutedQuery item;
  item.query = NextOltp(&oltp, 0);
  item.on_verdict = [&](bool accepted, rt::RejectReason reason) {
    EXPECT_FALSE(accepted);
    EXPECT_EQ(reason, rt::RejectReason::kBackendUnavailable);
    rejects.fetch_add(1);
  };
  item.on_complete = [](const net::ServiceCompletion&) { FAIL(); };
  channel.Forward(std::move(item));

  EXPECT_TRUE(WaitFor([&] { return rejects.load() == 1; }, 5.0));
  EXPECT_EQ(failovers.load(), 1);
  channel.Stop();
}

// A channel whose wakeup pipe cannot be created says so from Start() and
// rejects forwarded queries at once, instead of queueing them for a
// thread that no Forward can wake.
TEST(ClusterTest, FailedWakePipeFailsStartAndRejectsForwards) {
  BackendChannel channel({"127.0.0.1", 1}, FastTuning(), /*index=*/0,
                         [](RoutedQuery, BackendChannel*) { FAIL(); });
  // No descriptor can be allocated while the soft limit is 0.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &none), 0);
  const Status started = channel.Start();
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_FALSE(started.ok());

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/9);
  int rejects = 0;
  RoutedQuery item;
  item.query = NextOltp(&oltp, 0);
  item.on_verdict = [&](bool accepted, rt::RejectReason reason) {
    EXPECT_FALSE(accepted);
    EXPECT_EQ(reason, rt::RejectReason::kBackendUnavailable);
    ++rejects;
  };
  item.on_complete = [](const net::ServiceCompletion&) { FAIL(); };
  channel.Forward(std::move(item));
  EXPECT_EQ(rejects, 1);
  channel.Stop();
}

// Circuit breaker lifecycle against a half-dead peer: a listener that
// accepts TCP but never answers a probe holds the circuit half-open;
// probe timeouts then eject the backend (open); a real backend on the
// same port closes it again.
TEST(ClusterTest, CircuitBreakerLifecycle) {
  // Dumb listener: accepts connections, never speaks the protocol.
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  BackendChannel channel({"127.0.0.1", port}, FastTuning(), /*index=*/0,
                         [](RoutedQuery, BackendChannel*) { FAIL(); });
  channel.Start();

  // Connected but unanswered probe: half-open, not usable.
  EXPECT_TRUE(WaitFor(
      [&] {
        const BackendSnapshot snap = channel.Snapshot();
        return snap.connected && snap.circuit == CircuitState::kHalfOpen;
      },
      5.0));
  EXPECT_FALSE(channel.Usable());

  // Probe timeouts accumulate to the ejection threshold: open + ejected.
  EXPECT_TRUE(WaitFor(
      [&] {
        const BackendSnapshot snap = channel.Snapshot();
        return snap.health == BackendHealth::kEjected &&
               snap.circuit == CircuitState::kOpen && !snap.connected;
      },
      5.0));

  // A real backend takes over the port: reconnect, answered probe,
  // circuit closes, backend healthy and usable again.
  close(listener);
  Backend backend(port);
  EXPECT_TRUE(WaitFor(
      [&] {
        const BackendSnapshot snap = channel.Snapshot();
        return snap.health == BackendHealth::kHealthy &&
               snap.circuit == CircuitState::kClosed && snap.connected;
      },
      10.0));
  EXPECT_TRUE(channel.Usable());
  EXPECT_GE(channel.Snapshot().reconnects, 2u);
  channel.Stop();
}

// A backend reporting an OLTP attainment deficit stops receiving OLTP
// traffic: routing shifts to the backend meeting its SLO.
TEST(ClusterTest, SloDeficitShiftsRouting) {
  Backend b0, b1;
  obs::Telemetry telemetry;
  RouterOptions options;
  options.tuning = FastTuning();
  options.tuning.attainment_weight = 8.0;
  Router router({b0.address(), b1.address()}, options, &telemetry);
  router.Start();
  ASSERT_EQ(router.pool().WaitUsable(2, 5.0), 2u);

  // Starve backend 0's OLTP attainment; backend 1 meets its goal.
  router.pool().channel(0)->InjectStatsForTest(0, {{3, 0.2}});
  router.pool().channel(1)->InjectStatsForTest(0, {{3, 1.0}});

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/31);
  constexpr int kQueries = 80;
  std::atomic<int> verdicts{0};
  std::atomic<int> accepted{0};
  std::atomic<int> completions{0};
  for (int i = 0; i < kQueries; ++i) {
    net::SubmitDisposition disposition = router.Submit(
        NextOltp(&oltp, i), /*want_trace=*/false,
        [&](bool ok, rt::RejectReason) {
          if (ok) accepted.fetch_add(1);
          verdicts.fetch_add(1);
        },
        [&](const net::ServiceCompletion&) { completions.fetch_add(1); });
    ASSERT_EQ(disposition.kind, net::SubmitDisposition::Kind::kDeferred);
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return verdicts.load() == kQueries &&
               completions.load() == accepted.load();
      },
      10.0));

  const std::vector<BackendSnapshot> snaps = router.pool().Snapshots();
  // The deficit-weighted score keeps OLTP off the missing backend.
  EXPECT_GT(snaps[1].forwarded, snaps[0].forwarded * 3);

  router.Stop();
  EXPECT_TRUE(router.ConservationHolds());
}

// A waiter blocked before any backend listens is woken by the PONG
// that makes the backend usable, long before its 30 s timeout.
TEST(ClusterTest, WaitUsableWakesWhenABackendComesUp) {
  const uint16_t port = UnusedPort();
  BackendPool pool({{"127.0.0.1", port}}, FastTuning(), RejectFailover);
  ASSERT_TRUE(pool.Start().ok());
  std::atomic<size_t> usable{0};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    usable.store(pool.WaitUsable(1, 30.0));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());

  Backend backend(port);
  const steady_clock::time_point up = steady_clock::now();
  waiter.join();
  EXPECT_LT(SecondsSince(up), 2.0);
  EXPECT_EQ(usable.load(), 1u);
  pool.Stop();
}

// An unreachable target honours the timeout and reports the usable
// count; asking for none returns at once, whatever the timeout.
TEST(ClusterTest, WaitUsableHonoursItsTimeout) {
  Backend b0, b1;
  BackendPool pool({b0.address(), b1.address()}, FastTuning(),
                   RejectFailover);
  ASSERT_TRUE(pool.Start().ok());
  ASSERT_EQ(pool.WaitUsable(2, 5.0), 2u);

  steady_clock::time_point start = steady_clock::now();
  EXPECT_EQ(pool.WaitUsable(3, 0.2), 2u);
  const double waited = SecondsSince(start);
  EXPECT_GE(waited, 0.2);
  EXPECT_LT(waited, 2.0);

  start = steady_clock::now();
  EXPECT_EQ(pool.WaitUsable(0, 30.0), 2u);
  EXPECT_EQ(pool.WaitUsable(0, std::numeric_limits<double>::infinity()),
            2u);
  EXPECT_EQ(pool.WaitUsable(2, 0.0), 2u);
  EXPECT_EQ(pool.WaitUsable(3, -1.0), 2u);
  EXPECT_LT(SecondsSince(start), 1.0);
  pool.Stop();
  EXPECT_EQ(pool.WaitUsable(0, 30.0), 0u);
}

// An infinite timeout waits without bound (no overflow into a past
// deadline) and still returns as soon as the backends answer; each
// backend's readiness latency is then on /metrics.
TEST(ClusterTest, InfiniteWaitReturnsOnReadinessAndExportsIt) {
  Backend b0, b1;
  obs::Telemetry telemetry;
  BackendPool pool({b0.address(), b1.address()}, FastTuning(),
                   RejectFailover, &telemetry);
  ASSERT_TRUE(pool.Start().ok());
  const steady_clock::time_point start = steady_clock::now();
  EXPECT_EQ(pool.WaitUsable(2, std::numeric_limits<double>::infinity()),
            2u);
  EXPECT_LT(SecondsSince(start), 5.0);

  std::ostringstream text;
  telemetry.registry.WritePrometheus(text);
  const std::string exported = text.str();
  EXPECT_NE(exported.find("# TYPE qsched_cluster_backend_ready_seconds"),
            std::string::npos);
  for (const Backend* backend : {&b0, &b1}) {
    const std::string label =
        "backend=\"" + backend->address().ToString() + "\"";
    obs::Histogram* ready = telemetry.registry.GetHistogram(
        "qsched_cluster_backend_ready_seconds", label);
    EXPECT_GE(ready->count(), 1u) << label;
    EXPECT_GT(ready->min(), 0.0) << label;
    EXPECT_NE(exported.find("qsched_cluster_backend_ready_seconds_count{" +
                            label + "} "),
              std::string::npos)
        << label;
  }
  pool.Stop();
}

// A pool destroyed without Stop() while connected: the channel threads
// signal readiness as they exit, into waiter state that must still be
// alive (checked by the ASan gate).
TEST(ClusterTest, PoolDestroyedWithoutStopWhileConnected) {
  Backend b0, b1;
  {
    BackendPool pool({b0.address(), b1.address()}, FastTuning(),
                     RejectFailover);
    ASSERT_TRUE(pool.Start().ok());
    ASSERT_EQ(pool.WaitUsable(2, 5.0), 2u);
  }
}

}  // namespace
}  // namespace qsched::cluster
