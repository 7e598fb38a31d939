// The embedded observability HTTP server: request/response behavior
// (routing, errors, HEAD), the /metrics and /varz exposition handlers,
// gateway /healthz lifecycle, concurrent scrapes (regression for the
// accept-vs-poll indexing bug), and Client::Stats() parity against
// /varz over a live network front-end. Runs in the TSan and ASan gates
// (see tests/CMakeLists.txt) — the server thread races scraper threads
// by design.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/status_page.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "workload/client.h"
#include "workload/tpcc_workload.h"

namespace qsched::obs {
namespace {

/// Minimal blocking HTTP request: connect, send one request line, read
/// to EOF (the server is HTTP/1.0 close-after-response). Returns the
/// raw response (status line + headers + body); empty on any failure.
std::string HttpFetch(uint16_t port, const std::string& path,
                      const std::string& method = "GET") {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return "";
  }
  std::string request = method + " " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// Extracts the numeric value of `"key": N` from the /varz JSON
/// (integer-valued metrics only); -1 when the key is absent.
long long VarzValue(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

TEST(HttpObsTest, RoutesRequestsAndReportsErrors) {
  HttpServer server(HttpServerOptions{});  // ephemeral port
  server.AddHandler("/ping", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  std::string ok = HttpFetch(server.port(), "/ping");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_EQ(BodyOf(ok), "pong\n");

  // Query strings are stripped before routing.
  EXPECT_EQ(BodyOf(HttpFetch(server.port(), "/ping?verbose=1")), "pong\n");

  // HEAD: true Content-Length, empty body.
  std::string head = HttpFetch(server.port(), "/ping", "HEAD");
  EXPECT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(BodyOf(head), "");

  // Unknown path: 404 listing the registered paths.
  std::string missing = HttpFetch(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_NE(BodyOf(missing).find("/ping"), std::string::npos);

  // Non-GET method: 405.
  std::string post = HttpFetch(server.port(), "/ping", "POST");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

  EXPECT_GE(server.requests_served(), 5u);
  EXPECT_GE(server.requests_failed(), 2u);
  server.Stop();
}

TEST(HttpObsTest, MetricsAndVarzExposition) {
  Registry registry;
  registry.GetCounter("qsched_demo_total")->Inc(3);
  registry.GetGauge("qsched_demo_depth", "class=\"1\"")->Set(4.5);
  Histogram* hist = registry.GetHistogram("qsched_demo_seconds");
  hist->Record(0.010);
  hist->Record(0.020);
  registry.AddAlias("qsched_demo_old_total", "qsched_demo_total");

  HttpServer server(HttpServerOptions{});
  InstallRegistryHandlers(&server, &registry);
  ASSERT_TRUE(server.Start().ok());

  std::string metrics = HttpFetch(server.port(), "/metrics");
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  std::string exposition = BodyOf(metrics);
  EXPECT_NE(exposition.find("# TYPE qsched_demo_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("qsched_demo_total 3"), std::string::npos);
  EXPECT_NE(exposition.find("qsched_demo_depth{class=\"1\"} 4.5"),
            std::string::npos);
  EXPECT_NE(exposition.find("qsched_demo_seconds_count 2"),
            std::string::npos);
  // The deprecated alias is a full extra family, flagged as such.
  EXPECT_NE(exposition.find("# HELP qsched_demo_old_total Deprecated "
                            "alias for qsched_demo_total."),
            std::string::npos);
  EXPECT_NE(exposition.find("qsched_demo_old_total 3"), std::string::npos);
  // The process's own memory, read at scrape time.
  EXPECT_NE(exposition.find("# TYPE qsched_process_resident_bytes gauge"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("# TYPE qsched_process_peak_resident_bytes gauge"),
      std::string::npos);

  std::string varz = HttpFetch(server.port(), "/varz");
  EXPECT_NE(varz.find("Content-Type: application/json"),
            std::string::npos);
  std::string json = BodyOf(varz);
  EXPECT_EQ(VarzValue(json, "qsched_demo_total"), 3);
  const long long rss = VarzValue(json, "qsched_process_resident_bytes");
  EXPECT_GT(rss, 0);
  EXPECT_GE(VarzValue(json, "qsched_process_peak_resident_bytes"), rss);
  EXPECT_NE(json.find("\"qsched_demo_seconds\": {\"count\":2"),
            std::string::npos);
  EXPECT_NE(
      json.find("\"qsched_demo_old_total\": \"qsched_demo_total\""),
      std::string::npos);
  server.Stop();
}

TEST(HttpObsTest, HealthHandlerFollowsGatewayLifecycle) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions options;
  options.time_scale = 120.0;
  options.horizon_model_seconds = 7200.0;
  options.gateway.workers = 1;
  options.telemetry = &telemetry;
  rt::Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();

  HttpServer server(HttpServerOptions{});
  InstallHealthHandler(&server, [&runtime] {
    return std::string(
        rt::GatewayHealthToString(runtime.gateway().health()));
  });
  ASSERT_TRUE(server.Start().ok());

  std::string live = HttpFetch(server.port(), "/healthz");
  EXPECT_NE(live.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_EQ(BodyOf(live), "accepting\n");

  // Shutdown closes intake and drains; with nothing in flight the
  // gateway lands directly on stopped, served as 503 (not ready).
  runtime.Shutdown();
  std::string stopped = HttpFetch(server.port(), "/healthz");
  EXPECT_NE(stopped.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_EQ(BodyOf(stopped), "stopped\n");
  server.Stop();
}

// Regression for the poll-loop indexing bug: connections accepted in
// the same poll round as in-flight reads must not be attributed stale
// revents (which intermittently produced empty responses). Hammer the
// server from several threads; every response must arrive complete.
TEST(HttpObsTest, ConcurrentScrapesAllGetFullResponses) {
  std::string body(4096, 'x');
  body += "\nEND\n";
  HttpServer server(HttpServerOptions{});
  server.AddHandler("/blob", [body] {
    return HttpResponse{200, "text/plain; charset=utf-8", body};
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        std::string response = HttpFetch(server.port(), "/blob");
        if (response.find("HTTP/1.0 200") == std::string::npos ||
            BodyOf(response) != body) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kThreads * kRequestsPerThread));
  server.Stop();
}

// The wall clock's timer work is on /metrics: the pending-set gauge
// (flat at the sampler's one timer when idle) and the fired / wakeup
// counters.
TEST(HttpObsTest, MetricsExportClockTimerWork) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions options;
  options.time_scale = 600.0;  // a 10 s sample tick every ~17 ms
  options.telemetry = &telemetry;
  rt::Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();
  HttpServer http(HttpServerOptions{});
  InstallRegistryHandlers(&http, &telemetry.registry);
  ASSERT_TRUE(http.Start().ok());
  for (int i = 0; i < 400 && runtime.clock().timers_fired() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::string exposition = BodyOf(HttpFetch(http.port(), "/metrics"));
  EXPECT_NE(exposition.find("# TYPE qsched_rt_timers_pending gauge"),
            std::string::npos);
  // One pending timer each for the snapshot sampler and the planner.
  EXPECT_NE(exposition.find("qsched_rt_timers_pending 2\n"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE qsched_rt_timers_fired_total counter"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("# TYPE qsched_rt_clock_wakeups_total counter"),
      std::string::npos);
  EXPECT_GE(telemetry.registry.GetCounter("qsched_rt_timers_fired_total")
                ->value(),
            3u);
  EXPECT_GE(telemetry.registry.GetCounter("qsched_rt_clock_wakeups_total")
                ->value(),
            1u);
  EXPECT_NE(
      exposition.find("# TYPE qsched_rt_timer_late_seconds summary"),
      std::string::npos);
  EXPECT_EQ(exposition.find("qsched_rt_timer_late_seconds_count 0\n"),
            std::string::npos);
  EXPECT_GE(telemetry.registry.GetHistogram("qsched_rt_timer_late_seconds")
                ->count(),
            3u);
  http.Stop();
  runtime.Shutdown();
}

// STATS_REPLY and GET /varz are two views of the same gateway
// accounting: after all completions have been delivered they must agree
// exactly on accepted / admitted / completed / rejected.
TEST(HttpObsTest, WireStatsMatchVarzCounters) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions options;
  options.time_scale = 120.0;
  options.horizon_model_seconds = 7200.0;
  options.seed = 17;
  options.gateway.queue_capacity = 4096;
  options.gateway.workers = 2;
  options.telemetry = &telemetry;
  rt::Runtime runtime(sched::MakePaperClasses(), options);
  runtime.Start();

  net::Server net_server(&runtime.gateway(), net::ServerOptions{},
                         &telemetry);
  ASSERT_TRUE(net_server.Start().ok());
  HttpServer http(HttpServerOptions{});
  InstallRegistryHandlers(&http, &telemetry.registry);
  ASSERT_TRUE(http.Start().ok());

  Result<std::unique_ptr<net::Client>> connected =
      net::Client::Connect("127.0.0.1", net_server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<net::Client> client = std::move(connected).ValueOrDie();

  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, /*seed=*/8);
  constexpr int kQueries = 12;
  for (int i = 0; i < kQueries; ++i) {
    workload::Query query = oltp.Next();
    query.class_id = 3;
    query.client_id = i;
    Result<net::Client::SubmitResult> verdict = client->Submit(query);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    ASSERT_TRUE(verdict.ValueOrDie().accepted);
  }
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client->NextCompletion().ok());
  }

  Result<net::WireStats> stats_result = client->Stats();
  ASSERT_TRUE(stats_result.ok()) << stats_result.status().ToString();
  net::WireStats stats = stats_result.ValueOrDie();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));

  std::string json = BodyOf(HttpFetch(http.port(), "/varz"));
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(VarzValue(json, "qsched_rt_accepted_total"),
            static_cast<long long>(stats.accepted));
  EXPECT_EQ(VarzValue(json, "qsched_rt_completed_total"),
            static_cast<long long>(stats.completed));
  EXPECT_EQ(VarzValue(json, "qsched_rt_rejected_total"),
            static_cast<long long>(stats.rejected_queue_full +
                                   stats.rejected_shutting_down));

  ASSERT_TRUE(client->Drain().ok());
  http.Stop();
  net_server.Stop();
  runtime.Shutdown();
}

/// Point counts of every `<tag points="...">` element in `html`, one
/// comma per x,y pair.
std::vector<size_t> PointCounts(const std::string& html,
                                const std::string& tag) {
  std::vector<size_t> counts;
  const std::string open = "<" + tag + " points=\"";
  for (size_t at = html.find(open); at != std::string::npos;
       at = html.find(open, at + 1)) {
    const size_t begin = at + open.size();
    const size_t end = html.find('"', begin);
    counts.push_back(static_cast<size_t>(
        std::count(html.begin() + static_cast<std::ptrdiff_t>(begin),
                   html.begin() + static_cast<std::ptrdiff_t>(end), ',')));
  }
  return counts;
}

// A server that keeps its full planner history still renders a bounded
// /statusz: every chart series is cut to kStatusPagePointsPerSeries
// points however many intervals the stores hold.
TEST(HttpObsTest, StatuszRendersAFixedNumberOfPointsPerSeries) {
  constexpr uint64_t kIntervals = 5000;
  constexpr size_t kCap = harness::kStatusPagePointsPerSeries;
  Telemetry telemetry;
  telemetry.KeepFullHistory();
  for (uint64_t k = 1; k <= kIntervals; ++k) {
    const double t = 60.0 * static_cast<double>(k);
    IntervalRow row;
    row.interval = k;
    row.sim_time = t;
    for (int class_id : {1, 2, 3}) {
      telemetry.slo.Observe(class_id, k, t, k % 3 == 0 ? 0.5 : 1.5);
      IntervalClassSample sample;
      sample.class_id = class_id;
      sample.completed_in_interval = 10;
      sample.stage_gateway_queue_seconds = 1e-4 * class_id;
      sample.stage_dispatch_seconds = 2e-4;
      sample.stage_execute_seconds = 1e-3 + 1e-7 * static_cast<double>(k);
      row.classes.push_back(sample);
    }
    telemetry.recorder.Append(std::move(row));
  }
  ASSERT_EQ(telemetry.recorder.size(), kIntervals);

  HttpServer server(HttpServerOptions{});
  server.AddHandler("/statusz", [&telemetry] {
    return HttpResponse{
        200, "text/html; charset=utf-8",
        harness::RenderStatusPage(harness::StatusPageInfo{}, &telemetry)};
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string html = BodyOf(HttpFetch(server.port(), "/statusz"));
  server.Stop();
  ASSERT_NE(html.find("SLO attainment"), std::string::npos);
  ASSERT_NE(html.find("Latency breakdown"), std::string::npos);

  // Three attainment lines, each cut to exactly the cap.
  const std::vector<size_t> lines = PointCounts(html, "polyline");
  ASSERT_GE(lines.size(), 3u);
  size_t at_cap = 0;
  for (size_t count : lines) {
    EXPECT_LE(count, kCap);
    if (count == kCap) ++at_cap;
  }
  EXPECT_GE(at_cap, 3u);
  // Three stacked bands; a band's outline walks its top edge and back
  // along its bottom edge.
  const std::vector<size_t> bands = PointCounts(html, "polygon");
  ASSERT_EQ(bands.size(), 3u);
  for (size_t count : bands) EXPECT_LE(count, 2 * kCap);
}

}  // namespace
}  // namespace qsched::obs
