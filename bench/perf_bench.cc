// Performance benchmark harness, the repo's tracked perf trajectory:
//
//   1. Event-queue throughput (events/sec) of the flat 4-ary-heap
//      simulator vs. an embedded copy of the historical
//      std::priority_queue + std::function + lazy-cancel design, on an
//      identical self-scheduling + cancel-churn workload.
//   2. A full Figure 6 (Query Scheduler) run: wall seconds and
//      simulator events/sec end to end.
//   3. N-way replication, serial (--jobs 1) vs parallel (--jobs J)
//      wall-clock.
//   4. Real-time gateway throughput: a wall-clock run of the rt runtime
//      (MPMC queue -> gateway workers -> live control loop) reporting
//      sustained submission QPS, p50/p99 admission latency and
//      completions/sec including the drain.
//   5. Network loopback throughput: the same runtime behind the TCP
//      front-end (src/net, multi-reactor), driven by the pipelined
//      multi-connection remote load generator over 127.0.0.1.
//      Sustained QPS counts the feed phase only (the drain tail is
//      reported separately), so it measures the serving path, not the
//      simulated executions it waits out at the end.
//   5b. Network loopback latency: the same stack at a fixed 1500 QPS
//      operating point with blocking (non-pipelined) submission, a
//      compressed execution scale (--net-latency-time-scale, default
//      6000) and a light OLAP profile (TPC-H SF 0.01), reporting
//      p50/p99 on-wire round-trip (submit to COMPLETED arrival). At the
//      throughput section's time_scale 60 / SF 0.1 the RTT p99 floor is
//      the simulated OLAP execution itself (tens of model seconds =
//      hundreds of wall milliseconds); compressing execution exposes
//      what the serving path adds on top. QSCHED_BENCH_STAGES=1 prints
//      the per-class per-stage p50/p99 breakdown.
//   5c. Cluster loopback: the same operating point twice — direct to
//      one backend, then through the cluster router (src/cluster) over
//      N backends — reporting both sustained QPS numbers and the added
//      round-trip p99 of the router hop. Both passes run below
//      saturation so the delta isolates the hop, not queueing at a
//      different load regime.
//   6. HTTP observability overhead: the rt gateway benchmark with the
//      embedded exposition server attached and a 1 Hz /metrics scraper
//      running, vs fully detached — the scrape path must cost <= 2% of
//      completion throughput.
//   7. Replay capture overhead: the rt gateway benchmark with a
//      TraceRecorder hooked at the gateway's offer point
//      (--capture-trace in the CLIs) vs without — the per-offer record
//      into the per-thread buffer must cost <= 2% of completion
//      throughput, and the recorder must capture every offered query
//      (captured + dropped == offered).
//
// Emits a JSON report (scripts/run_bench.sh writes it to
// BENCH_qsched.json at the repo root). All numbers are host-dependent;
// `hardware_concurrency` is included so the replication speedup is
// interpretable.
//
//   ./build/bench/perf_bench --events=2000000 --outstanding=512 \
//       --fig6-period-seconds=600 --replications=8 --jobs=4 \
//       --rep-period-seconds=120 --out=BENCH_qsched.json
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/router.h"
#include "common/flags.h"
#include "common/rng.h"
#include "harness/parallel.h"
#include "harness/replication.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/http_server.h"
#include "obs/telemetry.h"
#include "replay/recorder.h"
#include "rt/loadgen.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "sim/simulator.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-rewrite simulator core, kept verbatim as the measurement
/// baseline: binary heap via std::priority_queue, type-erased callbacks
/// via std::function (heap-allocating for captures beyond its SBO), and
/// lazy cancellation through two unordered_sets.
class BaselineSimulator {
 public:
  using EventId = uint64_t;

  double Now() const { return now_; }

  EventId ScheduleAt(double when, std::function<void()> fn) {
    if (when < now_) when = now_;
    EventId id = next_id_++;
    queue_.push(Event{when, id, std::move(fn)});
    pending_ids_.insert(id);
    return id;
  }

  EventId ScheduleAfter(double delay, std::function<void()> fn) {
    if (delay < 0.0) delay = 0.0;
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  bool Cancel(EventId id) {
    auto it = pending_ids_.find(id);
    if (it == pending_ids_.end()) return false;
    pending_ids_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  bool Step() {
    SkimCancelled();
    if (queue_.empty()) return false;
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    pending_ids_.erase(event.id);
    now_ = event.when;
    ++events_processed_;
    event.fn();
    return true;
  }

  size_t RunToCompletion() {
    size_t processed = 0;
    while (Step()) ++processed;
    return processed;
  }

  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    double when;
    EventId id;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  void SkimCancelled() {
    while (!queue_.empty()) {
      auto it = cancelled_.find(queue_.top().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      queue_.pop();
    }
  }

  double now_ = 0.0;
  EventId next_id_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::unordered_set<EventId> pending_ids_;
  std::unordered_set<EventId> cancelled_;
};

/// Fires `total_events` events through `sim`: `outstanding` concurrent
/// self-rescheduling timers (the client/controller pattern) where every
/// fourth firing also schedules a far-future event and cancels an older
/// one (the timeout pattern that stresses Cancel). Callbacks capture one
/// pointer, like real components capturing `this`, so both simulators
/// get their small-buffer path and the comparison isolates the queue.
template <typename Sim>
struct EventWorkload {
  Sim* sim;
  uint64_t total_events;
  int outstanding;
  qsched::Rng rng{12345};
  uint64_t fired = 0;
  std::vector<uint64_t> victims;

  void Arm() {
    sim->ScheduleAfter(rng.Exponential(1.0), [this] {
      ++fired;
      if (fired + static_cast<uint64_t>(outstanding) <= total_events) {
        Arm();
      }
      if (fired % 4 == 0) {
        victims.push_back(
            sim->ScheduleAfter(1e6 + rng.NextDouble(), [] {}));
        if (victims.size() > 32) {
          sim->Cancel(victims.front());
          victims.erase(victims.begin());
        }
      }
    });
  }

  uint64_t Run() {
    victims.reserve(64);
    for (int lane = 0; lane < outstanding; ++lane) Arm();
    sim->RunToCompletion();
    return fired;
  }
};

struct EventQueueNumbers {
  uint64_t events = 0;
  double baseline_eps = 0.0;
  double fast_eps = 0.0;
};

EventQueueNumbers BenchEventQueue(uint64_t total_events, int outstanding) {
  EventQueueNumbers numbers;
  {
    BaselineSimulator sim;
    EventWorkload<BaselineSimulator> workload{&sim, total_events,
                                              outstanding};
    auto start = Clock::now();
    numbers.events = workload.Run();
    double wall = Seconds(start);
    numbers.baseline_eps =
        static_cast<double>(sim.events_processed()) / wall;
  }
  {
    qsched::sim::Simulator sim;
    EventWorkload<qsched::sim::Simulator> workload{&sim, total_events,
                                                   outstanding};
    auto start = Clock::now();
    workload.Run();
    double wall = Seconds(start);
    numbers.fast_eps = static_cast<double>(sim.events_processed()) / wall;
  }
  return numbers;
}

qsched::harness::ExperimentConfig Fig6Config(double period_seconds) {
  qsched::harness::ExperimentConfig config;
  config.period_seconds = period_seconds;
  return config;
}

struct RtGatewayNumbers {
  double qps_target = 0.0;
  double feed_seconds = 0.0;
  uint64_t offered = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  double sustained_qps = 0.0;
  double completions_per_sec = 0.0;
  double admission_p50_seconds = 0.0;
  double admission_p99_seconds = 0.0;
  // http_obs section only: scrapes completed and bytes transferred by
  // the attached 1 Hz /metrics scraper.
  uint64_t scrapes = 0;
  uint64_t scrape_bytes = 0;
  // replay_capture section only: the recorder's own accounting.
  uint64_t captured = 0;
  uint64_t dropped = 0;
};

/// One blocking GET against the embedded HTTP server; returns bytes
/// received (0 on failure). The scraper thread below is the same kind
/// of client a Prometheus agent would be.
size_t HttpScrapeOnce(uint16_t port, const char* path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return 0;
  }
  char request[128];
  int len = std::snprintf(request, sizeof(request),
                          "GET %s HTTP/1.0\r\n\r\n", path);
  if (write(fd, request, static_cast<size_t>(len)) != len) {
    close(fd);
    return 0;
  }
  size_t total = 0;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    total += static_cast<size_t>(n);
  }
  close(fd);
  return total;
}

/// Pushes a mixed OLAP + OLTP load through the live gateway on the wall
/// clock and measures what the submission path sustains. Admission
/// latency (enqueue to worker pickup) comes from the gateway's own
/// telemetry histogram; completions/sec include the post-feed drain so
/// the number reflects end-to-end service, not just intake.
/// When `attach_scraper` is set, the embedded obs::HttpServer runs for
/// the whole benchmark with a 1 Hz GET /metrics scraper thread attached
/// (the http_obs overhead measurement); otherwise no HTTP server exists
/// at all (the detached baseline).
/// When `capture_trace_path` is non-empty, a replay::TraceRecorder is
/// hooked at the gateway's offer point for the whole run (the
/// replay_capture overhead measurement).
RtGatewayNumbers BenchRtGateway(double qps, double duration_seconds,
                                bool attach_scraper = false,
                                const std::string& capture_trace_path =
                                    std::string()) {
  RtGatewayNumbers numbers;
  numbers.qps_target = qps;

  qsched::obs::Telemetry telemetry;
  qsched::rt::RuntimeOptions options;
  options.time_scale = 60.0;
  options.gateway.queue_capacity = 8192;
  options.gateway.workers = 4;
  options.scheduler.control_interval_seconds = 15.0;
  options.telemetry = &telemetry;

  qsched::sched::ServiceClassSet classes =
      qsched::sched::MakePaperClasses();
  qsched::rt::Runtime runtime(classes, options);

  qsched::workload::TpchWorkloadParams tpch;
  tpch.scale_factor = 0.1;
  qsched::workload::TpchWorkload olap1(tpch, /*seed=*/7);
  qsched::workload::TpchWorkload olap2(tpch, /*seed=*/8);
  qsched::workload::TpccWorkloadParams tpcc;
  qsched::workload::TpccWorkload oltp(tpcc, /*seed=*/9);

  qsched::rt::LoadGenOptions load;
  load.shape.pattern = qsched::rt::ArrivalPattern::kConstant;
  load.qps = qps;
  load.duration_wall_seconds = duration_seconds;
  load.seed = 1234;

  std::unique_ptr<qsched::obs::HttpServer> http;
  std::thread scraper;
  std::atomic<bool> scraping{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> scrape_bytes{0};
  if (attach_scraper) {
    http = std::make_unique<qsched::obs::HttpServer>(
        qsched::obs::HttpServerOptions{});  // ephemeral port
    qsched::obs::InstallRegistryHandlers(http.get(),
                                         &telemetry.registry);
    qsched::Status started = http->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "http_obs: server start failed: %s\n",
                   started.ToString().c_str());
      return numbers;
    }
    scraping.store(true);
    scraper = std::thread([&, port = http->port()] {
      while (scraping.load()) {
        size_t bytes = HttpScrapeOnce(port, "/metrics");
        if (bytes > 0) {
          scrapes.fetch_add(1);
          scrape_bytes.fetch_add(bytes);
        }
        for (int i = 0; i < 10 && scraping.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
  }

  std::unique_ptr<qsched::replay::TraceRecorder> recorder;
  if (!capture_trace_path.empty()) {
    qsched::replay::RecorderOptions recorder_options;
    recorder_options.writer.path = capture_trace_path;
    recorder_options.writer.header.time_scale = options.time_scale;
    recorder = std::make_unique<qsched::replay::TraceRecorder>(
        recorder_options, &telemetry);
    qsched::Status recording = recorder->Start();
    if (!recording.ok()) {
      std::fprintf(stderr, "replay_capture: recorder start failed: %s\n",
                   recording.ToString().c_str());
      return numbers;
    }
    runtime.gateway().set_on_offer(
        [rec = recorder.get()](const qsched::workload::Query& query) {
          rec->Record(query);
        });
  }

  auto start = Clock::now();
  runtime.Start();
  qsched::rt::LoadGenerator loadgen(
      &runtime.gateway(),
      {{&olap1, 1, 3.0}, {&olap2, 2, 3.0}, {&oltp, 3, 94.0}}, load,
      &telemetry);
  loadgen.Start();
  loadgen.Join();
  numbers.feed_seconds = Seconds(start);
  qsched::rt::Runtime::Stats stats =
      runtime.Shutdown(/*drain_timeout_wall_seconds=*/300.0);
  double total_seconds = Seconds(start);

  if (recorder != nullptr) {
    (void)recorder->Stop();
    numbers.captured = recorder->captured();
    numbers.dropped = recorder->dropped();
  }

  if (attach_scraper) {
    scraping.store(false);
    scraper.join();
    http->Stop();
    numbers.scrapes = scrapes.load();
    numbers.scrape_bytes = scrape_bytes.load();
  }

  numbers.offered = loadgen.offered();
  numbers.shed = loadgen.shed();
  numbers.completed = stats.completed;
  numbers.sustained_qps =
      numbers.feed_seconds > 0.0
          ? static_cast<double>(numbers.offered) / numbers.feed_seconds
          : 0.0;
  numbers.completions_per_sec =
      total_seconds > 0.0
          ? static_cast<double>(stats.completed) / total_seconds
          : 0.0;
  const qsched::obs::Histogram* admission =
      telemetry.registry.GetHistogram("qsched_rt_admission_latency_seconds");
  numbers.admission_p50_seconds = admission->Quantile(0.5);
  numbers.admission_p99_seconds = admission->Quantile(0.99);
  return numbers;
}

struct NetLoopbackNumbers {
  double qps_target = 0.0;
  int connections = 0;
  int reactors = 0;
  bool pipeline = false;
  double time_scale = 60.0;
  double tpch_scale_factor = 0.1;
  double feed_seconds = 0.0;
  double drain_seconds = 0.0;
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t lost = 0;
  double sustained_qps = 0.0;
  double rtt_p50_seconds = 0.0;
  double rtt_p99_seconds = 0.0;
};

/// The rt gateway benchmark again, but through the TCP front-end: an
/// in-process Server on an ephemeral loopback port, driven by the
/// multi-connection RemoteLoadGenerator. Round-trip latency is the
/// full on-wire path (client submit -> reactor -> gateway -> worker ->
/// completion mailbox -> reactor -> COMPLETED frame back at the
/// client), from the `qsched_net_rtt_seconds` histogram.
NetLoopbackNumbers BenchNetLoopback(double qps, double duration_seconds,
                                    int connections, bool pipeline,
                                    double time_scale,
                                    double control_interval_seconds,
                                    double tpch_scale_factor) {
  NetLoopbackNumbers numbers;
  numbers.qps_target = qps;
  numbers.connections = connections;
  numbers.pipeline = pipeline;
  numbers.time_scale = time_scale;
  numbers.tpch_scale_factor = tpch_scale_factor;

  qsched::obs::Telemetry telemetry;
  qsched::rt::RuntimeOptions options;
  options.time_scale = time_scale;
  options.gateway.queue_capacity = 8192;
  options.gateway.workers = 4;
  // At high time_scale a compressed control interval makes the planner
  // solve under the core lock every few wall-ms, which would dominate
  // the RTT tail; the latency section keeps the paper's 60 s interval.
  options.scheduler.control_interval_seconds = control_interval_seconds;
  options.telemetry = &telemetry;

  qsched::sched::ServiceClassSet classes =
      qsched::sched::MakePaperClasses();
  qsched::rt::Runtime runtime(classes, options);
  runtime.Start();

  qsched::net::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  qsched::net::Server server(&runtime.gateway(), server_options,
                             &telemetry);
  qsched::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "net_loopback: server start failed: %s\n",
                 started.ToString().c_str());
    runtime.Shutdown();
    return numbers;
  }

  numbers.reactors = server.reactors();

  qsched::net::RemoteLoadOptions load;
  load.connections = connections;
  load.qps = qps;
  load.duration_wall_seconds = duration_seconds;
  load.seed = 1234;
  load.tpch_scale_factor = tpch_scale_factor;
  load.pipeline = pipeline;

  auto start = Clock::now();
  qsched::net::RemoteLoadGenerator loadgen("127.0.0.1", server.port(),
                                           load, &telemetry);
  qsched::Result<qsched::net::LoadReport> run = loadgen.Run();
  const double wall = Seconds(start);
  if (!run.ok()) {
    std::fprintf(stderr, "net_loopback: load run failed: %s\n",
                 run.status().ToString().c_str());
  }
  const qsched::net::LoadReport report =
      run.ValueOr(qsched::net::LoadReport{});
  server.Stop();
  runtime.Shutdown(/*drain_timeout_wall_seconds=*/300.0);

  numbers.feed_seconds =
      report.feed_seconds > 0.0 ? report.feed_seconds : wall;
  numbers.drain_seconds = report.drain_seconds;
  numbers.offered = report.offered;
  numbers.accepted = report.accepted;
  numbers.rejected = report.rejected();
  numbers.completed = report.completed;
  numbers.lost = report.lost + report.unmatched;
  numbers.sustained_qps =
      numbers.feed_seconds > 0.0
          ? static_cast<double>(numbers.offered) / numbers.feed_seconds
          : 0.0;
  const qsched::obs::Histogram* rtt =
      telemetry.registry.GetHistogram("qsched_net_rtt_seconds");
  numbers.rtt_p50_seconds = rtt->Quantile(0.5);
  numbers.rtt_p99_seconds = rtt->Quantile(0.99);
  if (std::getenv("QSCHED_BENCH_STAGES") != nullptr) {
    for (int cls = 1; cls <= 3; ++cls) {
      for (const char* stage :
           {"gateway_queue", "dispatch", "execute", "flush"}) {
        char labels[64];
        std::snprintf(labels, sizeof(labels),
                      "class=\"%d\",stage=\"%s\"", cls, stage);
        const qsched::obs::Histogram* h =
            telemetry.registry.GetHistogram("qsched_stage_seconds", labels);
        if (h->count() > 0) {
          std::printf("  class %d stage %-14s p50 %8.0f us p99 %8.0f us\n",
                      cls, stage, h->Quantile(0.5) * 1e6,
                      h->Quantile(0.99) * 1e6);
        }
      }
    }
  }
  return numbers;
}

struct ClusterLoopbackNumbers {
  double qps_target = 0.0;
  int backends = 0;
  int connections = 0;
  double feed_seconds = 0.0;
  double drain_seconds = 0.0;
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t lost = 0;
  uint64_t failovers = 0;
  double sustained_qps = 0.0;
  double rtt_p50_seconds = 0.0;
  double rtt_p99_seconds = 0.0;
  bool conserved = false;
};

/// The net_loopback stack with the cluster router in the middle:
/// N independent backend runtimes, each behind its own net::Server, a
/// cluster::Router fanning over them, and a front net::Server speaking
/// the wire protocol to the load generator. Run at the same
/// non-saturating target as the paired direct pass, so the reported
/// sustained QPS and rtt_p99 isolate the router hop, not a different
/// operating point.
ClusterLoopbackNumbers BenchClusterRouted(double qps,
                                          double duration_seconds,
                                          int connections, int backends) {
  ClusterLoopbackNumbers numbers;
  numbers.qps_target = qps;
  numbers.backends = backends;
  numbers.connections = connections;

  struct BackendStack {
    std::unique_ptr<qsched::obs::Telemetry> telemetry;
    std::unique_ptr<qsched::rt::Runtime> runtime;
    std::unique_ptr<qsched::net::Server> server;
  };
  std::vector<BackendStack> stacks;
  std::vector<qsched::cluster::BackendAddress> addresses;
  for (int i = 0; i < backends; ++i) {
    BackendStack stack;
    stack.telemetry = std::make_unique<qsched::obs::Telemetry>();
    qsched::rt::RuntimeOptions options;
    options.time_scale = 60.0;
    options.gateway.queue_capacity = 8192;
    options.gateway.workers = 4;
    options.scheduler.control_interval_seconds = 15.0;
    options.seed = 1000 + static_cast<uint64_t>(i);
    options.telemetry = stack.telemetry.get();
    stack.runtime = std::make_unique<qsched::rt::Runtime>(
        qsched::sched::MakePaperClasses(), options);
    stack.runtime->Start();
    qsched::net::ServerOptions server_options;
    server_options.port = 0;
    server_options.reactors = 1;
    stack.server = std::make_unique<qsched::net::Server>(
        &stack.runtime->gateway(), server_options, stack.telemetry.get());
    qsched::Status started = stack.server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cluster_loopback: backend start failed: %s\n",
                   started.ToString().c_str());
      for (BackendStack& up : stacks) {
        up.server->Stop();
        up.runtime->Shutdown();
      }
      stack.runtime->Shutdown();
      return numbers;
    }
    addresses.push_back({"127.0.0.1", stack.server->port()});
    stacks.push_back(std::move(stack));
  }

  qsched::obs::Telemetry router_telemetry;
  qsched::cluster::RouterOptions router_options;
  qsched::cluster::Router router(addresses, router_options,
                                 &router_telemetry);
  router.Start();
  router.pool().WaitUsable(static_cast<size_t>(backends), 5.0);

  qsched::net::ServerOptions front_options;
  front_options.port = 0;
  qsched::net::Server front(&router, front_options, &router_telemetry);
  qsched::Status front_started = front.Start();
  if (!front_started.ok()) {
    std::fprintf(stderr, "cluster_loopback: front start failed: %s\n",
                 front_started.ToString().c_str());
    router.Stop();
    for (BackendStack& stack : stacks) {
      stack.server->Stop();
      stack.runtime->Shutdown();
    }
    return numbers;
  }

  qsched::net::RemoteLoadOptions load;
  load.connections = connections;
  load.qps = qps;
  load.duration_wall_seconds = duration_seconds;
  load.seed = 1234;
  load.tpch_scale_factor = 0.1;
  load.pipeline = true;

  qsched::obs::Telemetry load_telemetry;
  qsched::net::RemoteLoadGenerator loadgen("127.0.0.1", front.port(), load,
                                           &load_telemetry);
  qsched::Result<qsched::net::LoadReport> run = loadgen.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "cluster_loopback: load run failed: %s\n",
                 run.status().ToString().c_str());
  }
  const qsched::net::LoadReport report =
      run.ValueOr(qsched::net::LoadReport{});
  front.Stop();
  router.Stop();
  for (BackendStack& stack : stacks) {
    stack.server->Stop();
    stack.runtime->Shutdown(/*drain_timeout_wall_seconds=*/300.0);
  }

  numbers.feed_seconds = report.feed_seconds;
  numbers.drain_seconds = report.drain_seconds;
  numbers.offered = report.offered;
  numbers.accepted = report.accepted;
  numbers.rejected = report.rejected();
  numbers.completed = report.completed;
  numbers.lost = report.lost + report.unmatched;
  numbers.failovers = router.Accounting().failovers;
  numbers.sustained_qps =
      numbers.feed_seconds > 0.0
          ? static_cast<double>(numbers.offered) / numbers.feed_seconds
          : 0.0;
  const qsched::obs::Histogram* rtt =
      load_telemetry.registry.GetHistogram("qsched_net_rtt_seconds");
  numbers.rtt_p50_seconds = rtt->Quantile(0.5);
  numbers.rtt_p99_seconds = rtt->Quantile(0.99);
  numbers.conserved = router.ConservationHolds() && report.conserved();
  return numbers;
}

}  // namespace

int main(int argc, char** argv) {
  qsched::FlagParser flags;
  qsched::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (flags.Has("help")) {
    std::printf(
        "flags: --events=N --outstanding=K --fig6-period-seconds=S\n"
        "       --replications=R --jobs=J --rep-period-seconds=S\n"
        "       --rt-qps=Q --rt-duration=S (real-time gateway section)\n"
        "       --net-qps=Q --net-duration=S --net-connections=C\n"
        "       (TCP loopback throughput section; pipelined)\n"
        "       --net-latency-qps=Q --net-latency-duration=S\n"
        "       --net-latency-time-scale=X\n"
        "       (TCP loopback latency section; blocking submission)\n"
        "       --http-obs-qps=Q --http-obs-duration=S\n"
        "       (HTTP observability overhead section)\n"
        "       --replay-capture-qps=Q --replay-capture-duration=S\n"
        "       (trace capture overhead section: recorder on vs off)\n"
        "       --cluster-qps=Q --cluster-duration=S "
        "--cluster-backends=N\n"
        "       (cluster router section: direct vs routed)\n"
        "       --out=PATH (JSON report; default stdout only)\n");
    return 0;
  }
  uint64_t total_events =
      static_cast<uint64_t>(flags.GetInt("events", 2000000));
  int outstanding = static_cast<int>(flags.GetInt("outstanding", 512));
  double fig6_period = flags.GetDouble("fig6-period-seconds", 600.0);
  int replications = static_cast<int>(flags.GetInt("replications", 8));
  int jobs = qsched::harness::ResolveJobs(
      static_cast<int>(flags.GetInt("jobs", 0)));
  double rep_period = flags.GetDouble("rep-period-seconds", 120.0);
  double rt_qps = flags.GetDouble("rt-qps", 1500.0);
  double rt_duration = flags.GetDouble("rt-duration", 2.0);
  double net_qps = flags.GetDouble("net-qps", 25000.0);
  double net_duration = flags.GetDouble("net-duration", 2.0);
  int net_connections =
      static_cast<int>(flags.GetInt("net-connections", 4));
  double net_latency_qps = flags.GetDouble("net-latency-qps", 1500.0);
  double net_latency_duration =
      flags.GetDouble("net-latency-duration", 2.0);
  double net_latency_time_scale =
      flags.GetDouble("net-latency-time-scale", 6000.0);
  double http_obs_qps = flags.GetDouble("http-obs-qps", 1500.0);
  double http_obs_duration = flags.GetDouble("http-obs-duration", 2.0);
  double replay_capture_qps = flags.GetDouble("replay-capture-qps", 1500.0);
  double replay_capture_duration =
      flags.GetDouble("replay-capture-duration", 2.0);
  double cluster_qps = flags.GetDouble("cluster-qps", 1500.0);
  double cluster_duration = flags.GetDouble("cluster-duration", 2.0);
  int cluster_backends =
      static_cast<int>(flags.GetInt("cluster-backends", 2));
  std::string out_path = flags.GetString("out", "");

  std::printf("== event queue: %llu events, %d outstanding ==\n",
              static_cast<unsigned long long>(total_events), outstanding);
  EventQueueNumbers eq = BenchEventQueue(total_events, outstanding);
  double speedup = eq.baseline_eps > 0.0 ? eq.fast_eps / eq.baseline_eps
                                         : 0.0;
  std::printf("baseline (priority_queue): %12.0f events/sec\n",
              eq.baseline_eps);
  std::printf("fast (4-ary heap + SBO):   %12.0f events/sec\n",
              eq.fast_eps);
  std::printf("speedup: %.2fx\n", speedup);

  std::printf("== Fig. 6 run (period %.0f s) ==\n", fig6_period);
  qsched::harness::ExperimentResult fig6;
  {
    auto config = Fig6Config(fig6_period);
    fig6 = qsched::harness::RunExperiment(
        config, qsched::harness::ControllerKind::kQueryScheduler);
  }
  double fig6_eps = fig6.wall_seconds > 0.0
                        ? static_cast<double>(fig6.sim_events_processed) /
                              fig6.wall_seconds
                        : 0.0;
  std::printf("wall %.3f s, %llu sim events, %.0f events/sec\n",
              fig6.wall_seconds,
              static_cast<unsigned long long>(fig6.sim_events_processed),
              fig6_eps);

  std::printf("== replication: %d runs, serial vs --jobs %d ==\n",
              replications, jobs);
  auto rep_config = Fig6Config(rep_period);
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  {
    qsched::harness::ReplicationOptions options;
    options.jobs = 1;
    auto start = Clock::now();
    qsched::harness::RunReplicated(
        rep_config, qsched::harness::ControllerKind::kQueryScheduler,
        replications, options);
    serial_seconds = Seconds(start);
  }
  {
    qsched::harness::ReplicationOptions options;
    options.jobs = jobs;
    auto start = Clock::now();
    qsched::harness::RunReplicated(
        rep_config, qsched::harness::ControllerKind::kQueryScheduler,
        replications, options);
    parallel_seconds = Seconds(start);
  }
  double rep_speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  // Worker threads the parallel pass actually ran (ParallelFor runs
  // inline for jobs <= 1 and never spawns more workers than tasks).
  int threads_used = std::max(1, std::min(jobs, replications));
  std::printf("serial %.3f s, parallel %.3f s, speedup %.2fx "
              "(%d threads)\n",
              serial_seconds, parallel_seconds, rep_speedup,
              threads_used);
  if (threads_used > 1 && rep_speedup < 1.2) {
    std::fprintf(stderr,
                 "WARNING: replication speedup %.2fx < 1.2x with %d "
                 "threads (hardware_concurrency=%u) — the parallel "
                 "numbers are not meaningful on this host\n",
                 rep_speedup, threads_used,
                 std::thread::hardware_concurrency());
  }

  std::printf("== rt gateway: %.0f qps for %.1f s wall ==\n", rt_qps,
              rt_duration);
  RtGatewayNumbers rt = BenchRtGateway(rt_qps, rt_duration);
  std::printf("sustained %.0f submissions/sec (offered %llu, shed %llu), "
              "%.0f completions/sec, admission p50 %.1f us p99 %.1f us\n",
              rt.sustained_qps,
              static_cast<unsigned long long>(rt.offered),
              static_cast<unsigned long long>(rt.shed),
              rt.completions_per_sec, rt.admission_p50_seconds * 1e6,
              rt.admission_p99_seconds * 1e6);

  std::printf("== net loopback (pipelined): %.0f qps on %d connections "
              "for %.1f s ==\n",
              net_qps, net_connections, net_duration);
  NetLoopbackNumbers net =
      BenchNetLoopback(net_qps, net_duration, net_connections,
                       /*pipeline=*/true, /*time_scale=*/60.0,
                       /*control_interval_seconds=*/15.0,
                       /*tpch_scale_factor=*/0.1);
  std::printf("sustained %.0f submissions/sec over TCP on %d reactors "
              "(offered %llu, accepted %llu, rejected %llu, completed "
              "%llu, lost %llu), feed %.2f s + drain %.2f s, "
              "rtt p50 %.0f us p99 %.0f us\n",
              net.sustained_qps, net.reactors,
              static_cast<unsigned long long>(net.offered),
              static_cast<unsigned long long>(net.accepted),
              static_cast<unsigned long long>(net.rejected),
              static_cast<unsigned long long>(net.completed),
              static_cast<unsigned long long>(net.lost),
              net.feed_seconds, net.drain_seconds,
              net.rtt_p50_seconds * 1e6, net.rtt_p99_seconds * 1e6);

  std::printf("== net latency (blocking): %.0f qps on %d connections for "
              "%.1f s at time_scale %.0f ==\n",
              net_latency_qps, net_connections, net_latency_duration,
              net_latency_time_scale);
  NetLoopbackNumbers net_lat =
      // The latency section measures the serving path (reactor ->
      // gateway -> worker -> completion flush), so it compresses model
      // time and uses a light OLAP profile: with TPC-H at SF 0.1 the
      // simulated executions are ~30 model-seconds, which floors the
      // RTT tail at any usable time_scale and measures the modeled
      // DBMS, not the stack under test.
      BenchNetLoopback(net_latency_qps, net_latency_duration,
                       net_connections, /*pipeline=*/false,
                       net_latency_time_scale,
                       /*control_interval_seconds=*/60.0,
                       /*tpch_scale_factor=*/0.01);
  std::printf("sustained %.0f submissions/sec (offered %llu, accepted "
              "%llu, rejected %llu, completed %llu, lost %llu), "
              "rtt p50 %.0f us p99 %.0f us\n",
              net_lat.sustained_qps,
              static_cast<unsigned long long>(net_lat.offered),
              static_cast<unsigned long long>(net_lat.accepted),
              static_cast<unsigned long long>(net_lat.rejected),
              static_cast<unsigned long long>(net_lat.completed),
              static_cast<unsigned long long>(net_lat.lost),
              net_lat.rtt_p50_seconds * 1e6,
              net_lat.rtt_p99_seconds * 1e6);

  std::printf("== cluster loopback: %.0f qps on %d connections for "
              "%.1f s, direct vs routed over %d backends ==\n",
              cluster_qps, net_connections, cluster_duration,
              cluster_backends);
  // Same non-saturating operating point for both passes, so the delta
  // is the router hop itself, not a different load regime.
  NetLoopbackNumbers direct =
      BenchNetLoopback(cluster_qps, cluster_duration, net_connections,
                       /*pipeline=*/true, /*time_scale=*/60.0,
                       /*control_interval_seconds=*/15.0,
                       /*tpch_scale_factor=*/0.1);
  ClusterLoopbackNumbers routed = BenchClusterRouted(
      cluster_qps, cluster_duration, net_connections, cluster_backends);
  const double added_rtt_p99 =
      routed.rtt_p99_seconds - direct.rtt_p99_seconds;
  std::printf("direct %.0f qps rtt p99 %.0f us; routed %.0f qps rtt p99 "
              "%.0f us (added p99 %.0f us), offered %llu completed %llu "
              "lost %llu failovers %llu%s\n",
              direct.sustained_qps, direct.rtt_p99_seconds * 1e6,
              routed.sustained_qps, routed.rtt_p99_seconds * 1e6,
              added_rtt_p99 * 1e6,
              static_cast<unsigned long long>(routed.offered),
              static_cast<unsigned long long>(routed.completed),
              static_cast<unsigned long long>(routed.lost),
              static_cast<unsigned long long>(routed.failovers),
              routed.conserved ? "" : "  [CONSERVATION VIOLATED]");
  if (direct.sustained_qps > 0.0 &&
      routed.sustained_qps < 0.8 * direct.sustained_qps) {
    std::fprintf(stderr,
                 "WARNING: routed sustained %.0f qps < 0.8x direct "
                 "%.0f qps — the router hop is shedding throughput\n",
                 routed.sustained_qps, direct.sustained_qps);
  }

  std::printf("== http obs: %.0f qps for %.1f s, 1 Hz scraper attached "
              "vs detached ==\n",
              http_obs_qps, http_obs_duration);
  RtGatewayNumbers detached =
      BenchRtGateway(http_obs_qps, http_obs_duration,
                     /*attach_scraper=*/false);
  RtGatewayNumbers attached =
      BenchRtGateway(http_obs_qps, http_obs_duration,
                     /*attach_scraper=*/true);
  double obs_overhead_pct =
      detached.completions_per_sec > 0.0
          ? (1.0 - attached.completions_per_sec /
                       detached.completions_per_sec) *
                100.0
          : 0.0;
  std::printf("detached %.0f completions/sec, attached %.0f "
              "completions/sec (%llu scrapes, %llu bytes), overhead "
              "%.2f%%\n",
              detached.completions_per_sec, attached.completions_per_sec,
              static_cast<unsigned long long>(attached.scrapes),
              static_cast<unsigned long long>(attached.scrape_bytes),
              obs_overhead_pct);
  if (obs_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "WARNING: http observability overhead %.2f%% > 2%% "
                 "(short runs are noisy; rerun with a longer "
                 "--http-obs-duration before concluding a regression)\n",
                 obs_overhead_pct);
  }

  std::printf("== replay capture: %.0f qps for %.1f s, recorder on vs "
              "off ==\n",
              replay_capture_qps, replay_capture_duration);
  RtGatewayNumbers capture_off =
      BenchRtGateway(replay_capture_qps, replay_capture_duration);
  char trace_path[128];
  std::snprintf(trace_path, sizeof(trace_path),
                "/tmp/qsched_bench_capture_%d.bin",
                static_cast<int>(getpid()));
  RtGatewayNumbers capture_on =
      BenchRtGateway(replay_capture_qps, replay_capture_duration,
                     /*attach_scraper=*/false, trace_path);
  std::remove(trace_path);
  double capture_overhead_pct =
      capture_off.completions_per_sec > 0.0
          ? (1.0 - capture_on.completions_per_sec /
                       capture_off.completions_per_sec) *
                100.0
          : 0.0;
  bool capture_conserved =
      capture_on.captured + capture_on.dropped == capture_on.offered;
  std::printf("off %.0f completions/sec, on %.0f completions/sec "
              "(captured %llu, dropped %llu), overhead %.2f%%%s\n",
              capture_off.completions_per_sec,
              capture_on.completions_per_sec,
              static_cast<unsigned long long>(capture_on.captured),
              static_cast<unsigned long long>(capture_on.dropped),
              capture_overhead_pct,
              capture_conserved ? "" : "  [CONSERVATION VIOLATED]");
  if (capture_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "WARNING: capture overhead %.2f%% > 2%% (short runs "
                 "are noisy; rerun with a longer "
                 "--replay-capture-duration before concluding a "
                 "regression)\n",
                 capture_overhead_pct);
  }

  std::string json;
  {
    char buffer[20480];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\n"
        "  \"bench\": \"qsched_perf\",\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"threads_used\": %d,\n"
        "  \"event_queue\": {\n"
        "    \"events\": %llu,\n"
        "    \"outstanding\": %d,\n"
        "    \"baseline_events_per_sec\": %.0f,\n"
        "    \"fast_events_per_sec\": %.0f,\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"fig6\": {\n"
        "    \"period_seconds\": %.0f,\n"
        "    \"wall_seconds\": %.3f,\n"
        "    \"sim_events\": %llu,\n"
        "    \"events_per_sec\": %.0f\n"
        "  },\n"
        "  \"replication\": {\n"
        "    \"replications\": %d,\n"
        "    \"jobs\": %d,\n"
        "    \"threads_used\": %d,\n"
        "    \"period_seconds\": %.0f,\n"
        "    \"serial_seconds\": %.3f,\n"
        "    \"parallel_seconds\": %.3f,\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"rt_gateway\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"offered\": %llu,\n"
        "    \"shed\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"sustained_qps\": %.0f,\n"
        "    \"completions_per_sec\": %.0f,\n"
        "    \"admission_p50_us\": %.1f,\n"
        "    \"admission_p99_us\": %.1f\n"
        "  },\n"
        "  \"net_loopback\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"connections\": %d,\n"
        "    \"reactors\": %d,\n"
        "    \"pipeline\": true,\n"
        "    \"time_scale\": %.0f,\n"
        "    \"tpch_scale_factor\": %.3f,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"feed_seconds\": %.3f,\n"
        "    \"drain_seconds\": %.3f,\n"
        "    \"offered\": %llu,\n"
        "    \"accepted\": %llu,\n"
        "    \"rejected\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"lost\": %llu,\n"
        "    \"sustained_qps\": %.0f,\n"
        "    \"rtt_p50_us\": %.1f,\n"
        "    \"rtt_p99_us\": %.1f\n"
        "  },\n"
        "  \"net_latency\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"connections\": %d,\n"
        "    \"reactors\": %d,\n"
        "    \"pipeline\": false,\n"
        "    \"time_scale\": %.0f,\n"
        "    \"tpch_scale_factor\": %.3f,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"offered\": %llu,\n"
        "    \"accepted\": %llu,\n"
        "    \"rejected\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"lost\": %llu,\n"
        "    \"sustained_qps\": %.0f,\n"
        "    \"rtt_p50_us\": %.1f,\n"
        "    \"rtt_p99_us\": %.1f\n"
        "  },\n"
        "  \"cluster_loopback\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"backends\": %d,\n"
        "    \"connections\": %d,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"direct_sustained_qps\": %.0f,\n"
        "    \"direct_rtt_p99_us\": %.1f,\n"
        "    \"sustained_qps\": %.0f,\n"
        "    \"rtt_p99_us\": %.1f,\n"
        "    \"added_rtt_p99_us\": %.1f,\n"
        "    \"offered\": %llu,\n"
        "    \"accepted\": %llu,\n"
        "    \"rejected\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"lost\": %llu,\n"
        "    \"failovers\": %llu,\n"
        "    \"conserved\": %s\n"
        "  },\n"
        "  \"http_obs\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"detached_completions_per_sec\": %.0f,\n"
        "    \"attached_completions_per_sec\": %.0f,\n"
        "    \"scrapes\": %llu,\n"
        "    \"scrape_bytes\": %llu,\n"
        "    \"overhead_pct\": %.2f\n"
        "  },\n"
        "  \"replay_capture\": {\n"
        "    \"qps_target\": %.0f,\n"
        "    \"duration_seconds\": %.2f,\n"
        "    \"capture_off_qps\": %.0f,\n"
        "    \"capture_on_qps\": %.0f,\n"
        "    \"capture_off_completions_per_sec\": %.0f,\n"
        "    \"capture_on_completions_per_sec\": %.0f,\n"
        "    \"captured\": %llu,\n"
        "    \"dropped\": %llu,\n"
        "    \"conserved\": %s,\n"
        "    \"overhead_pct\": %.2f\n"
        "  }\n"
        "}\n",
        std::thread::hardware_concurrency(), threads_used,
        static_cast<unsigned long long>(eq.events), outstanding,
        eq.baseline_eps, eq.fast_eps, speedup, fig6_period,
        fig6.wall_seconds,
        static_cast<unsigned long long>(fig6.sim_events_processed),
        fig6_eps, replications, jobs, threads_used, rep_period,
        serial_seconds, parallel_seconds, rep_speedup, rt.qps_target,
        rt_duration, static_cast<unsigned long long>(rt.offered),
        static_cast<unsigned long long>(rt.shed),
        static_cast<unsigned long long>(rt.completed), rt.sustained_qps,
        rt.completions_per_sec, rt.admission_p50_seconds * 1e6,
        rt.admission_p99_seconds * 1e6, net.qps_target, net.connections,
        net.reactors, net.time_scale, net.tpch_scale_factor,
        net_duration, net.feed_seconds,
        net.drain_seconds, static_cast<unsigned long long>(net.offered),
        static_cast<unsigned long long>(net.accepted),
        static_cast<unsigned long long>(net.rejected),
        static_cast<unsigned long long>(net.completed),
        static_cast<unsigned long long>(net.lost), net.sustained_qps,
        net.rtt_p50_seconds * 1e6, net.rtt_p99_seconds * 1e6,
        net_lat.qps_target, net_lat.connections, net_lat.reactors,
        net_lat.time_scale, net_lat.tpch_scale_factor,
        net_latency_duration,
        static_cast<unsigned long long>(net_lat.offered),
        static_cast<unsigned long long>(net_lat.accepted),
        static_cast<unsigned long long>(net_lat.rejected),
        static_cast<unsigned long long>(net_lat.completed),
        static_cast<unsigned long long>(net_lat.lost),
        net_lat.sustained_qps, net_lat.rtt_p50_seconds * 1e6,
        net_lat.rtt_p99_seconds * 1e6,
        routed.qps_target, routed.backends, routed.connections,
        cluster_duration, direct.sustained_qps,
        direct.rtt_p99_seconds * 1e6, routed.sustained_qps,
        routed.rtt_p99_seconds * 1e6, added_rtt_p99 * 1e6,
        static_cast<unsigned long long>(routed.offered),
        static_cast<unsigned long long>(routed.accepted),
        static_cast<unsigned long long>(routed.rejected),
        static_cast<unsigned long long>(routed.completed),
        static_cast<unsigned long long>(routed.lost),
        static_cast<unsigned long long>(routed.failovers),
        routed.conserved ? "true" : "false",
        http_obs_qps, http_obs_duration, detached.completions_per_sec,
        attached.completions_per_sec,
        static_cast<unsigned long long>(attached.scrapes),
        static_cast<unsigned long long>(attached.scrape_bytes),
        obs_overhead_pct, replay_capture_qps, replay_capture_duration,
        capture_off.sustained_qps, capture_on.sustained_qps,
        capture_off.completions_per_sec, capture_on.completions_per_sec,
        static_cast<unsigned long long>(capture_on.captured),
        static_cast<unsigned long long>(capture_on.dropped),
        capture_conserved ? "true" : "false", capture_overhead_pct);
    json = buffer;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   out_path.c_str());
      return 1;
    }
    out << json;
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s", json.c_str());
  }
  return 0;
}
