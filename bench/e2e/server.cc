#include "server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common.h"
#include "net/server.h"
#include "net/service.h"
#include "obs/http_server.h"
#include "obs/telemetry.h"
#include "replay/recorder.h"
#include "replay/trace_format.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"

namespace qsched_e2e {

namespace {

namespace cluster = qsched::cluster;
namespace net = qsched::net;
namespace obs = qsched::obs;
namespace replay = qsched::replay;
namespace rt = qsched::rt;

/// One in this many completions (by server-assigned trace id, which the
/// driver sees too) gets spans.
constexpr uint64_t kSpanSampling = 16;

/// Raw samples appended from several threads.
class Samples {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(value);
  }
  std::vector<double> Values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

int64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// QueryService decorator around the stack's front service (the
/// GatewayService, or the cluster Router): times every Submit call and
/// every deferred verdict, and places the server-side spans of sampled
/// completions — service.submit from its own clock, then the gateway
/// queue / dispatch / execute stages counted back from the completion's
/// wall stamp.
class TimedService final : public net::QueryService {
 public:
  explicit TimedService(net::QueryService* inner) : inner_(inner) {}

  net::SubmitDisposition Submit(const qsched::workload::Query& query,
                                bool want_trace, VerdictFn on_verdict,
                                CompleteFn on_complete) override {
    auto timing = std::make_shared<Timing>();
    timing->start_ns = MonoNs();
    VerdictFn verdict;
    if (on_verdict) {
      verdict = [this, timing, on_verdict = std::move(on_verdict)](
                    bool accepted, rt::RejectReason reason) {
        verdict_us_.Add(static_cast<double>(MonoNs() - timing->start_ns) /
                        1e3);
        on_verdict(accepted, reason);
      };
    }
    CompleteFn complete = [this, timing,
                           on_complete = std::move(on_complete)](
                              const net::ServiceCompletion& completion) {
      if (completion.has_trace && completion.trace_id % kSpanSampling == 0) {
        PlaceSpans(*timing, completion);
      }
      on_complete(completion);
    };
    const net::SubmitDisposition disposition = inner_->Submit(
        query, want_trace, std::move(verdict), std::move(complete));
    const int64_t end_ns = MonoNs();
    timing->end_ns.store(end_ns);
    submit_us_.Add(static_cast<double>(end_ns - timing->start_ns) / 1e3);
    return disposition;
  }

  net::WireStats Stats() override { return inner_->Stats(); }
  bool shutting_down() override { return inner_->shutting_down(); }

  const Samples& submit_us() const { return submit_us_; }
  const Samples& verdict_us() const { return verdict_us_; }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(spans_mu_);
    return spans_;
  }

 private:
  struct Timing {
    int64_t start_ns = 0;
    /// Written after the inner Submit returns; a completion can beat it.
    std::atomic<int64_t> end_ns{0};
  };

  void PlaceSpans(const Timing& timing,
                  const net::ServiceCompletion& completion) {
    const int64_t done = SteadyNs(completion.completed_wall);
    const int64_t exec_start =
        done - static_cast<int64_t>(completion.stage_execute_seconds * 1e9);
    const int64_t dispatch_start =
        exec_start -
        static_cast<int64_t>(completion.stage_dispatch_seconds * 1e9);
    const int64_t enqueued =
        dispatch_start -
        static_cast<int64_t>(completion.stage_gateway_queue_seconds * 1e9);
    int64_t submit_end = timing.end_ns.load();
    if (submit_end == 0) submit_end = enqueued;
    const uint64_t id = completion.trace_id;
    std::lock_guard<std::mutex> lock(spans_mu_);
    spans_.push_back({"service.submit", "request", id, timing.start_ns,
                      submit_end, 0, 1});
    spans_.push_back(
        {"rt.gateway_queue", "request", id, enqueued, dispatch_start, 0, 2});
    spans_.push_back(
        {"rt.dispatch", "request", id, dispatch_start, exec_start, 0, 2});
    spans_.push_back({"rt.execute", "request", id, exec_start, done, 0, 2});
  }

  net::QueryService* inner_;
  Samples submit_us_;
  Samples verdict_us_;
  mutable std::mutex spans_mu_;
  std::vector<Span> spans_;
};

/// 1 kHz probes of one runtime's WallClock: how long an outside caller
/// waits for the core lock (Run of an empty function), and how late a
/// 1 ms timer fires (ScheduleAfter). Stop() before the runtime shuts down;
/// keep the object alive until after, since a timer may still fire.
class ClockProbes {
 public:
  explicit ClockProbes(rt::WallClock* clock) : clock_(clock) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ClockProbes() { Stop(); }
  ClockProbes(const ClockProbes&) = delete;
  ClockProbes& operator=(const ClockProbes&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const Samples& lock_wait_us() const { return lock_wait_us_; }
  const Samples& timer_late_us() const { return timer_late_us_; }

 private:
  void Loop() {
    constexpr int64_t kPeriodNs = 1000000;
    int64_t tick = MonoNs();
    while (!stop_.load()) {
      const int64_t t0 = MonoNs();
      clock_->Run([] {});
      lock_wait_us_.Add(static_cast<double>(MonoNs() - t0) / 1e3);
      const int64_t due = MonoNs() + kPeriodNs;
      clock_->ScheduleAfter(1e-3 * clock_->time_scale(), [this, due] {
        timer_late_us_.Add(static_cast<double>(MonoNs() - due) / 1e3);
      });
      tick += kPeriodNs;
      SleepUntilNs(tick);
    }
  }

  rt::WallClock* clock_;
  Samples lock_wait_us_;
  Samples timer_late_us_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One rt::Runtime behind its own net::Server.
struct Backend {
  obs::Telemetry telemetry;
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<net::GatewayService> service;
  std::unique_ptr<net::Server> server;
};

std::unique_ptr<Backend> MakeBackend(double time_scale,
                                     double control_interval_seconds,
                                     uint64_t seed,
                                     double horizon_wall_seconds) {
  auto backend = std::make_unique<Backend>();
  rt::RuntimeOptions options;
  options.time_scale = time_scale;
  options.horizon_model_seconds = horizon_wall_seconds * time_scale;
  options.seed = seed;
  options.gateway.queue_capacity = 8192;
  options.gateway.workers = 2;
  options.scheduler.control_interval_seconds = control_interval_seconds;
  options.telemetry = &backend->telemetry;
  backend->runtime = std::make_unique<rt::Runtime>(
      qsched::sched::MakePaperClasses(), options);
  backend->service = std::make_unique<net::GatewayService>(
      &backend->runtime->gateway(), &backend->telemetry);
  return backend;
}

qsched::Status StartServer(Backend* backend, net::QueryService* front,
                           int reactors) {
  backend->runtime->Start();
  net::ServerOptions server_options;
  server_options.reactors = reactors;
  backend->server = std::make_unique<net::Server>(
      front != nullptr ? front : backend->service.get(), server_options,
      &backend->telemetry);
  return backend->server->Start();
}

/// Peak resident set of this process image in KB (VmHWM). The parent's
/// wait4() ru_maxrss would also count the forked copy of the parent
/// before exec, so the child reports its own.
double PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

/// Per-layer numbers every backend exports (read after shutdown).
void AddBackendLayerMetrics(const std::vector<Backend*>& backends,
                            JsonObject* out) {
  std::vector<double> solver_us;
  uint64_t cycles = 0;
  double c1_velocity = 0.0;
  double cpu_util = 0.0;
  double batch_sum = 0.0;
  uint64_t batch_count = 0;
  for (Backend* b : backends) {
    for (const obs::IntervalRow& row : b->telemetry.recorder.Rows()) {
      solver_us.push_back(row.solver_wall_seconds * 1e6);
    }
    cycles += b->runtime->scheduler().planning_cycles();
    auto it = b->runtime->scheduler().measurements().find(1);
    if (it != b->runtime->scheduler().measurements().end()) {
      c1_velocity += it->second / static_cast<double>(backends.size());
    }
    cpu_util +=
        b->telemetry.registry.GetGauge("qsched_engine_cpu_utilization")
            ->value() /
        static_cast<double>(backends.size());
    const obs::Histogram* batch =
        b->telemetry.registry.GetHistogram("qsched_rt_batch_occupancy");
    batch_sum += batch->sum();
    batch_count += batch->count();
  }
  out->Num("solver_us_p50", Quantile(solver_us, 0.5))
      .Num("solver_us_p99", Quantile(solver_us, 0.99))
      .Num("planning_cycles", static_cast<double>(cycles))
      .Num("c1_velocity", c1_velocity)
      .Num("engine_cpu_util", cpu_util)
      .Num("batch_occupancy_mean",
           batch_count > 0 ? batch_sum / static_cast<double>(batch_count)
                           : 0.0);
}

}  // namespace

bool StackFromString(const std::string& name, Stack* stack) {
  if (name == "direct") {
    *stack = Stack::kDirect;
  } else if (name == "routed") {
    *stack = Stack::kRouted;
  } else if (name == "mixed") {
    *stack = Stack::kMixed;
  } else {
    return false;
  }
  return true;
}

int RunServe(const ServeOptions& options) {
  const bool routed = options.stack == Stack::kRouted;
  const bool mixed = options.stack == Stack::kMixed;
  const double time_scale = mixed ? kMixedTimeScale : 6000.0;
  const double interval = mixed ? kMixedControlIntervalSeconds : 60.0;

  // Backends: one for the direct stacks, two (one reactor each) routed.
  std::vector<std::unique_ptr<Backend>> backends;
  const int backend_count = routed ? 2 : 1;
  for (int i = 0; i < backend_count; ++i) {
    const uint64_t seed = options.seed * 31 + static_cast<uint64_t>(i);
    backends.push_back(MakeBackend(time_scale, interval, seed,
                                   options.horizon_wall_seconds));
  }

  obs::Telemetry router_telemetry;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<replay::TraceRecorder> recorder;
  Samples record_ns;
  std::unique_ptr<net::Server> front;
  std::unique_ptr<obs::HttpServer> http;
  std::unique_ptr<TimedService> timed;

  if (!routed) {
    Backend* b = backends[0].get();
    if (options.trace) {
      timed = std::make_unique<TimedService>(b->service.get());
    }
    qsched::Status started = StartServer(b, timed.get(), 2);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  } else {
    std::vector<cluster::BackendAddress> addresses;
    for (auto& b : backends) {
      qsched::Status started = StartServer(b.get(), nullptr, 1);
      if (!started.ok()) {
        std::fprintf(stderr, "backend start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      addresses.push_back({"127.0.0.1", b->server->port()});
    }
    router = std::make_unique<cluster::Router>(
        addresses, cluster::RouterOptions{}, &router_telemetry);
    replay::RecorderOptions recorder_options;
    recorder_options.writer.path = options.out_dir + "/capture_" +
                                   std::to_string(getpid()) + ".qsrt";
    recorder_options.writer.header.time_scale = time_scale;
    recorder_options.writer.header.seed = options.seed;
    recorder = std::make_unique<replay::TraceRecorder>(recorder_options,
                                                       &router_telemetry);
    qsched::Status recording = recorder->Start();
    if (!recording.ok()) {
      std::fprintf(stderr, "recorder start failed: %s\n",
                   recording.ToString().c_str());
      return 1;
    }
    replay::TraceRecorder* rec = recorder.get();
    if (options.trace) {
      router->set_on_offer([rec, &record_ns](
                               const qsched::workload::Query& query) {
        const int64_t t0 = MonoNs();
        rec->Record(query);
        record_ns.Add(static_cast<double>(MonoNs() - t0));
      });
    } else {
      router->set_on_offer([rec](const qsched::workload::Query& query) {
        rec->Record(query);
      });
    }
    router->Start();
    router->pool().WaitUsable(addresses.size(), 5.0);
    if (options.trace) timed = std::make_unique<TimedService>(router.get());
    net::ServerOptions front_options;
    front_options.reactors = 2;
    front = std::make_unique<net::Server>(
        timed != nullptr ? static_cast<net::QueryService*>(timed.get())
                         : router.get(),
        front_options, &router_telemetry);
    qsched::Status started = front->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "front start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    http = std::make_unique<obs::HttpServer>();
    obs::InstallRegistryHandlers(http.get(), &router_telemetry.registry);
    qsched::Status http_started = http->Start();
    if (!http_started.ok()) {
      std::fprintf(stderr, "http start failed: %s\n",
                   http_started.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<ClockProbes> probes;
  if (options.trace) {
    probes = std::make_unique<ClockProbes>(&backends[0]->runtime->clock());
  }

  net::Server* listening = routed ? front.get() : backends[0]->server.get();
  std::printf("READY %u %u\n", static_cast<unsigned>(listening->port()),
              static_cast<unsigned>(http != nullptr ? http->port() : 0));
  std::fflush(stdout);

  std::vector<double> cpu_marks;
  std::string command;
  while (std::getline(std::cin, command)) {
    if (command == "MARK") cpu_marks.push_back(CpuMicros(RUSAGE_SELF));
    if (command == "STOP") break;
  }

  // Shutdown order: probes, then the front (its drain needs the router
  // channels), the router, the backends; the recorder last.
  if (probes != nullptr) probes->Stop();
  JsonObject result;
  bool drained = true;
  if (routed) {
    front->Stop();
    router->Stop();
    http->Stop();
  }
  uint64_t accepted = 0, rejected = 0, completed = 0;
  for (auto& b : backends) {
    b->server->Stop();
    const rt::Runtime::Stats stats = b->runtime->Shutdown(30.0);
    drained = drained && stats.drained;
    accepted += stats.accepted;
    rejected += stats.rejected;
    completed += stats.completed;
  }
  result.Num("gateway_accepted", static_cast<double>(accepted))
      .Num("gateway_rejected", static_cast<double>(rejected))
      .Num("gateway_completed", static_cast<double>(completed))
      .Bool("drained", drained)
      .Num("front_accepted",
           static_cast<double>(listening->submits_accepted()))
      .Num("front_rejected",
           static_cast<double>(listening->submits_rejected()))
      .Num("delivered",
           static_cast<double>(listening->completions_delivered()))
      .Num("completions_dropped",
           static_cast<double>(listening->completions_dropped()))
      .Num("protocol_errors",
           static_cast<double>(listening->protocol_errors()))
      .Arr("cpu_marks_us", cpu_marks)
      .Num("peak_rss_kb", PeakRssKb());

  std::vector<Backend*> raw;
  for (auto& b : backends) raw.push_back(b.get());
  AddBackendLayerMetrics(raw, &result);
  // The front server's flush stage of OLTP completions (bucketed).
  result.Num("flush_us_p99_bucketed",
             (routed ? router_telemetry : backends[0]->telemetry)
                     .registry
                     .GetHistogram("qsched_stage_seconds",
                                   "class=\"3\",stage=\"flush\"")
                     ->Quantile(0.99) *
                 1e6);

  if (routed) {
    const cluster::RouterAccounting acc = router->Accounting();
    uint64_t forwarded_total = 0, forwarded_max = 0;
    for (const cluster::BackendSnapshot& snap : router->pool().Snapshots()) {
      forwarded_total += snap.forwarded;
      forwarded_max = std::max(forwarded_max, snap.forwarded);
    }
    result.Num("router_offered", static_cast<double>(acc.offered))
        .Num("router_accepted", static_cast<double>(acc.accepted))
        .Num("router_rejected", static_cast<double>(acc.rejected_relayed +
                                                    acc.rejected_unroutable))
        .Num("router_completions",
             static_cast<double>(acc.completions_relayed))
        .Bool("router_conserved", router->ConservationHolds())
        .Num("failovers", static_cast<double>(acc.failovers))
        .Num("backend_share_max",
             forwarded_total > 0 ? static_cast<double>(forwarded_max) /
                                       static_cast<double>(forwarded_total)
                                 : 0.0);
    qsched::Status stopped = recorder->Stop();
    const std::vector<std::string> files =
        recorder->writer() != nullptr ? recorder->writer()->files()
                                      : std::vector<std::string>{};
    const int64_t read_start = MonoNs();
    qsched::Result<replay::TraceReadResult> read =
        files.empty() ? qsched::Result<replay::TraceReadResult>(
                            qsched::Status::NotFound("no capture file"))
                      : replay::ReadTraceChain(files.front());
    const double read_ms = static_cast<double>(MonoNs() - read_start) / 1e6;
    result.Num("captured", static_cast<double>(recorder->captured()))
        .Num("capture_dropped", static_cast<double>(recorder->dropped()))
        .Bool("capture_ok", stopped.ok())
        .Num("capture_records_read",
             read.ok() ? static_cast<double>(read.ValueOrDie().records.size())
                       : -1.0)
        .Num("replay_read_ms", read_ms);
    for (const std::string& file : files) std::remove(file.c_str());
    if (options.trace) {
      result.Num("record_ns_p99", Quantile(record_ns.Values(), 0.99));
    }
  }

  if (options.trace) {
    const std::vector<double> submit = timed->submit_us().Values();
    result.Num("service_submit_us_p50", Quantile(submit, 0.5))
        .Num("service_submit_us_p99", Quantile(submit, 0.99))
        .Num("core_lock_wait_us_p99",
             Quantile(probes->lock_wait_us().Values(), 0.99))
        .Num("timer_late_us_p99",
             Quantile(probes->timer_late_us().Values(), 0.99));
    if (routed) {
      result.Num("router_verdict_us_p99",
                 Quantile(timed->verdict_us().Values(), 0.99));
    }
  }

  std::printf("RESULT %s\n", result.ToString().c_str());
  if (timed != nullptr) {
    for (const Span& span : timed->spans()) {
      std::printf("%s\n", FormatSpanLine(span).c_str());
    }
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace qsched_e2e
