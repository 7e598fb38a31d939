// Network mode CLI: the real-time Query Scheduler behind a TCP front-end.
//
// Serve: runs the rt::Runtime with a net::Server bound to --port and
// keeps it up for --duration wall seconds (0 = until SIGINT/SIGTERM),
// then drains and prints the conservation accounting.
//
//   net_cli --mode=serve --port=4750 --duration=10 [options]
//
// Netload: the remote load generator — N client connections submitting
// the TPC-H/TPC-C mix open-loop at --qps total, then draining. Exits
// nonzero when conservation is violated (a lost or duplicated query).
//
//   net_cli --mode=netload --target=127.0.0.1:4750 --connections=4
//           --qps=2000 --duration=2
//
// Shared options:
//   --seed=N             RNG seed (42)
//   --pattern=NAME       constant | bursty | diurnal (constant)
//   --metrics-out=PATH   Prometheus text exposition of the registry
//
// Serve options:
//   --port=N             TCP port (0 = ephemeral, printed + --port-file)
//   --port-file=PATH     write the bound port as a single line
//   --max-connections=N  concurrent connection cap (64)
//   --reactors=N         reactor threads multiplexing connections
//                        (0 = auto: min(4, hardware_concurrency))
//   --time-scale=X       model seconds per wall second (60)
//   --workers=N          gateway worker threads (2)
//   --queue-capacity=N   submission queue bound (4096)
//   --admit-batch=N      max queries admitted per core-lock entry
//                        (0 = default 32)
//   --cost-limit=X       scheduler system cost limit in timerons
//                        (300000); lower it to throttle OLAP admission
//   --capture-trace=PATH record every offered query to a replay trace
//                        (see replay_cli); a summary of the live run's
//                        measured performance is appended at shutdown
//   --capture-rotate-mb=N  rotate the trace above N MB (0 = never)
//   --capture-buffer=N   per-producer capture buffer records (8192)
//   --report-html=PATH   self-contained HTML run report
//   --http-port=N        embedded observability HTTP server: GET
//                        /metrics, /varz, /healthz, /statusz (0 =
//                        ephemeral, printed + --http-port-file; omit
//                        the flag to disable)
//   --http-port-file=PATH  write the bound HTTP port as a single line
//
// Netload options:
//   --target=HOST:PORT   server address (127.0.0.1:4750)
//   --connections=N      client connections, one thread each (4)
//   --qps=N              total offered rate across connections (2000)
//   --duration=SECONDS   generation phase length (2)
//   --tpch-scale=X       TPC-H scale factor for OLAP draws (0.05)
//   --pipeline           pipelined submission: batch SUBMITs per
//                        connection instead of blocking per verdict
//   --max-outstanding=N  pipeline depth bound per connection (128)
//   --inject-malformed=N also fire N malformed frames at the server and
//                        require it to survive them (0)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "capture.h"
#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/html_report.h"
#include "http_obs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "replay/shadow_planner.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bool ParseTarget(const std::string& target, std::string* host,
                 uint16_t* port) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    return false;
  }
  *host = target.substr(0, colon);
  try {
    const int parsed = std::stoi(target.substr(colon + 1));
    if (parsed <= 0 || parsed > 65535) return false;
    *port = static_cast<uint16_t>(parsed);
  } catch (...) {
    return false;
  }
  return true;
}

void MaybeWriteMetrics(const qsched::FlagParser& flags,
                       qsched::obs::Telemetry* telemetry) {
  const std::string path = flags.GetString("metrics-out", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  telemetry->registry.WritePrometheus(out);
  std::printf("wrote %s (%zu metrics)\n", path.c_str(),
              telemetry->registry.size());
}

int RunServe(const qsched::FlagParser& flags) {
  const double duration = flags.GetDouble("duration", 0.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  qsched::obs::Telemetry telemetry;
  // The report covers the whole run; without it the stores keep the live
  // window only.
  if (!flags.GetString("report-html", "").empty()) {
    telemetry.KeepFullHistory();
  }
  qsched::rt::RuntimeOptions options;
  options.time_scale = flags.GetDouble("time-scale", 60.0);
  options.seed = seed;
  options.gateway.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 4096));
  options.gateway.workers = static_cast<int>(flags.GetInt("workers", 2));
  options.gateway.admit_batch_size =
      static_cast<size_t>(flags.GetInt("admit-batch", 0));
  options.scheduler.system_cost_limit =
      flags.GetDouble("cost-limit", options.scheduler.system_cost_limit);
  options.telemetry = &telemetry;

  qsched::sched::ServiceClassSet classes =
      qsched::sched::MakePaperClasses();
  qsched::rt::Runtime runtime(classes, options);
  std::unique_ptr<qsched::replay::TraceRecorder> recorder =
      qsched_examples::MaybeStartCapture(flags, options.time_scale, seed,
                                         &telemetry);
  if (recorder != nullptr) {
    runtime.gateway().set_on_offer(
        [rec = recorder.get()](const qsched::workload::Query& query) {
          rec->Record(query);
        });
  }
  runtime.Start();

  qsched::net::ServerOptions server_options;
  server_options.port =
      static_cast<uint16_t>(flags.GetInt("port", 0));
  server_options.max_connections =
      static_cast<int>(flags.GetInt("max-connections", 64));
  server_options.reactors =
      static_cast<int>(flags.GetInt("reactors", 0));
  qsched::net::Server server(&runtime.gateway(), server_options,
                             &telemetry);
  qsched::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (%d reactors)\n",
              static_cast<unsigned>(server.port()), server.reactors());
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }
  std::unique_ptr<qsched::obs::HttpServer> http =
      qsched_examples::MaybeStartHttpObs(
          flags, &runtime.gateway(), &telemetry,
          "qsched live status: network front-end");

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    if (duration > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= duration) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Stop();
  qsched::rt::Runtime::Stats stats = runtime.Shutdown();
  // Stop the observability server after the drain so a scraper polling
  // /healthz can watch accepting -> draining -> stopped.
  if (http != nullptr) http->Stop();
  if (recorder != nullptr) {
    const qsched::replay::TraceSummary summary =
        qsched::replay::MakeCaptureSummary(options.scheduler,
                                           runtime.scheduler(), classes);
    qsched_examples::StopCapture(recorder.get(), &summary);
  }

  std::printf(
      "serve done: connections %llu (refused %llu), frames in %llu / "
      "out %llu, protocol errors %llu\n",
      static_cast<unsigned long long>(server.connections_accepted()),
      static_cast<unsigned long long>(server.connections_refused()),
      static_cast<unsigned long long>(server.frames_received()),
      static_cast<unsigned long long>(server.frames_sent()),
      static_cast<unsigned long long>(server.protocol_errors()));
  std::printf(
      "submits accepted %llu, rejected %llu; completions delivered %llu, "
      "dropped %llu; gateway completed %llu%s\n",
      static_cast<unsigned long long>(server.submits_accepted()),
      static_cast<unsigned long long>(server.submits_rejected()),
      static_cast<unsigned long long>(server.completions_delivered()),
      static_cast<unsigned long long>(server.completions_dropped()),
      static_cast<unsigned long long>(stats.completed),
      stats.drained ? "" : "  [drain timeout!]");

  MaybeWriteMetrics(flags, &telemetry);
  const std::string report_html = flags.GetString("report-html", "");
  if (!report_html.empty()) {
    std::ofstream out(report_html);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", report_html.c_str());
      return 1;
    }
    qsched::harness::ExperimentResult result;
    result.controller = qsched::harness::ControllerKind::kQueryScheduler;
    result.total_completed = stats.completed;
    result.engine_queries_completed = runtime.engine().queries_completed();
    for (const qsched::sched::ServiceClassSpec& spec : classes.classes()) {
      result.interval_attainment[spec.class_id] =
          telemetry.slo.OverallAttainment(spec.class_id);
    }
    qsched::harness::HtmlReportOptions report_options;
    report_options.title = "qsched run report: network front-end";
    qsched::harness::WriteHtmlRunReport(result, classes, &telemetry,
                                        report_options, out);
    std::printf("wrote %s\n", report_html.c_str());
  }

  // Conservation: every accepted submit produced exactly one completion
  // frame, delivered or (client gone) consciously dropped.
  const bool conserved =
      server.submits_accepted() ==
      server.completions_delivered() + server.completions_dropped();
  if (!conserved) {
    std::fprintf(stderr, "CONSERVATION VIOLATION: accepted %llu != "
                         "delivered %llu + dropped %llu\n",
                 static_cast<unsigned long long>(server.submits_accepted()),
                 static_cast<unsigned long long>(
                     server.completions_delivered()),
                 static_cast<unsigned long long>(
                     server.completions_dropped()));
  }
  return conserved && stats.drained ? 0 : 2;
}

int RunNetload(const qsched::FlagParser& flags) {
  std::string host;
  uint16_t port = 0;
  const std::string target =
      flags.GetString("target", "127.0.0.1:4750");
  if (!ParseTarget(target, &host, &port)) {
    std::fprintf(stderr, "malformed --target=%s\n", target.c_str());
    return 1;
  }

  qsched::net::RemoteLoadOptions options;
  options.connections =
      static_cast<int>(flags.GetInt("connections", 4));
  options.qps = flags.GetDouble("qps", 2000.0);
  options.duration_wall_seconds = flags.GetDouble("duration", 2.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.tpch_scale_factor = flags.GetDouble("tpch-scale", 0.05);
  options.pipeline = flags.Has("pipeline");
  options.max_outstanding =
      static_cast<int>(flags.GetInt("max-outstanding", 128));
  const std::string pattern_name =
      flags.GetString("pattern", "constant");
  if (!qsched::rt::ArrivalPatternFromString(pattern_name,
                                            &options.shape.pattern)) {
    std::fprintf(stderr, "unknown --pattern=%s\n", pattern_name.c_str());
    return 1;
  }

  qsched::obs::Telemetry telemetry;
  qsched::net::RemoteLoadGenerator loadgen(host, port, options,
                                           &telemetry);
  std::printf(
      "netload: %s, %d connections%s, %.0f qps (%s) for %.1f s\n",
      target.c_str(), options.connections,
      options.pipeline ? " (pipelined)" : "", options.qps,
      pattern_name.c_str(), options.duration_wall_seconds);
  const auto start = std::chrono::steady_clock::now();
  qsched::Result<qsched::net::LoadReport> run = loadgen.Run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  if (!run.ok()) {
    std::fprintf(stderr, "netload failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const qsched::net::LoadReport& report = run.ValueOrDie();

  const int inject =
      static_cast<int>(flags.GetInt("inject-malformed", 0));
  if (inject > 0) {
    qsched::Status injected = qsched::net::InjectMalformedFrames(
        host, port, inject, options.seed);
    if (!injected.ok()) {
      std::fprintf(stderr, "malformed-frame injection: %s\n",
                   injected.ToString().c_str());
      return 1;
    }
    std::printf("injected %d malformed frames; server survived\n",
                inject);
  }

  const qsched::obs::Histogram* rtt =
      telemetry.registry.GetHistogram("qsched_net_rtt_seconds");
  // Sustained rate counts the feed phase only; the drain tail (waiting
  // out the last executions) is reported separately.
  const double feed = report.feed_seconds;
  const double rate =
      feed > 0.0 ? static_cast<double>(report.offered) / feed : 0.0;
  std::printf(
      "NETLOAD seed=%llu offered=%llu accepted=%llu rejected=%llu "
      "completed=%llu lost=%llu unmatched=%llu wall=%.2f feed=%.2f "
      "drain=%.2f rate=%.1f rtt_p50_us=%.0f rtt_p99_us=%.0f\n",
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.accepted),
      static_cast<unsigned long long>(report.rejected()),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.lost),
      static_cast<unsigned long long>(report.unmatched),
      wall, feed, report.drain_seconds, rate,
      rtt->Quantile(0.5) * 1e6, rtt->Quantile(0.99) * 1e6);

  MaybeWriteMetrics(flags, &telemetry);

  // Conservation: offered splits exactly into accepted + rejected, every
  // accepted query completed exactly once, nothing lost or duplicated.
  if (!report.conserved()) {
    std::fprintf(stderr, "CONSERVATION VIOLATION (see NETLOAD line)\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  qsched::FlagParser flags;
  qsched::Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.Has("help")) {
    std::printf(
        "usage: net_cli --mode=serve [--port=N] [--duration=SECONDS]\n"
        "       net_cli --mode=netload --target=HOST:PORT "
        "[--connections=N]\n"
        "               [--qps=N] [--duration=SECONDS] "
        "[--inject-malformed=N]\n");
    return 0;
  }
  const std::string mode = flags.GetString("mode", "serve");
  if (mode == "serve") return RunServe(flags);
  if (mode == "netload") return RunNetload(flags);
  std::fprintf(stderr, "unknown --mode=%s (serve | netload)\n",
               mode.c_str());
  return 1;
}
