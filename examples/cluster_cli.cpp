// Cluster mode CLI: the SLO-aware router in front of N qsched backends.
//
// Route: binds a net::Server front socket speaking the same v1/v2 wire
// protocol as every backend, and fans SUBMITs over the --backends list
// with least-loaded, attainment-deficit-weighted scoring, health
// probing, circuit breaking and failover (DESIGN.md §12). Clients point
// net_cli --mode=netload (or any net::Client) at the router exactly as
// they would at a single backend.
//
//   cluster_cli --mode=route --backends=127.0.0.1:4750,127.0.0.1:4751 \
//               --port=4700 --duration=10
//
// Options:
//   --backends=H:P,H:P,...  backend addresses (required)
//   --port=N              front TCP port (0 = ephemeral, printed +
//                         --port-file)
//   --port-file=PATH      write the bound front port as a single line
//   --duration=SECONDS    stay up this long (0 = until SIGINT/SIGTERM)
//   --max-connections=N   front connection cap (64)
//   --reactors=N          front reactor threads (0 = auto)
//   --max-attempts=N      placements tried per query before
//                         REJECTED{BACKEND_UNAVAILABLE} (3)
//   --probe-interval=S    PING+STATS cadence per backend (0.25)
//   --probe-timeout=S     unanswered probe = one failure (1.0)
//   --connect-timeout=S   per-TCP-connect bound (1.0)
//   --eject-after=N       consecutive failures ejecting a backend (3)
//   --attainment-weight=X SLO-deficit weight in the routing score (4)
//   --seed=N              backoff jitter seed (42)
//   --capture-trace=PATH  record every routed query to a replay trace
//                         (see replay_cli); no live summary is appended
//                         — the router has no scheduler of its own
//   --capture-rotate-mb=N rotate the trace above N MB (0 = never)
//   --capture-buffer=N    per-producer capture buffer records (8192)
//   --time-scale=X        model-seconds-per-wall-second stamp for the
//                         captured trace header (60, matching the
//                         backends' serve default)
//   --metrics-out=PATH    Prometheus text exposition at exit
//   --http-port=N         observability HTTP server: /metrics, /varz,
//                         /healthz, /statusz with the backend table
//                         (0 = ephemeral; omit the flag to disable)
//   --http-port-file=PATH write the bound HTTP port as a single line
//
// Exits 0 on a clean run, 2 when the conservation identity
// (offered == accepted + rejected) is violated — a lost or
// double-counted query.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capture.h"
#include "cluster/router.h"
#include "common/flags.h"
#include "net/server.h"
#include "obs/http_server.h"
#include "obs/telemetry.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bool ParseBackends(const std::string& list,
                   std::vector<qsched::cluster::BackendAddress>* out) {
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;
    const size_t colon = token.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= token.size()) {
      return false;
    }
    qsched::cluster::BackendAddress address;
    address.host = token.substr(0, colon);
    try {
      const int parsed = std::stoi(token.substr(colon + 1));
      if (parsed <= 0 || parsed > 65535) return false;
      address.port = static_cast<uint16_t>(parsed);
    } catch (...) {
      return false;
    }
    out->push_back(address);
  }
  return !out->empty();
}

int RunRoute(const qsched::FlagParser& flags) {
  std::vector<qsched::cluster::BackendAddress> backends;
  if (!ParseBackends(flags.GetString("backends", ""), &backends)) {
    std::fprintf(stderr,
                 "--backends=HOST:PORT[,HOST:PORT...] is required\n");
    return 1;
  }
  const double duration = flags.GetDouble("duration", 0.0);

  qsched::obs::Telemetry telemetry;
  qsched::cluster::RouterOptions options;
  options.max_attempts =
      static_cast<int>(flags.GetInt("max-attempts", 3));
  options.tuning.probe_interval_seconds =
      flags.GetDouble("probe-interval", 0.25);
  options.tuning.probe_timeout_seconds =
      flags.GetDouble("probe-timeout", 1.0);
  options.tuning.connect_timeout_seconds =
      flags.GetDouble("connect-timeout", 1.0);
  options.tuning.eject_after_failures =
      static_cast<int>(flags.GetInt("eject-after", 3));
  options.tuning.attainment_weight =
      flags.GetDouble("attainment-weight", 4.0);
  options.tuning.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  qsched::cluster::Router router(backends, options, &telemetry);
  std::unique_ptr<qsched::replay::TraceRecorder> recorder =
      qsched_examples::MaybeStartCapture(
          flags, flags.GetDouble("time-scale", 60.0), options.tuning.seed,
          &telemetry);
  if (recorder != nullptr) {
    router.set_on_offer(
        [rec = recorder.get()](const qsched::workload::Query& query) {
          rec->Record(query);
        });
  }
  qsched::Status routing = router.Start();
  if (!routing.ok()) {
    std::fprintf(stderr, "router start failed: %s\n",
                 routing.ToString().c_str());
    router.Stop();
    return 1;
  }
  const size_t usable = router.pool().WaitUsable(backends.size(), 2.0);
  std::printf("cluster route: %zu/%zu backends usable\n", usable,
              backends.size());

  qsched::net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  server_options.max_connections =
      static_cast<int>(flags.GetInt("max-connections", 64));
  server_options.reactors =
      static_cast<int>(flags.GetInt("reactors", 0));
  qsched::net::Server front(&router, server_options, &telemetry);
  qsched::Status started = front.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "front server start failed: %s\n",
                 started.ToString().c_str());
    router.Stop();
    return 1;
  }
  std::printf("routing on 127.0.0.1:%u (%d reactors) -> %zu backends\n",
              static_cast<unsigned>(front.port()), front.reactors(),
              backends.size());
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << front.port() << "\n";
  }

  std::unique_ptr<qsched::obs::HttpServer> http;
  if (flags.Has("http-port")) {
    qsched::obs::HttpServerOptions http_options;
    http_options.port =
        static_cast<uint16_t>(flags.GetInt("http-port", 0));
    http = std::make_unique<qsched::obs::HttpServer>(http_options);
    qsched::obs::InstallRegistryHandlers(http.get(),
                                         &telemetry.registry);
    qsched::cluster::Router* router_ptr = &router;
    qsched::obs::InstallHealthHandler(http.get(), [router_ptr] {
      if (router_ptr->shutting_down()) return std::string("draining");
      // The router serves as long as at least one backend is usable.
      for (const auto& snap : router_ptr->pool().Snapshots()) {
        if (snap.connected) return std::string("accepting");
      }
      return std::string("draining");
    });
    http->AddHandler("/statusz", [router_ptr] {
      return qsched::obs::HttpResponse{
          200, "text/plain; charset=utf-8", router_ptr->StatuszTable()};
    });
    qsched::Status http_started = http->Start();
    if (!http_started.ok()) {
      std::fprintf(stderr, "http server start failed: %s\n",
                   http_started.ToString().c_str());
      http.reset();
    } else {
      std::printf("http observability on 127.0.0.1:%u "
                  "(/metrics /varz /healthz /statusz)\n",
                  static_cast<unsigned>(http->port()));
      std::fflush(stdout);
      const std::string http_port_file =
          flags.GetString("http-port-file", "");
      if (!http_port_file.empty()) {
        std::ofstream out(http_port_file);
        out << http->port() << "\n";
      }
    }
  }

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

  // Front first: its drain needs the channels alive to relay the last
  // verdicts and completions. Then the router resolves whatever is
  // still in flight and checks conservation.
  front.Stop();
  router.Stop();
  if (http != nullptr) http->Stop();
  qsched_examples::StopCapture(recorder.get(), nullptr);

  const qsched::cluster::RouterAccounting acc = router.Accounting();
  std::printf(
      "CLUSTER seed=%llu offered=%llu accepted=%llu rejected_relayed=%llu "
      "rejected_unroutable=%llu completions=%llu cancelled=%llu "
      "failovers=%llu retries=%llu\n",
      static_cast<unsigned long long>(options.tuning.seed),
      static_cast<unsigned long long>(acc.offered),
      static_cast<unsigned long long>(acc.accepted),
      static_cast<unsigned long long>(acc.rejected_relayed),
      static_cast<unsigned long long>(acc.rejected_unroutable),
      static_cast<unsigned long long>(acc.completions_relayed),
      static_cast<unsigned long long>(acc.cancelled_completions),
      static_cast<unsigned long long>(acc.failovers),
      static_cast<unsigned long long>(acc.retries));

  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (out) {
      telemetry.registry.WritePrometheus(out);
      std::printf("wrote %s (%zu metrics)\n", metrics_out.c_str(),
                  telemetry.registry.size());
    } else {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
    }
  }

  if (!router.ConservationHolds()) {
    std::fprintf(stderr, "CONSERVATION VIOLATION (see CLUSTER line)\n");
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
        "usage: cluster_cli --mode=route "
        "--backends=HOST:PORT[,HOST:PORT...]\n"
        "                   [--port=N] [--duration=SECONDS] "
        "[--max-attempts=N]\n"
        "                   [--probe-interval=S] [--eject-after=N] "
        "[--http-port=N]\n");
    return 0;
  }
  const std::string mode = flags.GetString("mode", "route");
  if (mode == "route") return RunRoute(flags);
  std::fprintf(stderr, "unknown --mode=%s (route)\n", mode.c_str());
  return 1;
}
