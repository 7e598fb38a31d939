#ifndef QSCHED_OBS_HTTP_SERVER_H_
#define QSCHED_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/wake_pipe.h"

namespace qsched::obs {

/// What a handler hands back to the server; the server adds the status
/// line, Content-Type / Content-Length headers and `Connection: close`.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available via port() after Start().
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  int max_connections = 32;
  /// Request (line + headers) ceiling; longer requests get 400.
  size_t max_request_bytes = 8192;
};

/// Minimal embedded exposition server: one thread multiplexes the
/// listening socket and every client connection with poll(), speaking
/// just enough HTTP/1.0 for scrapers and curl — GET only, exact path
/// match, `Connection: close` after every response. Handlers are
/// registered per path (AddHandler) and run on the server thread, so
/// they must be self-contained and fast (rendering a metrics snapshot,
/// not running a query); anything they read must be thread-safe, which
/// obs::Registry and the rt runtime accessors are.
///
/// This is deliberately not a general web server: no keep-alive, no
/// request bodies, no TLS, no chunked encoding. Its job is to make the
/// live registry and runtime state scrapable with zero dependencies,
/// reusing the same poll()-reactor shape as net::Server (DESIGN.md §10).
class HttpServer {
 public:
  /// Returns the full response for one GET of the registered path.
  using Handler = std::function<HttpResponse()>;

  explicit HttpServer(const HttpServerOptions& options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers (or replaces) the handler for an exact path, e.g.
  /// "/metrics". Safe at any time, also while serving. A request whose
  /// path (query string stripped) matches no handler gets 404.
  void AddHandler(const std::string& path, Handler handler);

  /// Binds, listens and spawns the server thread.
  Status Start();

  /// The actually-bound port (after Start(); 0 before).
  uint16_t port() const { return port_; }

  /// Closes the listener and every connection, joins the thread.
  /// Idempotent.
  void Stop();

  // Accounting (safe from any thread).
  /// Requests answered, whatever the status code.
  uint64_t requests_served() const { return requests_served_; }
  /// Subset answered with a non-2xx status (400/404/405).
  uint64_t requests_failed() const { return requests_failed_; }
  uint64_t connections_refused() const { return connections_refused_; }

 private:
  struct Connection {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    size_t out_offset = 0;
    /// Request parsed and response queued; close once outbuf flushes.
    bool responding = false;
  };

  void ServerLoop();
  void AcceptNew();
  /// Reads from the connection; parses and answers once the header block
  /// is complete. Returns false when the connection should close now.
  bool ReadFromConnection(Connection* conn);
  /// Builds the full response bytes for one request line.
  std::string RespondTo(const std::string& request_line);
  /// Returns false once the connection is fully flushed (close it).
  bool FlushConnection(Connection* conn);

  HttpServerOptions options_;

  int listen_fd_ = -1;
  WakePipe wake_;
  uint16_t port_ = 0;
  std::thread thread_;

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> stop_requested_{false};

  std::mutex handlers_mu_;
  std::map<std::string, Handler> handlers_;

  /// Server-thread-owned.
  std::vector<Connection> conns_;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> connections_refused_{0};
};

class Registry;

/// Registers the two registry endpoints against a live registry (which
/// must outlive the server): GET /metrics — Prometheus text exposition —
/// and GET /varz — the registry's JSON dump. Each scrape first refreshes
/// the gauges qsched_process_resident_bytes and
/// qsched_process_peak_resident_bytes from VmRSS / VmHWM in
/// /proc/self/status (left at 0 where that file does not exist).
void InstallRegistryHandlers(HttpServer* server, Registry* registry);

/// Registers GET /healthz: `state_fn` reports the serving state
/// ("accepting" / "draining" / "stopped"); "accepting" answers 200,
/// anything else 503, the body being the state plus a newline either
/// way — so load balancers and the smoke test read the same signal.
void InstallHealthHandler(HttpServer* server,
                          std::function<std::string()> state_fn);

}  // namespace qsched::obs

#endif  // QSCHED_OBS_HTTP_SERVER_H_
