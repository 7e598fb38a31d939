#include "obs/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace qsched::obs {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Internal Server Error";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = StrPrintf(
      "HTTP/1.0 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      response.status, StatusText(response.status),
      response.content_type.c_str(), response.body.size());
  out += response.body;
  return out;
}

}  // namespace

HttpServer::HttpServer(const HttpServerOptions& options)
    : options_(options) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AddHandler(const std::string& path, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path] = std::move(handler);
}

Status HttpServer::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) {
      return Status::FailedPrecondition("http server already started");
    }
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrPrintf("socket: %s", strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrPrintf("bad bind address %s", options_.bind_address.c_str()));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal(StrPrintf(
        "bind %s:%u: %s", options_.bind_address.c_str(),
        static_cast<unsigned>(options_.port), strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, 64) < 0 || !SetNonBlocking(listen_fd_)) {
    Status status =
        Status::Internal(StrPrintf("listen: %s", strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  Status opened = wake_.Open();
  if (!opened.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return opened;
  }

  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    started_ = true;
  }
  thread_ = std::thread([this] { ServerLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_requested_.store(true);
  wake_.Notify();
  if (thread_.joinable()) thread_.join();
}

void HttpServer::ServerLoop() {
  while (!stop_requested_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_.fd(), POLLIN, 0});
    for (const Connection& conn : conns_) {
      short events = conn.responding ? POLLOUT : POLLIN;
      fds.push_back({conn.fd, events, 0});
    }
    int ready = poll(fds.data(), fds.size(), /*timeout_ms=*/250);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load()) break;
    if (ready <= 0) continue;

    if (fds[1].revents & POLLIN) wake_.Drain();
    // Only the first `polled` connections have a pollfd this round;
    // AcceptNew appends past them, and those get polled next iteration.
    size_t polled = fds.size() - 2;
    if (fds[0].revents & POLLIN) AcceptNew();

    // Walk connections back to front so erasing is index-stable; fds[i+2]
    // pairs with conns_[i] because both were built together above.
    for (size_t i = polled; i-- > 0;) {
      Connection& conn = conns_[i];
      short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      bool keep = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        keep = conn.responding && (revents & POLLHUP) == 0;
      }
      if (keep && !conn.responding && (revents & POLLIN)) {
        keep = ReadFromConnection(&conn);
      }
      if (keep && conn.responding) {
        keep = FlushConnection(&conn);
      }
      if (!keep) {
        close(conn.fd);
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
      }
    }
  }

  for (Connection& conn : conns_) close(conn.fd);
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::AcceptNew() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    if (conns_.size() >=
            static_cast<size_t>(std::max(1, options_.max_connections)) ||
        !SetNonBlocking(fd)) {
      close(fd);
      ++connections_refused_;
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }
}

bool HttpServer::ReadFromConnection(Connection* conn) {
  char buf[4096];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (conn->inbuf.size() > options_.max_request_bytes) {
        conn->outbuf = SerializeResponse(
            {400, "text/plain; charset=utf-8", "request too large\n"});
        conn->responding = true;
        ++requests_served_;
        ++requests_failed_;
        return true;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error before a complete request
  }
  // A request is complete once the header block ends; everything after
  // the request line is ignored (GET has no body).
  size_t header_end = conn->inbuf.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    header_end = conn->inbuf.find("\n\n");
  }
  size_t line_end = conn->inbuf.find('\n');
  if (header_end == std::string::npos || line_end == std::string::npos) {
    return true;  // keep reading
  }
  std::string request_line = conn->inbuf.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  conn->outbuf = RespondTo(request_line);
  conn->responding = true;
  return true;
}

std::string HttpServer::RespondTo(const std::string& request_line) {
  ++requests_served_;
  // "GET /path HTTP/1.x" — method, target, version.
  size_t method_end = request_line.find(' ');
  if (method_end == std::string::npos) {
    ++requests_failed_;
    return SerializeResponse(
        {400, "text/plain; charset=utf-8", "bad request\n"});
  }
  std::string method = request_line.substr(0, method_end);
  size_t target_start = method_end + 1;
  size_t target_end = request_line.find(' ', target_start);
  std::string target =
      target_end == std::string::npos
          ? request_line.substr(target_start)
          : request_line.substr(target_start, target_end - target_start);
  if (method != "GET" && method != "HEAD") {
    ++requests_failed_;
    return SerializeResponse(
        {405, "text/plain; charset=utf-8", "only GET is supported\n"});
  }
  // Exact path match, query string stripped.
  std::string path = target.substr(0, target.find('?'));
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    ++requests_failed_;
    std::string body = "not found; registered paths:\n";
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (const auto& [registered, unused] : handlers_) {
      body += "  " + registered + "\n";
    }
    return SerializeResponse({404, "text/plain; charset=utf-8", body});
  }
  HttpResponse response = handler();
  std::string bytes = SerializeResponse(response);
  // HEAD keeps the true Content-Length but sends no body.
  if (method == "HEAD") bytes.resize(bytes.size() - response.body.size());
  return bytes;
}

bool HttpServer::FlushConnection(Connection* conn) {
  while (conn->out_offset < conn->outbuf.size()) {
    ssize_t n = write(conn->fd, conn->outbuf.data() + conn->out_offset,
                      conn->outbuf.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer went away mid-response
  }
  return false;  // fully flushed; HTTP/1.0 close-after-response
}

namespace {

/// Sets `rss` and `peak` to this process's resident and peak resident
/// bytes (VmRSS, VmHWM); leaves them untouched when unreadable.
void RefreshProcessMemory(Gauge* rss, Gauge* peak) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lf kB", &kb) == 1) {
      rss->Set(kb * 1024.0);
    } else if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      peak->Set(kb * 1024.0);
    }
  }
  std::fclose(status);
}

}  // namespace

void InstallRegistryHandlers(HttpServer* server, Registry* registry) {
  Gauge* rss = registry->GetGauge("qsched_process_resident_bytes");
  Gauge* peak = registry->GetGauge("qsched_process_peak_resident_bytes");
  server->AddHandler("/metrics", [registry, rss, peak] {
    RefreshProcessMemory(rss, peak);
    std::ostringstream out;
    registry->WritePrometheus(out);
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        out.str()};
  });
  server->AddHandler("/varz", [registry, rss, peak] {
    RefreshProcessMemory(rss, peak);
    std::ostringstream out;
    registry->WriteVarzJson(out);
    return HttpResponse{200, "application/json", out.str()};
  });
}

void InstallHealthHandler(HttpServer* server,
                          std::function<std::string()> state_fn) {
  server->AddHandler("/healthz", [state_fn = std::move(state_fn)] {
    std::string state = state_fn();
    int status = state == "accepting" ? 200 : 503;
    return HttpResponse{status, "text/plain; charset=utf-8", state + "\n"};
  });
}

}  // namespace qsched::obs
