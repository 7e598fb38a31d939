#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/strings.h"

namespace qsched::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

ClientCompletion CompletionFromFrame(const Frame& frame) {
  ClientCompletion c;
  c.request_id = frame.request_id;
  c.class_id = frame.class_id;
  c.response_seconds = frame.response_seconds;
  c.exec_seconds = frame.exec_seconds;
  c.cancelled = frame.cancelled;
  c.has_trace = frame.has_trace;
  c.trace_id = frame.trace_id;
  c.stage_gateway_queue_seconds = frame.stage_gateway_queue_seconds;
  c.stage_dispatch_seconds = frame.stage_dispatch_seconds;
  c.stage_execute_seconds = frame.stage_execute_seconds;
  return c;
}

}  // namespace

Result<int> ConnectFd(const std::string& host, uint16_t port,
                      double connect_timeout_seconds) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::InvalidArgument(StrPrintf(
        "cannot resolve %s: %s", host.c_str(), gai_strerror(rc)));
  }
  int fd = socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    freeaddrinfo(res);
    return Status::Internal(StrPrintf("socket: %s", std::strerror(errno)));
  }
  auto fail = [&](Status status) -> Result<int> {
    close(fd);
    freeaddrinfo(res);
    return status;
  };
  const bool bounded = connect_timeout_seconds > 0.0;
  if (bounded && !SetNonBlocking(fd)) {
    return fail(
        Status::Internal(StrPrintf("fcntl: %s", std::strerror(errno))));
  }
  if (connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    if (!bounded || errno != EINPROGRESS) {
      const int err = errno;
      return fail(Status::Internal(StrPrintf("connect %s:%s: %s",
                                             host.c_str(), port_str.c_str(),
                                             std::strerror(err))));
    }
    // Bounded connect in flight: wait for writability, then read the
    // outcome from SO_ERROR — poll() success alone does not mean the
    // handshake succeeded (a refused connect is also "writable").
    const SteadyTime deadline = DeadlineAfter(connect_timeout_seconds);
    while (true) {
      const SteadyTime now = SteadyClock::now();
      if (now >= deadline) {
        return fail(Status::Internal(
            StrPrintf("connect %s:%s: timed out after %.3fs", host.c_str(),
                      port_str.c_str(), connect_timeout_seconds)));
      }
      pollfd pfd{fd, POLLOUT, 0};
      int prc = poll(&pfd, 1, PollTimeoutMs(deadline, now));
      if (prc < 0) {
        if (errno == EINTR) continue;
        return fail(
            Status::Internal(StrPrintf("poll: %s", std::strerror(errno))));
      }
      if (prc == 0) continue;  // re-check the deadline
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        return fail(Status::Internal(
            StrPrintf("getsockopt: %s", std::strerror(errno))));
      }
      if (so_error != 0) {
        return fail(Status::Internal(
            StrPrintf("connect %s:%s: %s", host.c_str(), port_str.c_str(),
                      std::strerror(so_error))));
      }
      break;  // connected
    }
  }
  if (bounded && !SetNonBlocking(fd, /*non_blocking=*/false)) {
    return fail(
        Status::Internal(StrPrintf("fcntl: %s", std::strerror(errno))));
  }
  freeaddrinfo(res);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::unique_ptr<Client>> Client::Connect(
    const std::string& host, uint16_t port,
    double connect_timeout_seconds) {
  Result<int> fd = ConnectFd(host, port, connect_timeout_seconds);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<Client>(new Client(fd.ValueOrDie()));
}

Status Client::AbsorbFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kCompleted:
      completions_.push_back(CompletionFromFrame(frame));
      if (outstanding_ > 0) --outstanding_;
      return Status::OK();
    case FrameType::kAccepted:
    case FrameType::kRejected: {
      // The server answers in submission order, so a verdict always
      // belongs to the oldest SUBMIT still awaiting one.
      if (awaiting_verdict_.empty() ||
          frame.request_id != awaiting_verdict_.front()) {
        return Status::Internal(
            StrPrintf("%s for unexpected request_id %llu",
                      FrameTypeToString(frame.type),
                      static_cast<unsigned long long>(frame.request_id)));
      }
      awaiting_verdict_.pop_front();
      SubmitResult result;
      result.request_id = frame.request_id;
      result.accepted = frame.type == FrameType::kAccepted;
      if (result.accepted) {
        ++outstanding_;
      } else {
        result.reject_reason = frame.reject_reason;
      }
      verdicts_.push_back(result);
      return Status::OK();
    }
    case FrameType::kError:
      return Status::Internal(StrPrintf("server error %s: %s",
                                        WireErrorToString(frame.error_code),
                                        frame.error_message.c_str()));
    default:
      if (frame.type == reply_type_ && frame.request_id == reply_id_) {
        reply_ = frame;
        return Status::OK();
      }
      return Status::Internal(StrPrintf("unexpected frame %s",
                                        FrameTypeToString(frame.type)));
  }
}

Status Client::WaitUntil(const std::function<bool()>& done,
                         double timeout_seconds) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  bool polled = false;
  while (true) {
    if (!conn_.Flush()) {
      return Status::Internal(
          StrPrintf("send: %s", std::strerror(conn_.error())));
    }
    // Absorb only as far as the caller needs: later frames stay buffered
    // in the connection, so outstanding() counts them as still owed.
    Frame frame;
    Connection::RecvStatus status;
    while (true) {
      if (done()) return Status::OK();
      status = conn_.Next(&frame);
      if (status != Connection::RecvStatus::kFrame) break;
      QSCHED_RETURN_NOT_OK(AbsorbFrame(frame));
    }
    if (status == Connection::RecvStatus::kCorrupt) {
      return Status::Internal(
          StrPrintf("protocol error from server: %s",
                    DecodeStatusToString(conn_.decode_status())));
    }
    if (status == Connection::RecvStatus::kClosed) {
      return Status::Internal(conn_.error() == 0
                                  ? "connection closed by server"
                                  : StrPrintf("recv: %s",
                                              std::strerror(conn_.error())));
    }
    // Wait for bytes (or for room to write), bounded by what remains of
    // the timeout at nanosecond resolution; a zero timeout still takes
    // one nonblocking look.
    timespec limit{};
    if (timeout_seconds >= 0.0) {
      const double remaining =
          std::max(0.0, timeout_seconds - SecondsSince(t0));
      if (remaining <= 0.0 && polled) return Status::OK();
      limit.tv_sec = static_cast<time_t>(remaining);
      limit.tv_nsec = static_cast<long>(
          (remaining - static_cast<double>(limit.tv_sec)) * 1e9);
    }
    pollfd pfd{conn_.fd(), POLLIN, 0};
    if (conn_.wants_write()) pfd.events |= POLLOUT;
    const int rc =
        ppoll(&pfd, 1, timeout_seconds >= 0.0 ? &limit : nullptr, nullptr);
    polled = true;
    if (rc < 0 && errno != EINTR) {
      return Status::Internal(StrPrintf("poll: %s", std::strerror(errno)));
    }
    if (rc > 0 && (pfd.revents & ~POLLOUT) != 0) conn_.Receive();
  }
}

Result<Frame> Client::RoundTrip(FrameType type, FrameType reply_type) {
  Frame request;
  request.type = type;
  request.request_id = next_request_id_++;
  // Queued after any pipelined SUBMITs, so those reach the server first.
  conn_.Send(request);
  reply_type_ = reply_type;
  reply_id_ = request.request_id;
  reply_.reset();
  Status waited = WaitUntil([this] { return reply_.has_value(); }, -1.0);
  reply_id_ = 0;
  if (!waited.ok()) return waited;
  return *std::move(reply_);
}

Result<Client::SubmitResult> Client::Submit(const workload::Query& query) {
  // The pipelined path at depth 1: this SUBMIT is the youngest, so its
  // verdict is in once no SUBMIT awaits one. Verdicts of older
  // pipelined SUBMITs stay queued for PopVerdict/NextVerdict.
  Result<uint64_t> request_id = SubmitNoWait(query);
  if (!request_id.ok()) return request_id.status();
  QSCHED_RETURN_NOT_OK(Flush());
  QSCHED_RETURN_NOT_OK(
      WaitUntil([this] { return awaiting_verdict_.empty(); }, -1.0));
  SubmitResult result = verdicts_.back();
  verdicts_.pop_back();
  return result;
}

Result<uint64_t> Client::SubmitNoWait(const workload::Query& query) {
  if (drained_) {
    return Status::FailedPrecondition("connection is drained");
  }
  Frame request;
  request.type = FrameType::kSubmit;
  request.request_id = next_request_id_++;
  request.query = query;
  request.want_trace = want_trace_;
  conn_.Send(request);
  awaiting_verdict_.push_back(request.request_id);
  return request.request_id;
}

Status Client::Flush() {
  return WaitUntil([this] { return !conn_.wants_write(); }, -1.0);
}

bool Client::PopVerdict(SubmitResult* out) {
  if (verdicts_.empty()) return false;
  *out = verdicts_.front();
  verdicts_.pop_front();
  return true;
}

Result<Client::SubmitResult> Client::NextVerdict() {
  if (verdicts_.empty() && awaiting_verdict_.empty()) {
    return Status::FailedPrecondition(
        "no pipelined submit is awaiting a verdict");
  }
  QSCHED_RETURN_NOT_OK(WaitUntil([this] { return !verdicts_.empty(); }, -1.0));
  SubmitResult result = verdicts_.front();
  verdicts_.pop_front();
  return result;
}

Result<ClientCompletion> Client::NextCompletion() {
  Result<PolledCompletion> polled = PollCompletion(-1.0);
  if (!polled.ok()) return polled.status();
  if (!polled.ValueOrDie().found) {
    return Status::NotFound("no completion available");
  }
  return polled.ValueOrDie().completion;
}

Result<Client::PolledCompletion> Client::PollCompletion(
    double timeout_seconds) {
  // Once drained, nothing more is coming: hand out only what is buffered.
  if (completions_.empty() && !drained_) {
    QSCHED_RETURN_NOT_OK(WaitUntil([this] { return !completions_.empty(); },
                                   timeout_seconds));
  }
  PolledCompletion result;
  if (!completions_.empty()) {
    result.found = true;
    result.completion = completions_.front();
    completions_.pop_front();
  }
  return result;
}

Status Client::Ping() {
  return RoundTrip(FrameType::kPing, FrameType::kPong).status();
}

Result<WireStats> Client::Stats() {
  Result<Frame> reply = RoundTrip(FrameType::kStats, FrameType::kStatsReply);
  if (!reply.ok()) return reply.status();
  return reply.ValueOrDie().stats;
}

Status Client::Drain() {
  if (drained_) return Status::OK();
  QSCHED_RETURN_NOT_OK(
      RoundTrip(FrameType::kDrain, FrameType::kDrained).status());
  drained_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RemoteLoadGenerator
// ---------------------------------------------------------------------------

namespace {

workload::TpchWorkloadParams TpchAtScale(double scale_factor) {
  workload::TpchWorkloadParams params;
  params.scale_factor = scale_factor;
  return params;
}

}  // namespace

SyntheticSource::SyntheticSource(const RemoteLoadOptions& options,
                                 int connection)
    : options_(options),
      connection_(connection),
      seed_(options.seed + static_cast<uint64_t>(connection) * 7919),
      olap_(TpchAtScale(options.tpch_scale_factor), seed_),
      oltp_(workload::TpccWorkloadParams{}, seed_ + 1),
      rng_(seed_, 0x9e3779b97f4a7c15ULL) {
  if (options_.mix.empty()) {
    // The paper's mix: two OLAP service classes and the OLTP class, with
    // OLTP dominating the arrival count (Section V).
    options_.mix = {{1, 3.0, workload::WorkloadType::kOlap},
                    {2, 3.0, workload::WorkloadType::kOlap},
                    {3, 94.0, workload::WorkloadType::kOltp}};
  }
  for (const RemoteMixEntry& entry : options_.mix) {
    weights_.push_back(entry.weight);
  }
}

bool SyntheticSource::Next(double* due_seconds, workload::Query* query) {
  if (due_seconds_ >= options_.duration_wall_seconds) return false;
  const RemoteMixEntry& entry = options_.mix[rng_.Categorical(weights_)];
  *query = entry.type == workload::WorkloadType::kOlap ? olap_.Next()
                                                       : oltp_.Next();
  query->class_id = entry.class_id;
  query->client_id =
      connection_ * options_.num_clients +
      static_cast<int>(drawn_++ % static_cast<uint64_t>(
                                      std::max(options_.num_clients, 1)));
  *due_seconds = due_seconds_;
  due_seconds_ += options_.shape.NextGap(
      due_seconds_,
      options_.qps / static_cast<double>(std::max(options_.connections, 1)),
      &rng_);
  return true;
}

RemoteLoadGenerator::RemoteLoadGenerator(std::string host, uint16_t port,
                                         const RemoteLoadOptions& options,
                                         obs::Telemetry* telemetry)
    : options_(options) {
  driver_.host = std::move(host);
  driver_.port = port;
  driver_.connections = options.connections;
  driver_.pipeline = options.pipeline;
  driver_.max_outstanding = options.max_outstanding;
  driver_.feed_deadline_seconds = options.duration_wall_seconds;
  if (telemetry != nullptr) {
    obs::Registry& reg = telemetry->registry;
    driver_.rtt = reg.GetHistogram("qsched_net_rtt_seconds");
    driver_.offered = reg.GetCounter("qsched_net_client_offered_total");
    driver_.completed = reg.GetCounter("qsched_net_client_completed_total");
  }
}

Result<LoadReport> RemoteLoadGenerator::Run() {
  return DriveWire(driver_, [this](int index) {
    return std::make_unique<SyntheticSource>(options_, index);
  });
}

// ---------------------------------------------------------------------------
// Malformed-frame injection
// ---------------------------------------------------------------------------

namespace {

/// Sends `bytes` then reads until EOF or an ERROR frame, with a deadline.
/// OK when the server answered with ERROR and/or closed the connection.
Status ProbeOnce(const std::string& host, uint16_t port,
                 const std::vector<uint8_t>& bytes) {
  Result<int> connected = ConnectFd(host, port);
  if (!connected.ok()) return connected.status();
  const int fd = connected.ValueOrDie();
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The server may already have closed on us mid-send; that counts
      // as surviving the injection.
      close(fd);
      return Status::OK();
    }
    sent += static_cast<size_t>(n);
  }
  // Half-close so a probe the server legitimately treats as a truncated
  // stream prefix (waiting for more bytes) resolves to EOF + close.
  shutdown(fd, SHUT_WR);
  std::vector<uint8_t> inbuf;
  const SteadyClock::time_point t0 = SteadyClock::now();
  bool saw_error_frame = false;
  while (SecondsSince(t0) < 5.0) {
    pollfd pfd{fd, POLLIN, 0};
    int rc = poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    uint8_t chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // RST etc. — the server dropped us, which is fine.
    }
    if (n == 0) {
      close(fd);
      return Status::OK();  // Clean close after (optionally) the ERROR.
    }
    inbuf.insert(inbuf.end(), chunk, chunk + n);
    Frame frame;
    size_t consumed = 0;
    if (DecodeFrame(inbuf.data(), inbuf.size(), &frame, &consumed) ==
            DecodeStatus::kOk &&
        frame.type == FrameType::kError) {
      saw_error_frame = true;
      inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<long>(consumed));
    }
  }
  close(fd);
  if (saw_error_frame) return Status::OK();
  return Status::Internal(
      "server neither replied with ERROR nor closed the connection "
      "within 5s of a malformed frame");
}

}  // namespace

Status InjectMalformedFrames(const std::string& host, uint16_t port,
                             int count, uint64_t seed) {
  Rng rng(seed, 0xda3e39cb94b95bdbULL);
  for (int i = 0; i < count; ++i) {
    std::vector<uint8_t> bytes;
    switch (i % 5) {
      case 0: {
        // Bad version.
        Frame frame;
        frame.type = FrameType::kPing;
        frame.request_id = 1;
        EncodeFrame(frame, &bytes);
        bytes[4] = 0xEE;  // version byte
        break;
      }
      case 1: {
        // Unknown frame type.
        Frame frame;
        frame.type = FrameType::kPing;
        frame.request_id = 2;
        EncodeFrame(frame, &bytes);
        bytes[5] = 0xC8;  // type byte
        break;
      }
      case 2: {
        // Oversized payload_length (claims 16 MiB).
        const uint32_t huge = 16u * 1024u * 1024u;
        bytes = {static_cast<uint8_t>(huge & 0xFF),
                 static_cast<uint8_t>((huge >> 8) & 0xFF),
                 static_cast<uint8_t>((huge >> 16) & 0xFF),
                 static_cast<uint8_t>((huge >> 24) & 0xFF),
                 kProtocolVersion,
                 static_cast<uint8_t>(FrameType::kSubmit)};
        break;
      }
      case 3: {
        // SUBMIT whose payload_length covers only the header: the body
        // is missing, which is malformed (not merely short).
        bytes = {10, 0, 0, 0, kProtocolVersion,
                 static_cast<uint8_t>(FrameType::kSubmit),
                 0, 0, 0, 0, 0, 0, 0, 7};
        break;
      }
      default: {
        // Random garbage with a random claimed length.
        const size_t len = static_cast<size_t>(rng.UniformInt(4, 64));
        bytes.resize(len);
        for (auto& b : bytes) {
          b = static_cast<uint8_t>(rng.NextU32() & 0xFF);
        }
        // Claim exactly the bytes that follow the length field, so the
        // frame is complete and judged rather than waited for.
        bytes[0] = static_cast<uint8_t>(len - 4);
        bytes[1] = 0;
        bytes[2] = 0;
        bytes[3] = 0;
        break;
      }
    }
    QSCHED_RETURN_NOT_OK(ProbeOnce(host, port, bytes));
  }
  return Status::OK();
}

}  // namespace qsched::net
