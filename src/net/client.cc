#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

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
    const auto deadline =
        SteadyClock::now() +
        std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double>(connect_timeout_seconds));
    while (true) {
      const double remaining =
          std::chrono::duration<double>(deadline - SteadyClock::now())
              .count();
      if (remaining <= 0.0) {
        return fail(Status::Internal(
            StrPrintf("connect %s:%s: timed out after %.3fs", host.c_str(),
                      port_str.c_str(), connect_timeout_seconds)));
      }
      pollfd pfd{fd, POLLOUT, 0};
      int prc = poll(&pfd, 1, static_cast<int>(remaining * 1000.0) + 1);
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
    // the timeout; a zero timeout still takes one nonblocking look.
    int poll_ms = -1;
    if (timeout_seconds >= 0.0) {
      const double remaining = timeout_seconds - SecondsSince(t0);
      if (remaining <= 0.0 && polled) return Status::OK();
      poll_ms = remaining <= 0.0 ? 0 : static_cast<int>(remaining * 1000.0) + 1;
    }
    pollfd pfd{conn_.fd(), POLLIN, 0};
    if (conn_.wants_write()) pfd.events |= POLLOUT;
    const int rc = poll(&pfd, 1, poll_ms);
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

RemoteLoadGenerator::RemoteLoadGenerator(std::string host, uint16_t port,
                                         const RemoteLoadOptions& options,
                                         obs::Telemetry* telemetry)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      telemetry_(telemetry) {
  if (options_.mix.empty()) {
    // The paper's mix: two OLAP service classes and the OLTP class, with
    // OLTP dominating the arrival count (Section V).
    options_.mix = {{1, 3.0, workload::WorkloadType::kOlap},
                    {2, 3.0, workload::WorkloadType::kOlap},
                    {3, 94.0, workload::WorkloadType::kOltp}};
  }
  if (telemetry_ != nullptr) {
    auto& reg = telemetry_->registry;
    rtt_hist_ = reg.GetHistogram("qsched_net_rtt_seconds");
    offered_counter_ = reg.GetCounter("qsched_net_client_offered_total");
    completed_counter_ =
        reg.GetCounter("qsched_net_client_completed_total");
  }
}

Status RemoteLoadGenerator::Run() {
  const int n = options_.connections > 0 ? options_.connections : 1;
  std::vector<std::thread> threads;
  std::vector<Status> statuses(static_cast<size_t>(n));
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(
        [this, i, &statuses] { statuses[static_cast<size_t>(i)] = RunConnection(i); });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status RemoteLoadGenerator::RunConnection(int index) {
  Result<std::unique_ptr<Client>> connected = Client::Connect(host_, port_);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();

  // Per-connection generators, independently seeded so connections do not
  // replay each other's draw sequences.
  const uint64_t seed = options_.seed + static_cast<uint64_t>(index) * 7919;
  workload::TpchWorkloadParams tpch_params;
  tpch_params.scale_factor = options_.tpch_scale_factor;
  workload::TpchWorkload olap(tpch_params, seed);
  workload::TpccWorkload oltp(workload::TpccWorkloadParams{}, seed + 1);
  Rng rng(seed, 0x9e3779b97f4a7c15ULL);

  std::vector<double> weights;
  weights.reserve(options_.mix.size());
  for (const RemoteMixEntry& entry : options_.mix) {
    weights.push_back(entry.weight);
  }

  // Reuse the in-process generator's rate envelope so --pattern shapes the
  // remote load the same way it shapes rt::LoadGenerator.
  rt::LoadGenOptions envelope;
  envelope.pattern = options_.pattern;
  envelope.burst_period_seconds = options_.burst_period_seconds;
  envelope.burst_duty = options_.burst_duty;
  envelope.burst_factor = options_.burst_factor;
  envelope.diurnal_period_seconds = options_.diurnal_period_seconds;
  envelope.diurnal_amplitude = options_.diurnal_amplitude;

  const double per_conn_qps =
      options_.qps / static_cast<double>(options_.connections > 0
                                             ? options_.connections
                                             : 1);
  const SteadyClock::time_point start = SteadyClock::now();
  SteadyClock::time_point next_arrival = start;
  uint64_t submitted = 0;

  // request_id -> submit wall time, for RTT + conservation accounting.
  std::unordered_map<uint64_t, SteadyClock::time_point> pending;

  auto absorb = [&](const ClientCompletion& completion) {
    auto it = pending.find(completion.request_id);
    if (it == pending.end()) {
      unmatched_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const double rtt =
        std::chrono::duration<double>(SteadyClock::now() - it->second)
            .count();
    pending.erase(it);
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (completed_counter_ != nullptr) completed_counter_->Inc();
    if (rtt_hist_ != nullptr) rtt_hist_->Record(rtt);
  };

  auto draw_query = [&]() {
    const size_t pick = rng.Categorical(weights);
    const RemoteMixEntry& entry = options_.mix[pick];
    workload::Query query =
        entry.type == workload::WorkloadType::kOlap ? olap.Next()
                                                    : oltp.Next();
    query.class_id = entry.class_id;
    query.client_id =
        index * options_.num_clients +
        static_cast<int>(submitted % static_cast<uint64_t>(
                                         options_.num_clients > 0
                                             ? options_.num_clients
                                             : 1));
    ++submitted;
    return query;
  };

  auto schedule_next_arrival = [&]() {
    // From the pattern's current rate; an overloaded client falls
    // behind, so do not let the backlog of arrivals explode unboundedly.
    const double rate = per_conn_qps * rt::LoadGenerator::RateFactorAt(
                                           SecondsSince(start), envelope);
    const double dt = rate > 0.0 ? rng.Exponential(1.0 / rate) : 0.010;
    next_arrival += std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(dt));
    const SteadyClock::time_point now = SteadyClock::now();
    if (next_arrival < now) next_arrival = now;
  };

  // In pipeline mode a query is counted pending at SubmitNoWait time; a
  // later REJECTED verdict takes it back out. In blocking mode verdicts
  // arrive inline and this sees only its own entries.
  auto process_verdict = [&](const Client::SubmitResult& sr) {
    if (sr.accepted) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      pending.erase(sr.request_id);
      if (sr.reject_reason == rt::RejectReason::kShuttingDown) {
        rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
      } else if (sr.reject_reason ==
                 rt::RejectReason::kBackendUnavailable) {
        rejected_backend_unavailable_.fetch_add(1,
                                                std::memory_order_relaxed);
      } else {
        rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto drain_verdicts = [&]() {
    Client::SubmitResult sr;
    while (client->PopVerdict(&sr)) process_verdict(sr);
  };

  if (options_.pipeline) {
    const size_t depth_limit = static_cast<size_t>(
        options_.max_outstanding > 0 ? options_.max_outstanding : 128);
    while (SecondsSince(start) < options_.duration_wall_seconds) {
      // Wait out the gap to the next arrival, absorbing whatever the
      // server sends meanwhile.
      while (true) {
        const double wait = std::chrono::duration<double>(
                                next_arrival - SteadyClock::now())
                                .count();
        Result<Client::PolledCompletion> polled =
            client->PollCompletion(wait > 0.0 ? wait : 0.0);
        if (!polled.ok()) return polled.status();
        drain_verdicts();
        if (polled.ValueOrDie().found) {
          absorb(polled.ValueOrDie().completion);
          continue;
        }
        break;  // Timed out: the arrival is due (or overdue).
      }

      // Queue every due arrival; one Flush() then carries the whole
      // burst in a single send(). This is what lets offered throughput
      // exceed connections/RTT.
      size_t batched = 0;
      while (SteadyClock::now() >= next_arrival &&
             SecondsSince(start) < options_.duration_wall_seconds) {
        // Backpressure: bound the per-connection pipeline depth.
        while (client->outstanding() + client->verdicts_pending() >=
               depth_limit) {
          QSCHED_RETURN_NOT_OK(client->Flush());
          Result<Client::PolledCompletion> polled =
              client->PollCompletion(0.050);
          if (!polled.ok()) return polled.status();
          drain_verdicts();
          if (polled.ValueOrDie().found) {
            absorb(polled.ValueOrDie().completion);
          }
        }
        workload::Query query = draw_query();
        offered_.fetch_add(1, std::memory_order_relaxed);
        if (offered_counter_ != nullptr) offered_counter_->Inc();
        Result<uint64_t> rid = client->SubmitNoWait(query);
        if (!rid.ok()) return rid.status();
        pending.emplace(rid.ValueOrDie(), SteadyClock::now());
        ++batched;
        schedule_next_arrival();
      }
      if (batched > 0) QSCHED_RETURN_NOT_OK(client->Flush());

      // Absorb whatever already came back, without blocking.
      while (true) {
        Result<Client::PolledCompletion> polled =
            client->PollCompletion(0.0);
        if (!polled.ok()) return polled.status();
        drain_verdicts();
        if (!polled.ValueOrDie().found) break;
        absorb(polled.ValueOrDie().completion);
      }
    }

    // Resolve every still-owed verdict before draining, so rejected
    // queries are out of `pending` and accepted ones are counted.
    QSCHED_RETURN_NOT_OK(client->Flush());
    while (client->verdicts_pending() > 0) {
      Result<Client::SubmitResult> verdict = client->NextVerdict();
      if (!verdict.ok()) return verdict.status();
      process_verdict(verdict.ValueOrDie());
    }
  } else {
    while (SecondsSince(start) < options_.duration_wall_seconds) {
      // Drain any completions that arrived, then wait out the gap to the
      // next arrival doing the same.
      while (true) {
        const double wait = std::chrono::duration<double>(
                                next_arrival - SteadyClock::now())
                                .count();
        Result<Client::PolledCompletion> polled =
            client->PollCompletion(wait > 0.0 ? wait : 0.0);
        if (!polled.ok()) return polled.status();
        if (polled.ValueOrDie().found) {
          absorb(polled.ValueOrDie().completion);
          continue;
        }
        break;  // Timed out: the arrival is due (or overdue).
      }
      if (SteadyClock::now() < next_arrival) continue;

      // Draw and submit one query, blocking for its verdict.
      workload::Query query = draw_query();
      offered_.fetch_add(1, std::memory_order_relaxed);
      if (offered_counter_ != nullptr) offered_counter_->Inc();
      const SteadyClock::time_point sent_at = SteadyClock::now();
      Result<Client::SubmitResult> verdict = client->Submit(query);
      if (!verdict.ok()) return verdict.status();
      const Client::SubmitResult& sr = verdict.ValueOrDie();
      if (sr.accepted) pending.emplace(sr.request_id, sent_at);
      process_verdict(sr);
      schedule_next_arrival();
    }
  }
  const SteadyClock::time_point feed_end = SteadyClock::now();

  // Drain: collect every outstanding completion, then reconcile.
  Status drained = client->Drain();
  if (!drained.ok()) return drained;
  while (true) {
    Result<Client::PolledCompletion> polled = client->PollCompletion(0.0);
    if (!polled.ok()) return polled.status();
    if (!polled.ValueOrDie().found) break;
    absorb(polled.ValueOrDie().completion);
  }
  drain_verdicts();
  lost_.fetch_add(pending.size(), std::memory_order_relaxed);

  const double feed_s =
      std::chrono::duration<double>(feed_end - start).count();
  const double drain_s =
      std::chrono::duration<double>(SteadyClock::now() - feed_end).count();
  {
    std::lock_guard<std::mutex> lock(phase_mu_);
    if (feed_s > feed_seconds_) feed_seconds_ = feed_s;
    if (drain_s > drain_seconds_) drain_seconds_ = drain_s;
  }
  return Status::OK();
}

double RemoteLoadGenerator::feed_seconds() const {
  std::lock_guard<std::mutex> lock(phase_mu_);
  return feed_seconds_;
}

double RemoteLoadGenerator::drain_seconds() const {
  std::lock_guard<std::mutex> lock(phase_mu_);
  return drain_seconds_;
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
