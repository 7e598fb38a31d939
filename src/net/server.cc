#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "common/strings.h"

namespace qsched::net {

void Server::Mailbox::Post(PendingCompletion completion) {
  std::lock_guard<std::mutex> lock(mu);
  if (closed) return;  // server gone; the service still accounted it
  items.push_back(completion);
  if (wake != nullptr) wake->Notify();
}

void Server::Mailbox::PostVerdict(PendingVerdict verdict) {
  std::lock_guard<std::mutex> lock(mu);
  if (closed) return;
  verdicts.push_back(verdict);
  if (wake != nullptr) wake->Notify();
}

Server::Server(rt::Gateway* gateway, const ServerOptions& options,
               obs::Telemetry* telemetry)
    : Server(static_cast<QueryService*>(nullptr), options, telemetry) {
  owned_service_ = std::make_unique<GatewayService>(gateway, telemetry);
  service_ = owned_service_.get();
}

Server::Server(QueryService* service, const ServerOptions& options,
               obs::Telemetry* telemetry)
    : service_(service), options_(options), telemetry_(telemetry) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  num_reactors_ = options_.reactors > 0
                      ? options_.reactors
                      : static_cast<int>(std::min<unsigned>(4, hw));
  if (telemetry_ != nullptr) {
    obs::Registry& reg = telemetry_->registry;
    reg.GetGauge("qsched_net_reactors")
        ->Set(static_cast<double>(num_reactors_));
    connections_gauge_ = reg.GetGauge("qsched_net_connections");
    connections_counter_ = reg.GetCounter("qsched_net_connections_total");
    frames_in_counter_ = reg.GetCounter("qsched_net_frames_in_total");
    frames_out_counter_ = reg.GetCounter("qsched_net_frames_out_total");
    protocol_errors_counter_ =
        reg.GetCounter("qsched_net_protocol_errors_total");
    submit_accepted_counter_ =
        reg.GetCounter("qsched_net_submit_accepted_total");
    submit_rejected_full_counter_ = reg.GetCounter(
        "qsched_net_submit_rejected_total", "reason=\"queue_full\"");
    submit_rejected_shutdown_counter_ = reg.GetCounter(
        "qsched_net_submit_rejected_total", "reason=\"shutting_down\"");
    submit_rejected_unavailable_counter_ =
        reg.GetCounter("qsched_net_submit_rejected_total",
                       "reason=\"backend_unavailable\"");
    completions_dropped_counter_ =
        reg.GetCounter("qsched_net_completions_dropped_total");
    turnaround_hist_ =
        reg.GetHistogram("qsched_net_server_turnaround_seconds");
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) return Status::FailedPrecondition("server already started");
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
  if (listen(listen_fd_, 128) < 0 || !SetNonBlocking(listen_fd_)) {
    Status status =
        Status::Internal(StrPrintf("listen: %s", strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  reactors_.clear();
  for (int i = 0; i < num_reactors_; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    reactor->mailbox = std::make_shared<Mailbox>();
    Status opened = reactor->wake.Open();
    if (!opened.ok()) {
      reactors_.clear();
      close(listen_fd_);
      listen_fd_ = -1;
      return opened;
    }
    {
      std::lock_guard<std::mutex> lock(reactor->mailbox->mu);
      reactor->mailbox->wake = &reactor->wake;
    }
    reactors_.push_back(std::move(reactor));
  }

  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    started_ = true;
    reactors_done_ = 0;
  }
  for (auto& reactor : reactors_) {
    Reactor* raw = reactor.get();
    raw->thread = std::thread([this, raw] { ReactorLoop(raw); });
  }
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_requested_.store(true);
  WakeupAll();
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    bool drained = lifecycle_cv_.wait_until(
        lock, DeadlineAfter(options_.stop_drain_timeout_seconds),
        [this] { return reactors_done_ == reactors_.size(); });
    if (!drained) {
      force_stop_.store(true);
      WakeupAll();
      lifecycle_cv_.wait(
          lock, [this] { return reactors_done_ == reactors_.size(); });
    }
  }
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  for (auto& reactor : reactors_) {
    {
      std::lock_guard<std::mutex> lock(reactor->mailbox->mu);
      reactor->mailbox->closed = true;
      reactor->mailbox->wake = nullptr;
    }
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void Server::WakeupAll() {
  for (auto& reactor : reactors_) {
    reactor->wake.Notify();
  }
}

void Server::ReactorLoop(Reactor* reactor) {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn_id per pollfd (0 = listen/wake)
  const bool acceptor = reactor->index == 0;

  while (true) {
    if (force_stop_.load()) break;
    bool stopping = stop_requested_.load();

    AdoptHandoff(reactor);

    // Graceful exit: stopping, nothing in flight on THIS reactor, all
    // flushed. Each reactor drains independently; Stop() waits for all.
    if (stopping) {
      bool busy;
      {
        std::lock_guard<std::mutex> lock(reactor->handoff_mu);
        busy = !reactor->handoff.empty();
      }
      for (const auto& [id, conn] : reactor->conns) {
        if (busy) break;
        if (conn.in_flight > 0 || conn.io.wants_write() ||
            !conn.verdict_order.empty()) {
          busy = true;
        }
      }
      if (!busy) break;
    }

    fds.clear();
    fd_conn.clear();
    if (acceptor && !stopping) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    fds.push_back({reactor->wake.fd(), POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : reactor->conns) {
      short events = 0;
      if (!conn.input_done && !conn.closing) events |= POLLIN;
      if (conn.io.wants_write()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({conn.io.fd(), events, 0});
      fd_conn.push_back(id);
    }

    // 100 ms cap so stop/force flags are rechecked even with no traffic.
    poll(fds.data(), fds.size(), 100);

    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == reactor->wake.fd()) {
        reactor->wake.Drain();
        continue;
      }
      if (acceptor && fds[i].fd == listen_fd_) {
        AcceptNew(reactor);
        continue;
      }
      uint64_t conn_id = fd_conn[i];
      if (reactor->conns.find(conn_id) == reactor->conns.end()) continue;
      // POLLHUP can coexist with buffered readable data (half-close
      // after a DRAIN, say) — always let recv() discover the EOF.
      // POLLOUT needs nothing here: every connection flushes below.
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) {
        ReadFromConnection(reactor, conn_id);
      }
    }

    // Connections dealt to us while we slept in poll().
    AdoptHandoff(reactor);

    // Completions can arrive at any moment; drain after I/O so frames
    // queued here are flushed either immediately below or next round.
    DrainMailbox(reactor);

    // Opportunistic flush + deferred closes.
    std::vector<uint64_t> to_close;
    for (auto& [id, conn] : reactor->conns) {
      if (!conn.io.Flush()) {
        // Peer is unreachable; the queued bytes were dropped.
        conn.input_done = true;
        conn.closing = true;
      }
      bool flushed = !conn.io.wants_write();
      if (conn.closing && flushed) to_close.push_back(id);
      // Peer hung up and nothing is coming back to it anymore.
      if (conn.input_done && conn.in_flight == 0 &&
          conn.verdict_order.empty() && flushed) {
        to_close.push_back(id);
      }
    }
    for (uint64_t id : to_close) CloseConnection(reactor, id);
  }

  // Reactor exit: close whatever is left (force stop or drained stop),
  // including accepted connections never adopted from the hand-off.
  std::vector<uint64_t> remaining;
  remaining.reserve(reactor->conns.size());
  for (const auto& [id, conn] : reactor->conns) remaining.push_back(id);
  for (uint64_t id : remaining) CloseConnection(reactor, id);
  {
    std::lock_guard<std::mutex> lock(reactor->handoff_mu);
    for (const auto& [id, fd] : reactor->handoff) {
      close(fd);
      active_connections_.fetch_sub(1);
    }
    reactor->handoff.clear();
  }
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(active_connections_.load()));
  }

  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    ++reactors_done_;
  }
  lifecycle_cv_.notify_all();
}

void Server::AcceptNew(Reactor* reactor) {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next round
    size_t cap = static_cast<size_t>(
        options_.max_connections < 1 ? 1 : options_.max_connections);
    // The cap is global across reactors: active_connections_ counts
    // every accepted-and-not-yet-closed connection, including ones
    // parked in a hand-off queue.
    if (active_connections_.load() >= cap || stop_requested_.load()) {
      // Count before close: the peer observes the refusal the instant
      // the fd closes, and a caller reacting to it must already see a
      // non-zero refused counter.
      connections_refused_.fetch_add(1);
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_.fetch_add(1);
    active_connections_.fetch_add(1);
    connections_accepted_.fetch_add(1);
    if (connections_counter_ != nullptr) connections_counter_->Inc();
    if (connections_gauge_ != nullptr) {
      connections_gauge_->Set(
          static_cast<double>(active_connections_.load()));
    }
    // Deal round-robin: our own shard adopts inline, any other gets the
    // fd parked in its hand-off queue and a wakeup byte.
    Reactor* target = reactors_[next_reactor_++ % reactors_.size()].get();
    if (target == reactor) {
      reactor->conns.try_emplace(id, fd, options_.max_frame_payload);
    } else {
      {
        std::lock_guard<std::mutex> lock(target->handoff_mu);
        target->handoff.emplace_back(id, fd);
      }
      target->wake.Notify();
    }
  }
}

void Server::AdoptHandoff(Reactor* reactor) {
  std::vector<std::pair<uint64_t, int>> batch;
  {
    std::lock_guard<std::mutex> lock(reactor->handoff_mu);
    batch.swap(reactor->handoff);
  }
  for (const auto& [id, fd] : batch) {
    reactor->conns.try_emplace(id, fd, options_.max_frame_payload);
  }
}

void Server::ReadFromConnection(Reactor* reactor, uint64_t conn_id) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  Session& conn = it->second;
  conn.io.Receive();

  // Handle every complete frame this read produced before returning to
  // poll(): a pipelining client may have dozens of SUBMITs in one
  // segment, and each loop turn below costs no syscall.
  Frame frame;
  while (!conn.closing) {
    switch (conn.io.Next(&frame)) {
      case Connection::RecvStatus::kFrame:
        break;
      case Connection::RecvStatus::kIdle:
        return;
      case Connection::RecvStatus::kClosed:
        conn.input_done = true;  // EOF; keep delivering completions
        return;
      case Connection::RecvStatus::kCorrupt: {
        // Framing is lost: tell the peer exactly why, then drop it.
        protocol_errors_.fetch_add(1);
        if (protocol_errors_counter_ != nullptr) {
          protocol_errors_counter_->Inc();
        }
        const DecodeStatus status = conn.io.decode_status();
        Frame error;
        error.type = FrameType::kError;
        error.error_code = DecodeStatusToWireError(status);
        error.error_message = DecodeStatusToString(status);
        SendFrame(&conn, error);
        conn.closing = true;
        conn.input_done = true;
        return;
      }
    }
    // The peer's latest frame sets the reply version for this
    // connection: a v1 client keeps getting v1 frames it can decode.
    conn.version = frame.version;
    frames_received_.fetch_add(1);
    if (frames_in_counter_ != nullptr) frames_in_counter_->Inc();
    if (!HandleFrame(reactor, conn_id, frame)) return;
  }
}

bool Server::HandleFrame(Reactor* reactor, uint64_t conn_id,
                         const Frame& frame) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return false;
  Session& conn = it->second;

  switch (frame.type) {
    case FrameType::kSubmit: {
      Frame reply;
      reply.request_id = frame.request_id;
      if (conn.draining || stop_requested_.load()) {
        reply.type = FrameType::kRejected;
        reply.reject_reason = rt::RejectReason::kShuttingDown;
        submits_rejected_.fetch_add(1);
        if (submit_rejected_shutdown_counter_ != nullptr) {
          submit_rejected_shutdown_counter_->Inc();
        }
        SendFrame(&conn, reply);
        return true;
      }
      auto submitted = std::chrono::steady_clock::now();
      const uint64_t request_id = frame.request_id;
      // Both hooks capture THIS reactor's mailbox, which is what routes
      // the verdict/completion back to the reactor that owns the
      // connection.
      SubmitDisposition disposition = service_->Submit(
          frame.query, frame.want_trace,
          [mailbox = reactor->mailbox, conn_id, request_id](
              bool accepted, rt::RejectReason why) {
            mailbox->PostVerdict({conn_id, request_id, accepted, why});
          },
          [mailbox = reactor->mailbox, conn_id, request_id,
           submitted](const ServiceCompletion& payload) {
            PendingCompletion completion;
            completion.conn_id = conn_id;
            completion.request_id = request_id;
            completion.submitted_wall = submitted;
            completion.payload = payload;
            mailbox->Post(std::move(completion));
          });
      if (disposition.kind == SubmitDisposition::Kind::kDeferred) {
        // The verdict will surface through the mailbox; park the slot so
        // verdicts still go out in submission order.
        conn.verdict_order.push_back(request_id);
        return true;
      }
      const bool accepted =
          disposition.kind == SubmitDisposition::Kind::kAccepted;
      if (conn.verdict_order.empty()) {
        // Fast path (always taken on the direct gateway path): nothing
        // older is awaiting a verdict, so answer inline.
        EmitVerdict(&conn, request_id, accepted, disposition.reason);
      } else {
        // A deferred verdict is still owed for an older SUBMIT: even a
        // synchronous verdict must queue behind it.
        conn.verdict_order.push_back(request_id);
        conn.verdicts_ready.emplace(
            request_id, std::make_pair(accepted, disposition.reason));
      }
      return true;
    }
    case FrameType::kPing: {
      Frame reply;
      reply.type = FrameType::kPong;
      reply.request_id = frame.request_id;
      SendFrame(&conn, reply);
      return true;
    }
    case FrameType::kStats: {
      Frame reply;
      reply.type = FrameType::kStatsReply;
      reply.request_id = frame.request_id;
      reply.stats = service_->Stats();
      reply.stats.connections = active_connections_.load();
      SendFrame(&conn, reply);
      return true;
    }
    case FrameType::kDrain: {
      conn.draining = true;
      conn.drain_request_id = frame.request_id;
      MaybeFinishDrain(reactor, conn_id);
      return true;
    }
    case FrameType::kAccepted:
    case FrameType::kRejected:
    case FrameType::kCompleted:
    case FrameType::kPong:
    case FrameType::kDrained:
    case FrameType::kStatsReply:
    case FrameType::kError: {
      // Response frames are server-to-client only.
      protocol_errors_.fetch_add(1);
      if (protocol_errors_counter_ != nullptr) {
        protocol_errors_counter_->Inc();
      }
      Frame error;
      error.type = FrameType::kError;
      error.request_id = frame.request_id;
      error.error_code = WireError::kBadState;
      error.error_message = StrPrintf(
          "%s is a response type", FrameTypeToString(frame.type));
      SendFrame(&conn, error);
      conn.closing = true;
      conn.input_done = true;
      return false;
    }
  }
  return true;
}

void Server::DrainMailbox(Reactor* reactor) {
  std::vector<PendingVerdict> verdict_batch;
  std::vector<PendingCompletion> batch;
  {
    std::lock_guard<std::mutex> lock(reactor->mailbox->mu);
    verdict_batch.swap(reactor->mailbox->verdicts);
    batch.swap(reactor->mailbox->items);
  }
  // Verdicts first: a service fires a query's verdict strictly before
  // its completion, and both land in the same mutex-ordered mailbox, so
  // after this loop every completion in `batch` has its verdict either
  // already emitted or parked in verdicts_ready.
  for (const PendingVerdict& verdict : verdict_batch) {
    auto it = reactor->conns.find(verdict.conn_id);
    if (it == reactor->conns.end()) continue;  // conn gone; see below
    it->second.verdicts_ready.emplace(
        verdict.request_id,
        std::make_pair(verdict.accepted, verdict.reason));
    ReleaseReadyVerdicts(reactor, verdict.conn_id);
  }
  for (PendingCompletion& completion : batch) {
    auto it = reactor->conns.find(completion.conn_id);
    if (it == reactor->conns.end()) {
      completions_dropped_.fetch_add(1);
      if (completions_dropped_counter_ != nullptr) {
        completions_dropped_counter_->Inc();
      }
      continue;
    }
    Session& conn = it->second;
    if (conn.verdicts_ready.count(completion.request_id) > 0) {
      // Its ACCEPTED frame has not gone out yet (an older SUBMIT's
      // verdict is still owed); the completion rides out right behind
      // the verdict in ReleaseReadyVerdicts.
      conn.held_completions.emplace(completion.request_id,
                                    std::move(completion));
      continue;
    }
    DeliverCompletion(reactor, &conn, completion);
    MaybeFinishDrain(reactor, completion.conn_id);
  }
}

void Server::EmitVerdict(Session* conn, uint64_t request_id,
                         bool accepted, rt::RejectReason reason) {
  Frame reply;
  reply.request_id = request_id;
  if (accepted) {
    conn->in_flight += 1;
    reply.type = FrameType::kAccepted;
    submits_accepted_.fetch_add(1);
    if (submit_accepted_counter_ != nullptr) {
      submit_accepted_counter_->Inc();
    }
  } else {
    reply.type = FrameType::kRejected;
    reply.reject_reason = reason;
    submits_rejected_.fetch_add(1);
    if (reason == rt::RejectReason::kQueueFull) {
      if (submit_rejected_full_counter_ != nullptr) {
        submit_rejected_full_counter_->Inc();
      }
    } else if (reason == rt::RejectReason::kBackendUnavailable) {
      if (submit_rejected_unavailable_counter_ != nullptr) {
        submit_rejected_unavailable_counter_->Inc();
      }
    } else if (submit_rejected_shutdown_counter_ != nullptr) {
      submit_rejected_shutdown_counter_->Inc();
    }
  }
  SendFrame(conn, reply);
}

void Server::ReleaseReadyVerdicts(Reactor* reactor, uint64_t conn_id) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  Session& conn = it->second;
  while (!conn.verdict_order.empty()) {
    const uint64_t request_id = conn.verdict_order.front();
    auto ready = conn.verdicts_ready.find(request_id);
    if (ready == conn.verdicts_ready.end()) break;  // still deferred
    const auto [accepted, reason] = ready->second;
    conn.verdicts_ready.erase(ready);
    conn.verdict_order.pop_front();
    EmitVerdict(&conn, request_id, accepted, reason);
    auto held = conn.held_completions.find(request_id);
    if (held != conn.held_completions.end()) {
      PendingCompletion completion = std::move(held->second);
      conn.held_completions.erase(held);
      DeliverCompletion(reactor, &conn, completion);
    }
  }
  MaybeFinishDrain(reactor, conn_id);
}

void Server::DeliverCompletion(Reactor* reactor, Session* conn,
                               const PendingCompletion& completion) {
  const ServiceCompletion& payload = completion.payload;
  Frame frame;
  frame.type = FrameType::kCompleted;
  frame.request_id = completion.request_id;
  frame.class_id = payload.class_id;
  frame.response_seconds = payload.response_seconds;
  frame.exec_seconds = payload.exec_seconds;
  frame.cancelled = payload.cancelled;
  // The encoder drops the trace context again when the connection
  // negotiated v1.
  if (payload.has_trace && payload.want_trace) {
    frame.has_trace = true;
    frame.trace_id = payload.trace_id;
    frame.stage_gateway_queue_seconds =
        payload.stage_gateway_queue_seconds;
    frame.stage_dispatch_seconds = payload.stage_dispatch_seconds;
    frame.stage_execute_seconds = payload.stage_execute_seconds;
  }
  SendFrame(conn, frame);
  if (conn->in_flight > 0) conn->in_flight -= 1;
  completions_delivered_.fetch_add(1);
  auto now = std::chrono::steady_clock::now();
  if (turnaround_hist_ != nullptr) {
    turnaround_hist_->Record(
        std::chrono::duration<double>(now - completion.submitted_wall)
            .count());
  }
  // Fourth stage of the trace: completion callback to COMPLETED bytes
  // entering the socket buffer.
  if (payload.has_trace && telemetry_ != nullptr) {
    FlushStageHistogram(reactor, payload.class_id)
        ->Record(
            std::chrono::duration<double>(now - payload.completed_wall)
                .count());
  }
}

obs::Histogram* Server::FlushStageHistogram(Reactor* reactor, int class_id) {
  auto it = reactor->flush_stage_hists.find(class_id);
  if (it != reactor->flush_stage_hists.end()) return it->second;
  obs::Histogram* hist = telemetry_->registry.GetHistogram(
      "qsched_stage_seconds",
      StrPrintf("class=\"%d\",stage=\"flush\"", class_id));
  reactor->flush_stage_hists.emplace(class_id, hist);
  return hist;
}

void Server::MaybeFinishDrain(Reactor* reactor, uint64_t conn_id) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  Session& conn = it->second;
  if (!conn.draining || conn.in_flight > 0 ||
      !conn.verdict_order.empty() || conn.closing) {
    return;
  }
  Frame frame;
  frame.type = FrameType::kDrained;
  frame.request_id = conn.drain_request_id;
  SendFrame(&conn, frame);
  conn.closing = true;
}

void Server::SendFrame(Session* conn, Frame frame) {
  frame.version = conn->version;
  conn->io.Send(frame);
  frames_sent_.fetch_add(1);
  if (frames_out_counter_ != nullptr) frames_out_counter_->Inc();
}

void Server::CloseConnection(Reactor* reactor, uint64_t conn_id) {
  auto it = reactor->conns.find(conn_id);
  if (it == reactor->conns.end()) return;
  // Completions still in flight for this connection will be dropped by
  // DrainMailbox when they surface. Erasing the session closes its fd.
  reactor->conns.erase(it);
  active_connections_.fetch_sub(1);
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(
        static_cast<double>(active_connections_.load()));
  }
}

}  // namespace qsched::net
