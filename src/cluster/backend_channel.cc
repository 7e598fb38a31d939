#include "cluster/backend_channel.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "common/strings.h"
#include "net/client.h"

namespace qsched::cluster {

const char* BackendHealthToString(BackendHealth health) {
  switch (health) {
    case BackendHealth::kHealthy:
      return "healthy";
    case BackendHealth::kDegraded:
      return "degraded";
    case BackendHealth::kEjected:
      return "ejected";
  }
  return "unknown";
}

const char* CircuitStateToString(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kOpen:
      return "open";
    case CircuitState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

BackendChannel::BackendChannel(const BackendAddress& address,
                               const BackendTuning& tuning, int index,
                               FailoverFn on_failover,
                               obs::Telemetry* telemetry)
    : address_(address),
      tuning_(tuning),
      index_(index),
      on_failover_(std::move(on_failover)),
      telemetry_(telemetry),
      jitter_rng_(tuning.seed + static_cast<uint64_t>(index),
                  0xb5ad4eceda1ce2a9ULL) {
  snapshot_.index = index_;
  snapshot_.address = address_;
  if (telemetry_ != nullptr) {
    obs::Registry& reg = telemetry_->registry;
    const std::string label =
        StrPrintf("backend=\"%s\"", address_.ToString().c_str());
    health_gauge_ = reg.GetGauge("qsched_cluster_backend_health", label);
    health_gauge_->Set(
        static_cast<double>(BackendHealth::kEjected));
    reconnects_counter_ =
        reg.GetCounter("qsched_cluster_reconnects_total", label);
    cancelled_counter_ = reg.GetCounter(
        "qsched_cluster_cancelled_completions_total", label);
    ready_hist_ =
        reg.GetHistogram("qsched_cluster_backend_ready_seconds", label);
  }
}

BackendChannel::~BackendChannel() { Stop(); }

Status BackendChannel::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return Status::OK();
  Status opened = wake_.Open();
  if (!opened.ok()) {
    // Without a wakeup the thread would never see forwarded queries:
    // stay down, so Forward rejects them instead.
    std::lock_guard<std::mutex> lock(cmd_mu_);
    stop_requested_ = true;
    return opened;
  }
  // First connect attempt is due immediately.
  next_connect_attempt_ = SteadyClock::now();
  thread_ = std::thread([this] { ThreadLoop(); });
  return Status::OK();
}

void BackendChannel::Stop() {
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    stop_requested_ = true;
    wake_.Notify();
  }
  if (thread_.joinable()) thread_.join();
}

void BackendChannel::Forward(RoutedQuery item) {
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    if (!stop_requested_) {
      // Counted from enqueue, not from encode: the router's scoring
      // must see queued-but-unpumped queries as load, or a burst all
      // lands on one backend before its channel thread runs once.
      in_flight_.fetch_add(1);
      incoming_.push_back(std::move(item));
      wake_.Notify();
      return;
    }
  }
  // Stopping: the channel thread will never see it — reject here so the
  // query is never silently dropped.
  item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
}

bool BackendChannel::Usable() const { return usable_.load(); }

void BackendChannel::OnUsableChanged(std::function<void()> fn) {
  on_usable_changed_ = std::move(fn);
}

void BackendChannel::SetUsable(bool usable) {
  if (usable_.exchange(usable) != usable && on_usable_changed_) {
    on_usable_changed_();
  }
}

BackendSnapshot BackendChannel::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  BackendSnapshot copy = snapshot_;
  copy.router_in_flight = in_flight_.load();
  return copy;
}

void BackendChannel::InjectStatsForTest(
    uint64_t queue_depth, const std::map<int, double>& attainment) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  stats_injected_ = true;
  snapshot_.queue_depth = queue_depth;
  snapshot_.attainment = attainment;
}

void BackendChannel::SetHealth(BackendHealth health) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.health = health;
  }
  if (health_gauge_ != nullptr) {
    health_gauge_->Set(static_cast<double>(health));
  }
}

double BackendChannel::NextBackoffSeconds() {
  if (current_backoff_seconds_ <= 0.0) {
    current_backoff_seconds_ = tuning_.backoff_initial_seconds;
  } else {
    current_backoff_seconds_ = std::min(current_backoff_seconds_ * 2.0,
                                        tuning_.backoff_max_seconds);
  }
  const double jitter = tuning_.backoff_jitter_fraction;
  const double factor =
      jitter > 0.0 ? jitter_rng_.Uniform(1.0 - jitter, 1.0 + jitter) : 1.0;
  return current_backoff_seconds_ * factor;
}

void BackendChannel::ThreadLoop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(cmd_mu_);
      if (stop_requested_) break;
    }

    if (!conn_ && SteadyClock::now() >= next_connect_attempt_) {
      TryConnect();
    }

    PumpForwarding();
    MaybeProbe();
    if (conn_ && !conn_->Flush()) HandleDisconnect();

    // Sleep until the next timed event (probe, probe timeout, reconnect
    // attempt), capped so stop flags are rechecked regularly.
    double wait_s = 0.050;
    const SteadyClock::time_point now = SteadyClock::now();
    if (!conn_) {
      wait_s = std::min(
          wait_s, std::chrono::duration<double>(next_connect_attempt_ - now)
                      .count());
    } else if (outstanding_ping_id_ != 0) {
      wait_s = std::min(
          wait_s,
          std::chrono::duration<double>(probe_deadline_ - now).count());
    }
    const int poll_ms =
        wait_s <= 0.0 ? 0 : static_cast<int>(wait_s * 1000.0) + 1;

    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = {wake_.fd(), POLLIN, 0};
    if (conn_) {
      short events = POLLIN;
      if (conn_->wants_write()) events |= POLLOUT;
      fds[nfds++] = {conn_->fd(), events, 0};
    }
    poll(fds, nfds, poll_ms);

    if (fds[0].revents & POLLIN) wake_.Drain();
    // A writable socket needs nothing here: the next turn flushes.
    if (nfds > 1 && conn_ &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL))) {
      conn_->Receive();
      // Frames that arrived before an EOF or error are handled first;
      // HandleFrame itself may tear the connection down.
      net::Frame frame;
      while (conn_) {
        const net::Connection::RecvStatus status = conn_->Next(&frame);
        if (status == net::Connection::RecvStatus::kFrame) {
          HandleFrame(frame);
          continue;
        }
        if (status != net::Connection::RecvStatus::kIdle) HandleDisconnect();
        break;
      }
    }
  }

  // Stop: close the socket, then resolve everything still owed. Items
  // awaiting a verdict are rejected (never re-routed — the router is
  // stopping too); accepted items get cancelled completions.
  conn_.reset();
  SetUsable(false);
  std::deque<RoutedQuery> leftover;
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    leftover.swap(incoming_);
  }
  for (RoutedQuery& item : leftover) {
    item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
    in_flight_.fetch_sub(1);
  }
  for (auto& [rid, item] : awaiting_verdict_) {
    item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
    in_flight_.fetch_sub(1);
  }
  awaiting_verdict_.clear();
  CancelAccepted();
}

void BackendChannel::TryConnect() {
  connect_started_ = SteadyClock::now();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.circuit = CircuitState::kHalfOpen;
  }
  Result<int> connected = net::ConnectFd(address_.host, address_.port,
                                         tuning_.connect_timeout_seconds);
  if (!connected.ok()) {
    int failures;
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      failures = ++snapshot_.consecutive_failures;
      snapshot_.circuit = CircuitState::kOpen;
      snapshot_.connected = false;
    }
    SetHealth(failures >= tuning_.eject_after_failures
                  ? BackendHealth::kEjected
                  : BackendHealth::kDegraded);
    next_connect_attempt_ = DeadlineAfter(NextBackoffSeconds());
    return;
  }
  conn_.emplace(connected.ValueOrDie());
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.connected = true;
    ++snapshot_.reconnects;
  }
  if (reconnects_counter_ != nullptr) reconnects_counter_->Inc();
  // The circuit stays half-open (no traffic) until the trial PING is
  // answered; MarkAlive on the PONG closes it.
  last_probe_ = SteadyClock::time_point{};
  outstanding_ping_id_ = 0;
  MaybeProbe();
}

void BackendChannel::MarkAlive() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.consecutive_failures = 0;
    snapshot_.circuit = CircuitState::kClosed;
  }
  current_backoff_seconds_ = 0.0;
  SetHealth(BackendHealth::kHealthy);
  // Recorded before the flip, so a WaitUsable it wakes sees the sample.
  if (ready_hist_ != nullptr && !usable_.load()) {
    ready_hist_->Record(std::chrono::duration<double>(SteadyClock::now() -
                                                      connect_started_)
                            .count());
  }
  SetUsable(true);
}

void BackendChannel::HandleDisconnect() {
  conn_.reset();
  SetUsable(false);
  outstanding_ping_id_ = 0;

  int failures;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    failures = ++snapshot_.consecutive_failures;
    snapshot_.connected = false;
    snapshot_.circuit = CircuitState::kOpen;
  }
  SetHealth(failures >= tuning_.eject_after_failures
                ? BackendHealth::kEjected
                : BackendHealth::kDegraded);
  next_connect_attempt_ = DeadlineAfter(NextBackoffSeconds());

  // Queries whose verdict is still pending were never admitted anywhere:
  // hand them back for re-routing (failover). Accepted queries may still
  // be executing on the (possibly wedged, possibly just slow) backend —
  // re-running them elsewhere could duplicate work, so they resolve as
  // cancelled completions instead. Either way nothing is dropped.
  std::vector<RoutedQuery> to_failover;
  to_failover.reserve(awaiting_verdict_.size());
  for (auto& [rid, item] : awaiting_verdict_) {
    to_failover.push_back(std::move(item));
    in_flight_.fetch_sub(1);
  }
  awaiting_verdict_.clear();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.failed_over_out += to_failover.size();
  }
  for (RoutedQuery& item : to_failover) {
    on_failover_(std::move(item), this);
  }
  CancelAccepted();
}

void BackendChannel::CancelAccepted() {
  for (auto& [rid, item] : awaiting_completion_) {
    net::ServiceCompletion completion;
    completion.class_id = item.query.class_id;
    completion.cancelled = true;
    completion.completed_wall = SteadyClock::now();
    if (cancelled_counter_ != nullptr) cancelled_counter_->Inc();
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      ++snapshot_.cancelled_completions;
    }
    item.on_complete(completion);
    in_flight_.fetch_sub(1);
  }
  awaiting_completion_.clear();
}

void BackendChannel::PumpForwarding() {
  std::deque<RoutedQuery> batch;
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    batch.swap(incoming_);
  }
  const bool can_send = conn_ && usable_.load();
  for (RoutedQuery& item : batch) {
    if (!can_send) {
      // Raced a disconnect (the router picked us just before the
      // breaker opened): hand it straight back.
      in_flight_.fetch_sub(1);
      {
        std::lock_guard<std::mutex> lock(snapshot_mu_);
        ++snapshot_.failed_over_out;
      }
      on_failover_(std::move(item), this);
      continue;
    }
    net::Frame frame;
    frame.type = net::FrameType::kSubmit;
    frame.request_id = next_request_id_++;
    frame.query = item.query;
    frame.want_trace = item.want_trace;
    conn_->Send(frame);
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      ++snapshot_.forwarded;
    }
    awaiting_verdict_.emplace(frame.request_id, std::move(item));
  }
}

void BackendChannel::MaybeProbe() {
  if (!conn_) return;
  const SteadyClock::time_point now = SteadyClock::now();
  if (outstanding_ping_id_ != 0 && now >= probe_deadline_) {
    // Unanswered probe: one failure. Past the ejection threshold the
    // connection is torn down (which re-routes pending queries); below
    // it the backend keeps serving as degraded and the next probe gets
    // a fresh chance.
    int failures;
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      failures = ++snapshot_.consecutive_failures;
    }
    outstanding_ping_id_ = 0;
    if (failures >= tuning_.eject_after_failures) {
      HandleDisconnect();
      return;
    }
    SetHealth(BackendHealth::kDegraded);
  }
  const double since_probe =
      std::chrono::duration<double>(now - last_probe_).count();
  if (last_probe_ != SteadyClock::time_point{} &&
      since_probe < tuning_.probe_interval_seconds) {
    return;
  }
  if (outstanding_ping_id_ != 0) return;  // one probe at a time
  last_probe_ = now;
  net::Frame ping;
  ping.type = net::FrameType::kPing;
  ping.request_id = next_request_id_++;
  outstanding_ping_id_ = ping.request_id;
  probe_deadline_ = DeadlineAfter(tuning_.probe_timeout_seconds, now);
  conn_->Send(ping);
  net::Frame stats;
  stats.type = net::FrameType::kStats;
  stats.request_id = next_request_id_++;
  conn_->Send(stats);
}

void BackendChannel::HandleFrame(const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kAccepted:
    case net::FrameType::kRejected: {
      auto it = awaiting_verdict_.find(frame.request_id);
      if (it == awaiting_verdict_.end()) return;  // probe reply raced
      RoutedQuery item = std::move(it->second);
      awaiting_verdict_.erase(it);
      if (frame.type == net::FrameType::kAccepted) {
        item.on_verdict(true, rt::RejectReason::kQueueFull);
        awaiting_completion_.emplace(frame.request_id, std::move(item));
      } else {
        item.on_verdict(false, frame.reject_reason);
        in_flight_.fetch_sub(1);
      }
      return;
    }
    case net::FrameType::kCompleted: {
      auto it = awaiting_completion_.find(frame.request_id);
      if (it == awaiting_completion_.end()) return;
      RoutedQuery item = std::move(it->second);
      awaiting_completion_.erase(it);
      net::ServiceCompletion completion;
      completion.class_id = frame.class_id;
      completion.response_seconds = frame.response_seconds;
      completion.exec_seconds = frame.exec_seconds;
      completion.cancelled = frame.cancelled;
      completion.has_trace = frame.has_trace;
      completion.want_trace = frame.has_trace;
      completion.trace_id = frame.trace_id;
      completion.stage_gateway_queue_seconds =
          frame.stage_gateway_queue_seconds;
      completion.stage_dispatch_seconds = frame.stage_dispatch_seconds;
      completion.stage_execute_seconds = frame.stage_execute_seconds;
      completion.completed_wall = SteadyClock::now();
      item.on_complete(completion);
      in_flight_.fetch_sub(1);
      return;
    }
    case net::FrameType::kPong: {
      if (frame.request_id == outstanding_ping_id_) {
        outstanding_ping_id_ = 0;
      }
      MarkAlive();
      return;
    }
    case net::FrameType::kStatsReply: {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      snapshot_.admitted = frame.stats.admitted;
      snapshot_.accepted = frame.stats.accepted;
      snapshot_.completed = frame.stats.completed;
      if (!stats_injected_) {
        snapshot_.queue_depth = frame.stats.queue_depth;
        for (const net::WireClassAttainment& entry :
             frame.stats.class_attainment) {
          snapshot_.attainment[entry.class_id] = entry.rolling_attainment;
        }
      }
      return;
    }
    case net::FrameType::kError: {
      HandleDisconnect();
      return;
    }
    default:
      return;  // DRAINED etc. — nothing owed
  }
}

}  // namespace qsched::cluster
