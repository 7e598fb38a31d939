#ifndef QSCHED_CLUSTER_BACKEND_CHANNEL_H_
#define QSCHED_CLUSTER_BACKEND_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/backend.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/wake_pipe.h"
#include "net/connection.h"
#include "net/frame.h"
#include "obs/telemetry.h"

namespace qsched::cluster {

/// One backend's dedicated I/O channel: a single thread that owns the
/// TCP connection to that backend, forwards routed SUBMITs (pipelined —
/// many queries in flight, matched back by request_id), probes health
/// with PING + STATS every probe interval, and runs the backend's
/// circuit breaker and reconnect backoff.
///
/// Threading: Forward() and Stop() may be called from any thread — they
/// enqueue under the command mutex and tickle the channel's wakeup
/// pipe. Everything else (the net::Connection, in-flight maps) is owned
/// by the channel thread. Snapshot() returns a consistent copy under the
/// snapshot mutex, which the channel thread updates at transition
/// points.
///
/// Exactly-once contract: every RoutedQuery handed to Forward() gets
/// its on_verdict invoked exactly once — with the backend's verdict,
/// or by the router after a failover hand-back (FailoverFn), or with
/// kBackendUnavailable at Stop(). An accepted query additionally gets
/// exactly one on_complete: the backend's COMPLETED relayed, or — when
/// the backend dies first — a synthesized cancelled completion, so an
/// ACCEPTED front client never waits forever (zero lost COMPLETEDs).
class BackendChannel {
 public:
  /// Hands back a query this channel can no longer place (its verdict
  /// was still pending when the connection died). Invoked on the
  /// channel thread; the router re-routes it to another backend or
  /// rejects it with kBackendUnavailable. Never invoked for accepted
  /// queries — those get a cancelled completion instead, because the
  /// backend may still be executing them and re-running would
  /// duplicate work.
  using FailoverFn =
      std::function<void(RoutedQuery item, BackendChannel* from)>;

  BackendChannel(const BackendAddress& address, const BackendTuning& tuning,
                 int index, FailoverFn on_failover,
                 obs::Telemetry* telemetry = nullptr);
  ~BackendChannel();

  BackendChannel(const BackendChannel&) = delete;
  BackendChannel& operator=(const BackendChannel&) = delete;

  /// Spawns the channel thread (which immediately starts connecting).
  /// Fails when the wakeup pipe cannot be created; the channel then
  /// stays down and Forward rejects with kBackendUnavailable.
  Status Start();

  /// Stops the thread. Pending unaccepted queries are rejected with
  /// kBackendUnavailable; accepted ones get cancelled completions.
  /// Idempotent.
  void Stop();

  /// Enqueues one routed query for forwarding. Safe from any thread.
  /// If the channel turns out to be unusable the query is failed over,
  /// never dropped.
  void Forward(RoutedQuery item);

  const BackendAddress& address() const { return address_; }
  int index() const { return index_; }
  const BackendTuning& tuning() const { return tuning_; }

  /// Queries owed to this backend right now (cheap atomic read).
  uint64_t router_in_flight() const { return in_flight_.load(); }

  /// Whether the router should place new queries here: connected with
  /// the circuit closed.
  bool Usable() const;

  /// Registers `fn` to run on the channel thread, holding no channel
  /// lock, each time Usable() changes: on the PONG that closes the
  /// circuit, on a disconnect and when the thread exits. Call before
  /// Start().
  void OnUsableChanged(std::function<void()> fn);

  BackendSnapshot Snapshot() const;

  /// Test hook: pins the stats part of the snapshot (queue depth +
  /// attainment), so tests can starve one backend's OLTP attainment
  /// without building a whole SLO history; real STATS_REPLYs stop
  /// overwriting it.
  void InjectStatsForTest(uint64_t queue_depth,
                          const std::map<int, double>& attainment);

 private:
  using SteadyClock = std::chrono::steady_clock;

  void ThreadLoop();
  /// One reconnect attempt (bounded by connect_timeout). On success the
  /// circuit goes half-open and a probe is sent; only a PONG closes it.
  void TryConnect();
  /// Tears the connection down: verdict-pending queries are handed to
  /// the failover callback, accepted ones get synthesized cancelled
  /// completions, the circuit opens and the backoff (re)arms.
  void HandleDisconnect();
  /// Resolves every accepted query still owed a COMPLETED with a
  /// synthesized cancelled completion.
  void CancelAccepted();
  /// Queues every newly enqueued SUBMIT on the connection (or fails it
  /// over when the channel is not usable).
  void PumpForwarding();
  /// Sends PING + STATS when the probe interval elapsed; times out an
  /// unanswered probe (one failure; ejection threshold applies).
  void MaybeProbe();
  void HandleFrame(const net::Frame& frame);
  /// Marks the backend alive: failures reset, circuit closes (from
  /// half-open), health returns to healthy.
  void MarkAlive();
  /// Stores Usable() and runs the OnUsableChanged callback if it flipped.
  void SetUsable(bool usable);
  void SetHealth(BackendHealth health);
  double NextBackoffSeconds();

  BackendAddress address_;
  BackendTuning tuning_;
  int index_;
  FailoverFn on_failover_;
  std::function<void()> on_usable_changed_;
  obs::Telemetry* telemetry_;
  obs::Gauge* health_gauge_ = nullptr;
  obs::Histogram* ready_hist_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;

  // Command side (any thread -> channel thread).
  std::mutex cmd_mu_;
  std::deque<RoutedQuery> incoming_;
  bool stop_requested_ = false;
  WakePipe wake_;

  std::thread thread_;
  std::atomic<bool> started_{false};

  // Channel-thread-owned connection state.
  /// Engaged while connected.
  std::optional<net::Connection> conn_;
  uint64_t next_request_id_ = 1;
  /// SUBMITs on the wire awaiting their verdict, by request_id.
  std::unordered_map<uint64_t, RoutedQuery> awaiting_verdict_;
  /// Accepted queries awaiting COMPLETED, by request_id.
  std::unordered_map<uint64_t, RoutedQuery> awaiting_completion_;
  Rng jitter_rng_;
  double current_backoff_seconds_ = 0.0;
  SteadyClock::time_point next_connect_attempt_{};
  /// Start of the current connection's connect attempt; the PONG that
  /// makes it usable records the gap in ready_hist_.
  SteadyClock::time_point connect_started_{};
  SteadyClock::time_point last_probe_{};
  uint64_t outstanding_ping_id_ = 0;  // 0 = none
  SteadyClock::time_point probe_deadline_{};

  // Shared snapshot (snapshot_mu_) + cheap atomics.
  mutable std::mutex snapshot_mu_;
  BackendSnapshot snapshot_;
  bool stats_injected_ = false;
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<bool> usable_{false};
};

}  // namespace qsched::cluster

#endif  // QSCHED_CLUSTER_BACKEND_CHANNEL_H_
