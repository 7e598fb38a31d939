#ifndef QSCHED_NET_SERVER_H_
#define QSCHED_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/wake_pipe.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"

namespace qsched::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available via port() after Start().
  uint16_t port = 0;
  /// Connections beyond this (across all reactors) are accepted and
  /// immediately closed.
  int max_connections = 64;
  /// Reactor threads multiplexing connections. 0 = auto:
  /// min(4, hardware_concurrency).
  int reactors = 0;
  /// Decoder payload ceiling (bytes) for inbound frames.
  size_t max_frame_payload = kMaxPayloadBytes;
  /// How long Stop() waits for in-flight queries to complete and their
  /// COMPLETED frames to flush before force-closing.
  double stop_drain_timeout_seconds = 30.0;
};

/// TCP front-end of the real-time runtime: N reactor threads multiplex
/// client connections with poll(), decode length-prefixed frames
/// (net/frame.h), and feed SUBMITs into a QueryService — normally the
/// local rt::Gateway (GatewayService), or a cluster Router fanning out
/// to remote backends. Admission verdicts go back as soon as the
/// service knows them (ACCEPTED, or REJECTED{reason} — a full queue or
/// a dead backend is never a silent drop), and each query's COMPLETED
/// frame is routed to the connection that submitted it via the
/// service's per-query completion hook.
///
/// A service may defer a verdict (SubmitDisposition::kDeferred — the
/// router waiting on a backend round-trip). The wire contract that
/// verdicts surface in per-connection submission order still holds: a
/// resolved verdict for a younger SUBMIT is parked until every older
/// SUBMIT's verdict has been sent, and a COMPLETED whose verdict frame
/// has not gone out yet is parked behind it the same way. On the
/// direct gateway path verdicts are synchronous, nothing is ever
/// parked, and the fast path is byte-for-byte the pre-cluster one.
///
/// Threading model (see DESIGN.md §8-§9). Connections are sharded across
/// reactors: reactor 0 owns the listening socket and hands each accepted
/// fd round-robin to a reactor over that reactor's hand-off queue +
/// wakeup pipe; from then on, exactly one reactor thread owns the
/// connection object and all its socket I/O — reactors share no
/// connection state, so they never lock against each other on the data
/// path. Each connection's bytes go through a net::Connection: every
/// complete frame of a read is handled before the next poll(), and
/// queued responses leave in one gathered sendmsg(), so one syscall can
/// carry many COMPLETED frames.
///
/// Completion callbacks fire on the runtime's clock thread, under the
/// core lock — they must not touch sockets, so they post {connection,
/// request_id, outcome} records to the owning reactor's mutex-guarded
/// completion mailbox and tickle that reactor through its wakeup pipe;
/// the reactor drains the mailbox and writes the frames. Each mailbox is
/// shared via shared_ptr with every pending callback, so a completion
/// that outlives Stop() lands in a closed mailbox instead of freed
/// memory.
///
/// Shutdown is drain-then-close: Stop() ends accepting, rejects new
/// SUBMITs (REJECTED{SHUTTING_DOWN}), waits until every reactor's
/// in-flight queries have completed and every outbound byte has flushed,
/// then closes all connections. A client that got ACCEPTED therefore
/// gets its COMPLETED even when Stop() races its submission.
///
/// Protocol errors (malformed / truncated / oversized / bad-version
/// frames) never crash the server: the offender gets an ERROR frame with
/// the specific code and its connection is closed; other connections —
/// on the same reactor or any other — are unaffected.
class Server {
 public:
  /// Direct-path convenience: serves a local rt::Gateway (started),
  /// which — like `telemetry` (optional) — must outlive the server. The
  /// runtime that owns the gateway must stay up until Stop() returns,
  /// so completions can drain.
  Server(rt::Gateway* gateway, const ServerOptions& options,
         obs::Telemetry* telemetry = nullptr);

  /// Generic front: serves any QueryService (must outlive the server,
  /// and keep honoring its exactly-once callback contract until Stop()
  /// returns).
  Server(QueryService* service, const ServerOptions& options,
         obs::Telemetry* telemetry = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the reactor threads.
  Status Start();

  /// The actually-bound port (after Start(); 0 before).
  uint16_t port() const { return port_; }

  /// The resolved reactor count (never 0).
  int reactors() const { return num_reactors_; }

  /// Graceful drain-then-close (see class comment). Idempotent.
  void Stop();

  // Accounting (safe from any thread).
  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t connections_refused() const { return connections_refused_; }
  size_t active_connections() const { return active_connections_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t protocol_errors() const { return protocol_errors_; }
  uint64_t submits_accepted() const { return submits_accepted_; }
  uint64_t submits_rejected() const { return submits_rejected_; }
  uint64_t completions_delivered() const { return completions_delivered_; }
  /// Completions whose connection was already gone (client disconnected
  /// with queries in flight); the queries still ran and are accounted by
  /// the gateway.
  uint64_t completions_dropped() const { return completions_dropped_; }

 private:
  /// One finished query on its way back to a connection. Posted by the
  /// service's completion callback (clock thread or a cluster channel
  /// thread), consumed by the owning reactor.
  struct PendingCompletion {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point submitted_wall;
    ServiceCompletion payload;
  };

  /// A deferred admission verdict on its way back to a connection.
  struct PendingVerdict {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    bool accepted = false;
    rt::RejectReason reason = rt::RejectReason::kQueueFull;
  };

  /// A reactor's mailbox, shared with in-flight callbacks (see class
  /// comment). `wake` is that reactor's wakeup pipe; null once closed.
  /// Verdicts and completions share the mutex, so posting order (a
  /// service fires the verdict strictly before the completion) is
  /// preserved across the swap in DrainMailbox.
  struct Mailbox {
    std::mutex mu;
    std::vector<PendingCompletion> items;
    std::vector<PendingVerdict> verdicts;
    const WakePipe* wake = nullptr;
    bool closed = false;

    void Post(PendingCompletion completion);
    void PostVerdict(PendingVerdict verdict);
  };

  /// Per-connection protocol state around the framed byte stream.
  struct Session {
    Session(int fd, size_t max_payload) : io(fd, max_payload) {}

    Connection io;
    uint64_t in_flight = 0;
    /// Wire version negotiated per connection: every reply is encoded in
    /// the version of the last frame the peer sent. Starts at v1 (the
    /// safe choice — every decoder accepts v1) until the first frame
    /// arrives.
    uint8_t version = kMinProtocolVersion;
    /// DRAIN received: no more SUBMITs; DRAINED + close once idle.
    bool draining = false;
    uint64_t drain_request_id = 0;
    /// Flush the outbound queue, then close (protocol error or completed
    /// drain).
    bool closing = false;
    /// Input is done (peer EOF or error); stop polling POLLIN.
    bool input_done = false;
    /// Deferred-verdict ordering (empty on the direct gateway path).
    /// request_ids whose verdict frame has not been sent yet, in
    /// submission order; verdicts that resolved out of order wait in
    /// `verdicts_ready`, and completions that beat their own verdict
    /// frame wait in `held_completions`, keyed the same way.
    std::deque<uint64_t> verdict_order;
    std::map<uint64_t, std::pair<bool, rt::RejectReason>> verdicts_ready;
    std::map<uint64_t, PendingCompletion> held_completions;
  };

  /// One reactor shard. Everything below the hand-off queue is owned by
  /// the reactor's own thread; only sizes/counters leak out through the
  /// server-level atomics.
  struct Reactor {
    int index = 0;
    WakePipe wake;
    std::shared_ptr<Mailbox> mailbox;
    std::thread thread;

    /// Accepted fds (paired with their conn ids) parked by reactor 0
    /// until this reactor adopts them.
    std::mutex handoff_mu;
    std::vector<std::pair<uint64_t, int>> handoff;

    // Reactor-thread-owned.
    std::map<uint64_t, Session> conns;
    std::map<int, obs::Histogram*> flush_stage_hists;
  };

  void ReactorLoop(Reactor* reactor);
  /// Accepts new connections (reactor 0 only) and deals them round-robin
  /// to all reactors.
  void AcceptNew(Reactor* reactor);
  /// Registers fds parked in the reactor's hand-off queue.
  void AdoptHandoff(Reactor* reactor);
  void ReadFromConnection(Reactor* reactor, uint64_t conn_id);
  /// Returns false when the connection errored and should stop reading.
  bool HandleFrame(Reactor* reactor, uint64_t conn_id, const Frame& frame);
  void DrainMailbox(Reactor* reactor);
  /// Sends the verdict frame for one SUBMIT and does its accounting
  /// (counter bumps, in_flight on accept).
  void EmitVerdict(Session* conn, uint64_t request_id, bool accepted,
                   rt::RejectReason reason);
  /// Releases every in-order verdict that has resolved, and any held
  /// completion riding right behind its verdict frame.
  void ReleaseReadyVerdicts(Reactor* reactor, uint64_t conn_id);
  /// Sends one COMPLETED frame and does its accounting.
  void DeliverCompletion(Reactor* reactor, Session* conn,
                         const PendingCompletion& completion);
  /// Per-class qsched_stage_seconds{stage="flush"} histogram (owning
  /// reactor thread only).
  obs::Histogram* FlushStageHistogram(Reactor* reactor, int class_id);
  /// Stamps the connection's negotiated version on the frame, queues it
  /// and counts it.
  void SendFrame(Session* conn, Frame frame);
  void CloseConnection(Reactor* reactor, uint64_t conn_id);
  void MaybeFinishDrain(Reactor* reactor, uint64_t conn_id);
  /// Tickles every reactor's wakeup pipe.
  void WakeupAll();

  QueryService* service_;
  /// Backing GatewayService when constructed from a bare gateway.
  std::unique_ptr<GatewayService> owned_service_;
  ServerOptions options_;
  obs::Telemetry* telemetry_;
  int num_reactors_ = 1;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Round-robin accept cursor (reactor 0 only).
  size_t next_reactor_ = 0;

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool started_ = false;
  bool stopped_ = false;
  size_t reactors_done_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> force_stop_{false};

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> submits_accepted_{0};
  std::atomic<uint64_t> submits_rejected_{0};
  std::atomic<uint64_t> completions_delivered_{0};
  std::atomic<uint64_t> completions_dropped_{0};

  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* connections_counter_ = nullptr;
  obs::Counter* frames_in_counter_ = nullptr;
  obs::Counter* frames_out_counter_ = nullptr;
  obs::Counter* protocol_errors_counter_ = nullptr;
  obs::Counter* submit_accepted_counter_ = nullptr;
  obs::Counter* submit_rejected_full_counter_ = nullptr;
  obs::Counter* submit_rejected_shutdown_counter_ = nullptr;
  obs::Counter* submit_rejected_unavailable_counter_ = nullptr;
  obs::Counter* completions_dropped_counter_ = nullptr;
  obs::Histogram* turnaround_hist_ = nullptr;
};

}  // namespace qsched::net

#endif  // QSCHED_NET_SERVER_H_
