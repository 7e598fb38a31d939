#ifndef QSCHED_NET_CLIENT_H_
#define QSCHED_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/connection.h"
#include "net/frame.h"
#include "obs/telemetry.h"
#include "rt/loadgen.h"
#include "workload/query.h"

namespace qsched::net {

/// Resolves host:port (IPv4) and connects a TCP socket, returning the
/// connected fd in blocking mode with TCP_NODELAY set. With
/// `connect_timeout_seconds > 0` the connect itself is bounded: a dead
/// or blackholed address fails with DeadlineExceeded after the timeout
/// instead of hanging for the kernel's minutes-long default — which is
/// what the cluster layer's backend prober needs to notice a downed
/// backend quickly. `<= 0` keeps the old fully-blocking behavior.
Result<int> ConnectFd(const std::string& host, uint16_t port,
                      double connect_timeout_seconds = 0.0);

/// One finished query as seen by a client. The trace fields are filled
/// when the server attached the v2 per-stage breakdown (has_trace);
/// otherwise they stay 0.
struct ClientCompletion {
  uint64_t request_id = 0;
  int32_t class_id = 0;
  double response_seconds = 0.0;
  double exec_seconds = 0.0;
  bool cancelled = false;
  bool has_trace = false;
  uint64_t trace_id = 0;
  double stage_gateway_queue_seconds = 0.0;
  double stage_dispatch_seconds = 0.0;
  double stage_execute_seconds = 0.0;

  /// Sum of the three wire stages — equals the server-side wall-clock
  /// end-to-end latency (gateway enqueue to completion callback).
  double StageTotalSeconds() const {
    return stage_gateway_queue_seconds + stage_dispatch_seconds +
           stage_execute_seconds;
  }
};

/// Client for the wire protocol: one net::Connection, one owning thread
/// (the class is not thread-safe). Every blocking call is the same wait
/// loop over the connection: Submit() is SubmitNoWait() + Flush() + wait
/// for that SUBMIT's verdict; COMPLETED frames and older pipelined
/// verdicts arriving meanwhile are buffered and handed out by
/// NextCompletion()/PollCompletion() and PopVerdict()/NextVerdict().
class Client {
 public:
  /// Connects to host:port. `connect_timeout_seconds` as in ConnectFd:
  /// > 0 bounds the TCP connect, <= 0 (default) blocks indefinitely.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port,
      double connect_timeout_seconds = 0.0);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct SubmitResult {
    bool accepted = false;
    rt::RejectReason reject_reason = rt::RejectReason::kQueueFull;
    uint64_t request_id = 0;
  };

  /// Sends SUBMIT and blocks until the ACCEPTED / REJECTED verdict for
  /// it arrives (completions of earlier queries are buffered en route).
  Result<SubmitResult> Submit(const workload::Query& query);

  /// Pipelined submission: encodes SUBMIT into the client's output
  /// buffer (no syscall, no waiting) and returns its request_id. Call
  /// Flush() to put the queued bytes on the wire — one send() can carry
  /// many SUBMITs — and PopVerdict()/NextVerdict() to collect the
  /// verdicts, which the server returns in submission order. This is
  /// what decouples offered throughput from the per-query round-trip:
  /// a blocking Submit() caps a connection at 1/RTT queries per second,
  /// a pipelined connection at the server's processing rate.
  Result<uint64_t> SubmitNoWait(const workload::Query& query);

  /// Sends everything queued by SubmitNoWait. No-op when empty.
  Status Flush();

  /// Non-blocking: pops the next pipelined verdict if one has been
  /// received. Verdicts surface in submission order.
  bool PopVerdict(SubmitResult* out);

  /// Blocking variant: flushes, then reads until the next pipelined
  /// verdict arrives (completions en route are buffered). Fails when no
  /// SubmitNoWait is awaiting a verdict.
  Result<SubmitResult> NextVerdict();

  /// Next completion: from the buffer, else blocks reading the socket.
  Result<ClientCompletion> NextCompletion();

  /// Non-blocking-ish variant: waits at most `timeout_seconds` for a
  /// completion to become available. ok() with found=false on timeout.
  struct PolledCompletion {
    bool found = false;
    ClientCompletion completion;
  };
  Result<PolledCompletion> PollCompletion(double timeout_seconds);

  /// PING round-trip.
  Status Ping();

  /// STATS round-trip.
  Result<WireStats> Stats();

  /// Sends DRAIN and blocks until the server's DRAINED, buffering every
  /// COMPLETED that precedes it; after this the server closes the
  /// connection and submissions fail. Buffered completions remain
  /// readable via PollCompletion/NextCompletion (which no longer block).
  Status Drain();

  /// Accepted-but-not-yet-completed queries on this connection.
  size_t outstanding() const { return outstanding_; }
  /// Completions received and buffered but not yet handed out.
  size_t buffered_completions() const { return completions_.size(); }
  /// Pipelined submits whose verdict has not been handed out yet
  /// (awaiting wire + buffered).
  size_t verdicts_pending() const {
    return awaiting_verdict_.size() + verdicts_.size();
  }

  /// Whether SUBMITs ask the server for the per-stage trace context in
  /// COMPLETED frames (on by default; it costs 33 bytes per completion).
  void set_want_trace(bool want) { want_trace_ = want; }

 private:
  explicit Client(int fd) : conn_(fd) {}

  /// Routes one inbound frame: COMPLETED to the completion buffer, a
  /// verdict to the pipelined-verdict buffer, the reply RoundTrip()
  /// awaits to reply_. ERROR and anything unexpected fail.
  Status AbsorbFrame(const Frame& frame);
  /// The one wait loop: flushes queued bytes and absorbs inbound frames
  /// until `done()` holds or `timeout_seconds` pass (< 0 = no limit).
  /// A timeout is OK too; callers re-check their own condition.
  Status WaitUntil(const std::function<bool()>& done,
                   double timeout_seconds);
  /// Sends a header-only request and waits for its `reply_type` reply.
  Result<Frame> RoundTrip(FrameType type, FrameType reply_type);

  Connection conn_;
  bool drained_ = false;
  bool want_trace_ = true;
  uint64_t next_request_id_ = 1;
  size_t outstanding_ = 0;
  std::deque<ClientCompletion> completions_;
  /// request_ids of SUBMITs whose verdict is still on the wire (FIFO —
  /// the server answers in submission order).
  std::deque<uint64_t> awaiting_verdict_;
  /// Verdicts received but not yet popped.
  std::deque<SubmitResult> verdicts_;
  /// The reply RoundTrip() is waiting for (reply_id_ 0 = none); set in
  /// reply_ once it arrived.
  FrameType reply_type_ = FrameType::kPong;
  uint64_t reply_id_ = 0;
  std::optional<Frame> reply_;
};

/// Mix entry for the remote load generator: a service class, its weight
/// in the draw, and which generator family feeds it.
struct RemoteMixEntry {
  int class_id = 0;
  double weight = 1.0;
  workload::WorkloadType type = workload::WorkloadType::kOlap;
};

struct RemoteLoadOptions {
  int connections = 4;
  /// Total offered rate across all connections (queries/wall second).
  double qps = 1000.0;
  double duration_wall_seconds = 2.0;
  uint64_t seed = 42;
  rt::ArrivalPattern pattern = rt::ArrivalPattern::kConstant;
  /// Pattern shape knobs, as in rt::LoadGenOptions.
  double burst_period_seconds = 0.5;
  double burst_duty = 0.3;
  double burst_factor = 4.0;
  double diurnal_period_seconds = 2.0;
  double diurnal_amplitude = 0.8;
  /// Synthetic client ids are spread over this many ids per connection.
  int num_clients = 16;
  /// TPC-H scale for the OLAP entries' generators.
  double tpch_scale_factor = 0.1;
  /// Class mix; empty = the paper's 1:3 / 2:3 / 3:94 default.
  std::vector<RemoteMixEntry> mix;
  /// Pipelined submission: queue SUBMITs via SubmitNoWait and batch
  /// them onto the wire instead of blocking for each verdict. Offered
  /// throughput then scales with the server, not with 1/RTT.
  bool pipeline = false;
  /// Pipeline depth bound per connection (accepted-but-not-completed +
  /// verdicts in flight); submission backpressures above it.
  int max_outstanding = 128;
};

/// Multi-connection remote load generator: each connection gets its own
/// thread, generators (seeded seed + index) and open-loop Poisson
/// arrival process at qps/connections; at the end every connection
/// DRAINs and reconciles its completions. The on-wire round-trip of
/// every completed query (submit to COMPLETED arrival, wall seconds)
/// lands in the `qsched_net_rtt_seconds` histogram.
class RemoteLoadGenerator {
 public:
  RemoteLoadGenerator(std::string host, uint16_t port,
                      const RemoteLoadOptions& options,
                      obs::Telemetry* telemetry = nullptr);

  RemoteLoadGenerator(const RemoteLoadGenerator&) = delete;
  RemoteLoadGenerator& operator=(const RemoteLoadGenerator&) = delete;

  /// Runs the full generation + drain phase, blocking. Returns the first
  /// connection-level error, or OK; per-query rejections are not errors.
  Status Run();

  // Totals across connections (valid after Run; atomics, so mid-run
  // reads from another thread see a consistent monotonic view).
  uint64_t offered() const { return offered_; }
  uint64_t accepted() const { return accepted_; }
  uint64_t rejected_queue_full() const { return rejected_queue_full_; }
  uint64_t rejected_shutting_down() const {
    return rejected_shutting_down_;
  }
  /// REJECTED{BACKEND_UNAVAILABLE} verdicts — only a cluster router
  /// emits these; a direct backend always stays 0.
  uint64_t rejected_backend_unavailable() const {
    return rejected_backend_unavailable_;
  }
  uint64_t completed() const { return completed_; }
  /// Completions that did not match an outstanding accepted request
  /// (duplicates or unknown ids) — must stay 0.
  uint64_t unmatched_completions() const { return unmatched_; }
  /// Accepted queries that never got a COMPLETED — must end 0.
  uint64_t lost_completions() const { return lost_; }

  /// Wall seconds of the arrival (feed) phase and of the trailing drain
  /// phase, maxed over connections. Valid after Run(). Sustained
  /// throughput is offered()/feed_seconds() — the drain tail (waiting
  /// out the last OLAP executions) is not offered load and is reported
  /// separately.
  double feed_seconds() const;
  double drain_seconds() const;

 private:
  Status RunConnection(int index);

  std::string host_;
  uint16_t port_;
  RemoteLoadOptions options_;
  obs::Telemetry* telemetry_;

  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_shutting_down_{0};
  std::atomic<uint64_t> rejected_backend_unavailable_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> unmatched_{0};
  std::atomic<uint64_t> lost_{0};

  mutable std::mutex phase_mu_;
  double feed_seconds_ = 0.0;
  double drain_seconds_ = 0.0;

  obs::Histogram* rtt_hist_ = nullptr;
  obs::Counter* offered_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
};

/// Adversarial probe for the protocol-hardening acceptance criterion:
/// opens a connection and sends `count` deliberately broken frames
/// (truncated bodies, bad versions, unknown types, oversized lengths,
/// random garbage — seeded by `seed`), expecting the server to answer
/// with an ERROR frame and close, never crash. Returns OK when the
/// server survived (responded and/or closed); Internal when the
/// connection behaved unexpectedly.
Status InjectMalformedFrames(const std::string& host, uint16_t port,
                             int count, uint64_t seed);

}  // namespace qsched::net

#endif  // QSCHED_NET_CLIENT_H_
