#ifndef QSCHED_NET_CLIENT_H_
#define QSCHED_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/wire_driver.h"
#include "obs/telemetry.h"
#include "rt/loadgen.h"
#include "workload/query.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::net {

/// Resolves host:port (IPv4) and connects a TCP socket, returning the
/// connected fd in blocking mode with TCP_NODELAY set. With
/// `connect_timeout_seconds > 0` the connect itself is bounded: a dead
/// or blackholed address fails with DeadlineExceeded after the timeout
/// instead of hanging for the kernel's minutes-long default — which is
/// what the cluster layer's backend prober needs to notice a downed
/// backend quickly. `<= 0` keeps the old fully-blocking behavior; +inf
/// waits without bound.
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
  /// Rate pattern, as in rt::LoadGenOptions.
  rt::ArrivalShape shape;
  /// Synthetic client ids are spread over this many ids per connection.
  int num_clients = 16;
  /// TPC-H scale for the OLAP entries' generators.
  double tpch_scale_factor = 0.1;
  /// Class mix; empty = the paper's 1:3 / 2:3 / 3:94 default.
  std::vector<RemoteMixEntry> mix;
  /// Pipelined submission (see WireDriverOptions::pipeline): offered
  /// throughput then scales with the server, not with 1/RTT.
  bool pipeline = false;
  /// Pipeline depth bound per connection.
  int max_outstanding = 128;
};

/// One connection's arrivals for RemoteLoadGenerator, a pure function of
/// (options, connection). With seed = options.seed + 7919 * connection,
/// each arrival draws, in this order: the mix entry (Categorical on
/// Rng(seed, 0x9e3779b97f4a7c15)), its query from the family generator
/// (TPC-H seeded `seed`, TPC-C `seed + 1`), then the Poisson gap to the
/// next arrival (ArrivalShape::NextGap at this arrival's due time, at
/// qps / connections, on the same Rng). The first arrival is due at 0;
/// none is due at or after duration_wall_seconds. Client ids cycle over
/// num_clients ids from connection * num_clients.
class SyntheticSource : public ArrivalSource {
 public:
  SyntheticSource(const RemoteLoadOptions& options, int connection);

  bool Next(double* due_seconds, workload::Query* query) override;

 private:
  RemoteLoadOptions options_;
  int connection_;
  uint64_t seed_;
  std::vector<double> weights_;
  workload::TpchWorkload olap_;
  workload::TpccWorkload oltp_;
  Rng rng_;
  double due_seconds_ = 0.0;
  uint64_t drawn_ = 0;
};

/// Multi-connection remote load generator: SyntheticSource arrivals run
/// on the wire driver (DriveWire), one thread per connection. Every
/// completed query's round trip lands in `qsched_net_rtt_seconds`, live
/// counts in `qsched_net_client_{offered,completed}_total`.
class RemoteLoadGenerator {
 public:
  RemoteLoadGenerator(std::string host, uint16_t port,
                      const RemoteLoadOptions& options,
                      obs::Telemetry* telemetry = nullptr);

  RemoteLoadGenerator(const RemoteLoadGenerator&) = delete;
  RemoteLoadGenerator& operator=(const RemoteLoadGenerator&) = delete;

  /// Runs the full generation + drain phase, blocking. Returns the first
  /// connection-level error or the report.
  Result<LoadReport> Run();

 private:
  RemoteLoadOptions options_;
  WireDriverOptions driver_;
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
