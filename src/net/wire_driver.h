#ifndef QSCHED_NET_WIRE_DRIVER_H_
#define QSCHED_NET_WIRE_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "obs/telemetry.h"
#include "workload/query.h"

namespace qsched::net {

/// What one wire load run did, summed over its connections. Conservation:
/// offered == accepted + rejected, every accepted query completed exactly
/// once, nothing lost or unmatched.
struct LoadReport {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_shutting_down = 0;
  /// REJECTED{BACKEND_UNAVAILABLE}: only a cluster router emits these.
  uint64_t rejected_backend_unavailable = 0;
  uint64_t completed = 0;
  /// Accepted queries that never got a COMPLETED.
  uint64_t lost = 0;
  /// Completions that matched no outstanding accepted request.
  uint64_t unmatched = 0;
  /// Wall seconds of the paced feed phase and of the trailing drain,
  /// maxed over connections. Sustained throughput is offered / feed; the
  /// drain tail (waiting out the last executions) is not offered load.
  double feed_seconds = 0.0;
  double drain_seconds = 0.0;
  /// Mean lag between an arrival's due time and its actual send
  /// (positive = behind schedule), a pacing-fidelity measure.
  double mean_lag_seconds = 0.0;

  uint64_t rejected() const {
    return rejected_queue_full + rejected_shutting_down +
           rejected_backend_unavailable;
  }
  bool conserved() const {
    return offered == accepted + rejected() && completed == accepted &&
           lost == 0 && unmatched == 0;
  }
};

/// One connection's arrivals, in due order.
class ArrivalSource {
 public:
  ArrivalSource() = default;
  virtual ~ArrivalSource() = default;
  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;

  /// Yields the next arrival: its due time in wall seconds after the
  /// connection's start (non-decreasing) and its query. False once
  /// exhausted.
  virtual bool Next(double* due_seconds, workload::Query* query) = 0;
};

struct WireDriverOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 1;
  /// Pipelined: every due arrival is queued and the burst goes out in
  /// one send, verdicts are collected as they come back. Blocking: each
  /// send waits for its own verdict (as Client::Submit does), so a
  /// connection offers at most one query per round trip.
  bool pipeline = true;
  /// Pipelined depth bound per connection (accepted-but-not-completed
  /// plus verdicts in flight, at least 1); submission backpressures
  /// above it instead of queueing client-side.
  int max_outstanding = 128;
  /// Wall seconds after the start past which no further arrival is sent
  /// (<= 0: none). A fixed-length run cuts off the backlog an overloaded
  /// server leaves behind, instead of sending it late.
  double feed_deadline_seconds = 0.0;
  /// Optional caller-owned instruments: each completed query's round
  /// trip (submit to COMPLETED, wall seconds), and live offered and
  /// completed counts.
  obs::Histogram* rtt = nullptr;
  obs::Counter* offered = nullptr;
  obs::Counter* completed = nullptr;
};

/// Builds connection `index`'s arrival source; called on that
/// connection's thread.
using SourceFactory =
    std::function<std::unique_ptr<ArrivalSource>(int index)>;

/// The one client-side wire load loop. Opens `options.connections`
/// connections, each on its own thread with its own source. Each paces
/// every arrival to its due time (a late one goes out at once, never
/// re-based), bounds its pipeline depth, absorbs verdicts and
/// completions while waiting, then resolves every owed verdict, DRAINs
/// and reconciles its completions. Returns the first connection-level
/// error, else the summed report; per-query rejections are not errors.
Result<LoadReport> DriveWire(const WireDriverOptions& options,
                             const SourceFactory& make_source);

}  // namespace qsched::net

#endif  // QSCHED_NET_WIRE_DRIVER_H_
