#ifndef QSCHED_REPLAY_REPLAYER_H_
#define QSCHED_REPLAY_REPLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire_driver.h"
#include "obs/telemetry.h"
#include "replay/template_codec.h"
#include "replay/trace_format.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::replay {

struct ReplayOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Playback speed multiplier over the recorded inter-arrival gaps:
  /// 2.0 replays in half the original wall time.
  double speed = 1.0;
  /// Connections the trace is partitioned over (record i goes to
  /// connection i % connections), each with its own thread and pipelined
  /// net::Client.
  int connections = 1;
  /// Pipeline depth bound per connection; submission backpressures above
  /// it rather than racing ahead of the recorded schedule unboundedly.
  int max_outstanding = 256;
  /// Seed for regenerating the queries' resource demands from their
  /// captured template ids.
  uint64_t seed = 42;
  workload::TpchWorkloadParams tpch;
  workload::TpccWorkloadParams tpcc;
};

/// The records of `trace` in arrival order (a stable sort, skipped when
/// the trace is already sorted).
std::vector<const TraceRecord*> ArrivalOrder(const TraceReadResult& trace);

/// One connection's share of a trace: the records of rank `connection`,
/// `connection + connections`, ... in `order`, each due at its recorded
/// offset from the first arrival divided by `speed`, and materialized by
/// its own TemplateCodec seeded `seed + connection`.
class TraceSource : public net::ArrivalSource {
 public:
  TraceSource(const std::vector<const TraceRecord*>& order, int connection,
              const ReplayOptions& options);

  bool Next(double* due_seconds, workload::Query* query) override;

 private:
  const std::vector<const TraceRecord*>& order_;
  size_t rank_;
  size_t stride_;
  double speed_;
  int connection_;
  TemplateCodec codec_;
};

/// Plays a captured trace against a live endpoint on the wire driver
/// (net::DriveWire), pipelined, preserving the recorded inter-arrival
/// gaps scaled by `speed`, then drains and reconciles completions
/// client-side. The round trip of every completion lands in
/// `qsched_replay_rtt_seconds`; offered and completed counts in
/// `qsched_replay_offered_total` and `qsched_replay_completed_total`.
class Replayer {
 public:
  Replayer(const TraceReadResult& trace, const ReplayOptions& options,
           obs::Telemetry* telemetry = nullptr);

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Runs the replay, blocking. Returns the first connection-level error
  /// or the report; per-query rejections are not errors.
  Result<net::LoadReport> Run();

 private:
  const TraceReadResult& trace_;
  ReplayOptions options_;
  net::WireDriverOptions driver_;
};

}  // namespace qsched::replay

#endif  // QSCHED_REPLAY_REPLAYER_H_
