#ifndef QSCHED_SCHEDULER_SNAPSHOT_MONITOR_H_
#define QSCHED_SCHEDULER_SNAPSHOT_MONITOR_H_

#include <unordered_map>

#include "engine/execution_engine.h"
#include "obs/telemetry.h"
#include "sim/clock.h"
#include "workload/client.h"

namespace qsched::sched {

/// The paper's OLTP monitoring path (Section 3.3): with Query Patroller
/// turned off for OLTP, the only information source is the DB2 snapshot
/// monitor, which records the execution time of the *most recently
/// finished* query per client. Taking a snapshot at a fixed interval and
/// averaging across clients estimates the OLTP class's average response
/// time. Each snapshot costs CPU proportional to the number of clients —
/// the paper's reason the interval "must not be too small".
class SnapshotMonitor {
 public:
  struct Options {
    double sample_interval_seconds = 10.0;
    /// CPU billed to the engine per client row read by one snapshot.
    double per_client_cpu_seconds = 0.0005;
    /// Rows not refreshed within this window are treated as disconnected
    /// clients and skipped — otherwise clients retired by a workload
    /// shift would freeze their last (typically busy-period) response
    /// into every future snapshot.
    double staleness_window_seconds = 30.0;
  };

  SnapshotMonitor(sim::Clock* simulator,
                  engine::ExecutionEngine* engine, const Options& options);

  SnapshotMonitor(const SnapshotMonitor&) = delete;
  SnapshotMonitor& operator=(const SnapshotMonitor&) = delete;

  /// Begins periodic sampling until `until` (model seconds; infinity
  /// samples until the clock stops). One sampler timer is pending at a
  /// time, whatever the horizon.
  void Start(sim::SimTime until);

  /// Engine-side bookkeeping: every finished OLTP query overwrites its
  /// client's "last finished" row.
  void RecordCompletion(const workload::QueryRecord& record);

  /// Mean of the per-client response samples collected since the previous
  /// harvest; falls back to the most recent known average (or
  /// `fallback`) when no snapshot fired or no client had data.
  double HarvestAvgResponse(double fallback);

  uint64_t snapshots_taken() const { return snapshots_taken_; }
  double total_overhead_cpu_seconds() const {
    return total_overhead_cpu_seconds_;
  }

  /// Enables telemetry (nullptr = off): snapshot counter, sampled-client
  /// gauge and a histogram of per-snapshot average responses.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  void TakeSnapshot();

  sim::Clock* simulator_;
  engine::ExecutionEngine* engine_;
  Options options_;
  struct ClientRow {
    double response_seconds = 0.0;
    sim::SimTime updated_at = 0.0;
  };

  /// client id -> most recently finished query (with freshness stamp).
  std::unordered_map<int, ClientRow> last_response_;
  double sample_sum_ = 0.0;
  int sample_count_ = 0;
  double last_known_avg_ = -1.0;
  uint64_t snapshots_taken_ = 0;
  double total_overhead_cpu_seconds_ = 0.0;

  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* snapshots_counter_ = nullptr;
  obs::Gauge* sampled_clients_gauge_ = nullptr;
  obs::Histogram* avg_response_hist_ = nullptr;
};

}  // namespace qsched::sched

#endif  // QSCHED_SCHEDULER_SNAPSHOT_MONITOR_H_
