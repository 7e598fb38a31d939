#ifndef QSCHED_SCHEDULER_MONITOR_H_
#define QSCHED_SCHEDULER_MONITOR_H_

#include <map>
#include <mutex>

#include "metrics/class_outcome.h"
#include "obs/telemetry.h"
#include "sim/clock.h"
#include "workload/client.h"

namespace qsched::sched {

/// Aggregates of the queries of one class that finished during one
/// control interval.
struct ClassIntervalStats {
  metrics::ClassOutcome outcome;
  double throughput_per_second = 0.0;
  /// Mean wall-clock stage durations over the completions that carried a
  /// QueryStageTrace (the real-time runtime attaches one per query; pure
  /// DES runs leave all three 0). "Execute" here is measured up to the
  /// moment the record reached the monitor, a few microseconds before
  /// the gateway stamps the trace complete.
  double mean_stage_gateway_queue_seconds = 0.0;
  double mean_stage_dispatch_seconds = 0.0;
  double mean_stage_execute_seconds = 0.0;
};

/// The paper's Monitor: collects query information (here: completion
/// records carrying the control-table facts) and turns it into per-class
/// per-interval performance measurements for the Scheduling Planner.
///
/// Thread-safety contract: AddRecord, Harvest and records_total take an
/// internal mutex, so completion records may be fed from concurrent
/// threads (the rt runtime's clock thread and gateway workers) while the
/// planner timer harvests. Harvest atomically snapshots-and-resets
/// the accumulators: a record lands either in this interval or the next,
/// never both and never lost. set_telemetry is not synchronized — call
/// it before any concurrent use, like the other components.
class Monitor {
 public:
  explicit Monitor(sim::Clock* simulator);

  /// Feed one finished query. Safe to call from any thread.
  void AddRecord(const workload::QueryRecord& record);

  /// Returns the aggregates accumulated since the previous Harvest and
  /// resets the accumulators. Safe to call concurrently with AddRecord.
  std::map<int, ClassIntervalStats> Harvest();

  uint64_t records_total() const;

  /// Enables telemetry (nullptr = off): a record counter plus a per-class
  /// velocity histogram of everything fed to the planner.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  obs::Histogram* VelocityHistogram(int class_id);

  struct Accumulator {
    metrics::ClassOutcome outcome;
    /// Completions that carried a stage trace, and their stage sums.
    int traced = 0;
    double stage_gateway_queue_sum = 0.0;
    double stage_dispatch_sum = 0.0;
    double stage_execute_sum = 0.0;
  };

  sim::Clock* simulator_;
  /// Guards acc_, window_start_, records_total_ and velocity_hists_.
  mutable std::mutex mu_;
  std::map<int, Accumulator> acc_;
  sim::SimTime window_start_ = 0.0;
  uint64_t records_total_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  std::map<int, obs::Histogram*> velocity_hists_;
};

}  // namespace qsched::sched

#endif  // QSCHED_SCHEDULER_MONITOR_H_
