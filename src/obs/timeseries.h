#ifndef QSCHED_OBS_TIMESERIES_H_
#define QSCHED_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/history.h"

namespace qsched::obs {

/// Everything the Scheduling Planner knew about one class during one
/// control interval, plus what it decided.
struct IntervalClassSample {
  int class_id = 0;
  bool is_oltp = false;
  /// SLO: velocity floor (OLAP) or response ceiling seconds (OLTP).
  double goal = 0.0;
  /// Raw interval measurement (-1 when no completion landed).
  double measured_raw = -1.0;
  /// Accepted (EWMA-smoothed) measurement the solver saw: velocity
  /// (OLAP) or response seconds (OLTP).
  double measured = 0.0;
  /// measured relative to the SLO; >= 1 means the goal is met.
  double goal_ratio = 0.0;
  int completed_in_interval = 0;
  int queue_depth = 0;
  /// Queries running in the engine right now, and their cost (timerons).
  int running = 0;
  double admitted_cost = 0.0;
  /// Workload-detector view.
  double arrival_rate = 0.0;
  double predicted_rate = 0.0;
  bool change_detected = false;
  /// Solver's optimal limit vs. the rate-limited cost limit (timerons)
  /// actually handed to the Dispatcher.
  double target_limit = 0.0;
  double cost_limit = 0.0;
  /// Mean wall-clock per-stage latency of this interval's completions
  /// (real-time runtime only — all 0 in pure DES runs, where queries
  /// carry no stage trace).
  double stage_gateway_queue_seconds = 0.0;
  double stage_dispatch_seconds = 0.0;
  double stage_execute_seconds = 0.0;
};

/// One record per Scheduling Planner cycle: the measurement inputs and
/// the plan outputs, so every control decision can be traced back to
/// what the Performance Solver saw. The audit JSONL, the CSV, the charts
/// and /statusz all read it. Plain data, one vector per row.
struct IntervalRow {
  uint64_t interval = 0;
  double sim_time = 0.0;
  double system_cost_limit = 0.0;
  /// OLTP class response fed to the regression model (-1 when unknown).
  double oltp_response = -1.0;
  /// Host wall-clock seconds the Performance Solver spent this cycle —
  /// the only host-dependent column.
  double solver_wall_seconds = 0.0;
  double solver_utility = 0.0;
  /// "utility-search" or "greedy-auction".
  std::string allocator;
  std::vector<IntervalClassSample> classes;
};

/// Single-line JSON encoding of one row (no trailing newline): the
/// planner audit line. It leaves out the host-dependent
/// solver_wall_seconds and the stage means, so a DES run's audit output
/// is reproducible byte for byte.
std::string ToJson(const IntervalRow& row);

/// Parses a line produced by ToJson. Returns false on malformed input.
/// This is a minimal reader for the emitter's own output (round-trip
/// tests, output validation), not a general JSON parser.
bool ParseIntervalRow(const std::string& json, IntervalRow* out);

/// Bounded per-interval table (drop-oldest with a counter) with JSONL
/// and CSV export. Append and the readers are thread-safe so parallel
/// harness code can share one recorder.
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(size_t capacity = kFullHistoryIntervals);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  void Append(IntervalRow row);

  /// Changes the capacity; rows beyond it go oldest first and count as
  /// dropped.
  void set_capacity(size_t capacity);

  size_t size() const;
  uint64_t dropped() const;
  /// Copy of every retained row, oldest first.
  std::vector<IntervalRow> Rows() const;

  /// One ToJson line per row: the planner audit trail.
  void WriteJsonl(std::ostream& out) const;
  /// Long-format CSV: one line per (interval, class) pair under a fixed
  /// header, interval-level columns repeated on each class line.
  void WriteCsv(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<IntervalRow> rows_;
  uint64_t dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_TIMESERIES_H_
