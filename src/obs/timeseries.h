#ifndef QSCHED_OBS_TIMESERIES_H_
#define QSCHED_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/history.h"

namespace qsched::obs {

/// Per-class columns of one control-interval sample.
struct IntervalClassSample {
  int class_id = 0;
  bool is_oltp = false;
  /// Cost limit the Dispatcher enforces this interval (timerons).
  double cost_limit = 0.0;
  /// Accepted measurement: velocity (OLAP) or response seconds (OLTP).
  double measured = 0.0;
  /// measured relative to the SLO; >= 1 means the goal is met.
  double goal_ratio = 0.0;
  int queue_depth = 0;
  /// Cost (timerons) of queries running in the engine right now.
  double admitted_cost = 0.0;
  int completed_in_interval = 0;
  /// Mean wall-clock per-stage latency of this interval's completions
  /// (real-time runtime only — all 0 in pure DES runs, where queries
  /// carry no stage trace). Appended after the original columns so CSV
  /// consumers keyed on column order keep working.
  double stage_gateway_queue_seconds = 0.0;
  double stage_dispatch_seconds = 0.0;
  double stage_execute_seconds = 0.0;
};

/// One row per Scheduling Planner cycle: the compact per-interval table
/// every chart and CSV export reads. Rows are append-only and cheap to
/// copy out (plain data, one vector per row).
struct IntervalRow {
  uint64_t interval = 0;
  double sim_time = 0.0;
  /// Host wall-clock seconds the Performance Solver spent this cycle —
  /// the only host-dependent column.
  double solver_wall_seconds = 0.0;
  double solver_utility = 0.0;
  std::vector<IntervalClassSample> classes;
};

/// Bounded per-interval table (drop-oldest with a counter) with CSV and
/// JSON export. Append and the readers are thread-safe so parallel
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

  /// Long-format CSV: one line per (interval, class) pair under a fixed
  /// header, interval-level columns repeated on each class line.
  void WriteCsv(std::ostream& out) const;
  /// One JSON object per row as a JSON array (pretty-printed one row per
  /// line).
  void WriteJson(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<IntervalRow> rows_;
  uint64_t dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_TIMESERIES_H_
