#ifndef QSCHED_OBS_AUDIT_H_
#define QSCHED_OBS_AUDIT_H_

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
/// control interval, plus what it decided. Values the planner did not
/// observe that interval stay negative.
struct PlannerAuditClass {
  int class_id = 0;
  bool is_oltp = false;
  /// SLO: velocity floor (OLAP) or response ceiling seconds (OLTP).
  double goal = 0.0;
  /// Raw interval measurement (-1 when no completion landed).
  double measured_raw = -1.0;
  /// Accepted (EWMA-smoothed) measurement the solver saw.
  double measured_smoothed = 0.0;
  /// measured_smoothed relative to goal; >= 1 means the SLO is met.
  double goal_ratio = 0.0;
  int completed_in_interval = 0;
  int queue_depth = 0;
  int running = 0;
  double running_cost = 0.0;
  /// Workload-detector view.
  double arrival_rate = 0.0;
  double predicted_rate = 0.0;
  bool change_detected = false;
  /// Solver's optimal limit vs. the rate-limited limit actually handed to
  /// the Dispatcher.
  double target_limit = 0.0;
  double enforced_limit = 0.0;
};

/// One structured record per Scheduling Planner cycle: the measurement
/// inputs and the plan outputs, so every control decision can be traced
/// back to what the Performance Solver saw.
struct PlannerAuditRecord {
  uint64_t interval = 0;
  double sim_time = 0.0;
  double system_cost_limit = 0.0;
  /// OLTP class response fed to the regression model (-1 when unknown).
  double oltp_response = -1.0;
  double solver_utility = 0.0;
  /// "utility-search" or "greedy-auction".
  std::string allocator;
  std::vector<PlannerAuditClass> classes;
};

/// Single-line JSON encoding of one record (no trailing newline).
std::string ToJson(const PlannerAuditRecord& record);

/// Parses a line produced by ToJson. Returns false on malformed input.
/// This is a minimal reader for the emitter's own output (round-trip
/// tests, output validation), not a general JSON parser.
bool ParsePlannerAuditRecord(const std::string& json,
                             PlannerAuditRecord* out);

/// Bounded decision log (drop-oldest with a counter), exportable as
/// JSONL. Add and the counters are thread-safe; records() hands back a
/// reference, so only read it after concurrent writers have quiesced.
class PlannerAuditLog {
 public:
  explicit PlannerAuditLog(size_t capacity = kFullHistoryIntervals);

  PlannerAuditLog(const PlannerAuditLog&) = delete;
  PlannerAuditLog& operator=(const PlannerAuditLog&) = delete;

  void Add(PlannerAuditRecord record);

  /// Changes the capacity; records beyond it go oldest first and count
  /// as dropped.
  void set_capacity(size_t capacity);

  size_t size() const;
  uint64_t dropped() const;
  const std::deque<PlannerAuditRecord>& records() const { return records_; }

  /// One ToJson line per record.
  void WriteJsonl(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<PlannerAuditRecord> records_;
  uint64_t dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_AUDIT_H_
