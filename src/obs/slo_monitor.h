#ifndef QSCHED_OBS_SLO_MONITOR_H_
#define QSCHED_OBS_SLO_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/history.h"

namespace qsched::obs {

/// One contiguous run of control intervals in which a class violated its
/// SLO (goal ratio < 1). Open events (still violating when the run ends)
/// have end fields equal to the last observation.
struct SloViolationEvent {
  int class_id = 0;
  uint64_t start_interval = 0;
  double start_time = 0.0;
  uint64_t end_interval = 0;
  double end_time = 0.0;
  /// Number of violating intervals in the event.
  int intervals = 0;
  /// Worst (smallest) goal ratio seen during the event — the depth.
  double worst_ratio = 1.0;
  /// end_time - start_time; 0 for single-interval events.
  double duration = 0.0;
  bool open = false;
};

/// Single-line JSON encoding, tagged `"type":"slo_violation"` so the
/// events can share a JSONL stream with planner audit records.
std::string ToJson(const SloViolationEvent& event);

/// Per-class SLO attainment tracking at control-interval granularity:
/// rolling attainment over the last `window` intervals, overall
/// attainment, and violation events with start/end/depth/duration.
/// Thread-safe.
class SloMonitor {
 public:
  /// Default points kept per class in the attainment series, and closed
  /// events kept across classes (drop-oldest), the default capacity of
  /// the time-series recorder and the ledger too.
  static constexpr size_t kSeriesCapacity = kFullHistoryIntervals;

  struct Options {
    /// Rolling attainment window, in control intervals.
    int window = 10;
  };

  SloMonitor() : SloMonitor(Options()) {}
  explicit SloMonitor(Options options, size_t capacity = kSeriesCapacity);

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Feeds one interval's goal ratio for one class. Intervals must be
  /// observed in nondecreasing order per class.
  void Observe(int class_id, uint64_t interval, double sim_time,
               double goal_ratio);

  /// Changes the capacity; points and closed events beyond it go oldest
  /// first (dropped events count in events_dropped()). Counts, rolling
  /// and overall attainment and EventCount stay exact.
  void set_capacity(size_t capacity);

  /// Fraction of the last `window` observed intervals with ratio >= 1;
  /// 0 when the class has no observations.
  double RollingAttainment(int class_id) const;
  /// Fraction of all observed intervals with ratio >= 1.
  double OverallAttainment(int class_id) const;
  uint64_t intervals_observed(int class_id) const;

  /// Ids of every class with at least one observation, ascending.
  std::vector<int> ObservedClasses() const;

  /// The last `capacity` closed events (across classes) plus each
  /// class's open one, oldest first.
  std::vector<SloViolationEvent> Events() const;
  /// The kept events of one class only.
  std::vector<SloViolationEvent> EventsFor(int class_id) const;
  /// Every event of `class_id` so far, closed and open, including the
  /// ones dropped from the kept list.
  uint64_t EventCount(int class_id) const;
  /// Closed events dropped from the kept list (drop-oldest).
  uint64_t events_dropped() const;

  /// (sim_time, rolling attainment) trajectory per class, one point per
  /// observation (the last `capacity` of them) — the SLO-attainment
  /// chart series.
  std::vector<std::pair<double, double>> AttainmentSeries(
      int class_id) const;

  /// One ToJson line per event (closed then open), for appending to the
  /// planner audit JSONL.
  void WriteEventsJsonl(std::ostream& out) const;

 private:
  struct ClassState {
    std::deque<bool> recent_met;
    uint64_t observed = 0;
    uint64_t met = 0;
    std::deque<std::pair<double, double>> attainment_series;
    bool violating = false;
    SloViolationEvent current;
    uint64_t closed_events = 0;
  };

  std::vector<SloViolationEvent> EventsLocked() const;

  mutable std::mutex mu_;
  Options options_;
  size_t capacity_;
  std::map<int, ClassState> classes_;
  std::deque<SloViolationEvent> closed_;
  uint64_t events_dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_SLO_MONITOR_H_
