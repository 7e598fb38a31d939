#ifndef QSCHED_OBS_PREDICTION_H_
#define QSCHED_OBS_PREDICTION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/history.h"

namespace qsched::obs {

/// One model prediction and (once the next interval lands) the value the
/// system actually delivered. The Scheduling Planner predicts at interval
/// k what each class's performance will be at interval k+1 under the plan
/// it just enforced; the record resolves when k+1's measurement arrives.
struct PredictionRecord {
  /// Interval the prediction was made at (k).
  uint64_t predicted_at = 0;
  /// Interval the prediction targets (k+1) and resolves against.
  uint64_t target_interval = 0;
  int class_id = 0;
  bool is_oltp = false;
  /// Predicted velocity (OLAP) or response seconds (OLTP) under the
  /// enforced plan.
  double predicted = 0.0;
  /// Observed value at target_interval; valid only when resolved.
  double observed = 0.0;
  bool resolved = false;
  /// Fitted OLTP slope s (seconds/timeron) at prediction time — the
  /// t^k = t^{k-1} + s*dC model parameter trajectory.
  double model_slope = 0.0;
};

/// Residual summary for one class, over its most recent resolved
/// records (at most the ledger's capacity of them).
struct ResidualStats {
  uint64_t count = 0;
  /// mean |observed - predicted|.
  double mean_abs_error = 0.0;
  /// 95th percentile of |observed - predicted| (exact, by sorting).
  double p95_abs_error = 0.0;
  /// mean (observed - predicted): positive = model underpredicts.
  double bias = 0.0;
};

/// The prediction-vs-actual ledger: every per-class model prediction the
/// planner makes, matched against the next interval's measurement, with
/// residual statistics over the latest `capacity` resolved predictions
/// per class. Thread-safe; bounded: it keeps the predictions of the
/// latest `capacity` intervals (predicted_at values), dropping a whole
/// interval at a time, oldest first.
class PredictionLedger {
 public:
  explicit PredictionLedger(size_t capacity = kFullHistoryIntervals);

  PredictionLedger(const PredictionLedger&) = delete;
  PredictionLedger& operator=(const PredictionLedger&) = delete;

  /// Records a prediction made at `interval` for `interval + 1`. A still
  /// unresolved earlier prediction for the class is dropped (the planner
  /// predicts every interval, so at most one is pending per class).
  void Predict(uint64_t interval, int class_id, bool is_oltp,
               double predicted, double model_slope);

  /// Resolves the pending prediction targeting `interval` for the class
  /// with the observed measurement. No-op when none is pending (first
  /// interval) or the pending target differs.
  void Observe(uint64_t interval, int class_id, double observed);

  /// Changes the capacity in intervals; the records of intervals beyond
  /// it go oldest first and count as dropped, and each class keeps at
  /// most that many residuals.
  void set_capacity(size_t capacity);

  size_t size() const;
  uint64_t dropped() const;
  /// Copy of every retained record, oldest first (pending ones included,
  /// with resolved = false).
  std::vector<PredictionRecord> Records() const;

  ResidualStats StatsFor(int class_id) const;
  /// (interval, slope) trajectory of the fitted OLTP slope s, one point
  /// per OLTP-class prediction.
  std::vector<std::pair<uint64_t, double>> SlopeTrajectory() const;

  /// Long-format CSV of the resolved + pending records.
  void WriteCsv(std::ostream& out) const;
  /// One JSON object per record, JSONL.
  void WriteJsonl(std::ostream& out) const;

 private:
  /// Drops every record of the oldest interval, detaching each from
  /// pending_ first.
  void PopOldestIntervalLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<PredictionRecord> records_;
  /// Distinct predicted_at values in records_ (appended in order).
  size_t intervals_ = 0;
  /// class_id -> index of the pending (unresolved) record, tracked by
  /// value identity via the record's target_interval.
  std::map<int, PredictionRecord*> pending_;
  /// Signed errors (observed - predicted) of the latest resolved
  /// predictions per class, oldest first, for exact percentiles.
  std::map<int, std::deque<double>> errors_;
  uint64_t dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_PREDICTION_H_
