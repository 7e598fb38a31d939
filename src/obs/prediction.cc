#include "obs/prediction.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace qsched::obs {

PredictionLedger::PredictionLedger(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void PredictionLedger::Predict(uint64_t interval, int class_id,
                               bool is_oltp, double predicted,
                               double model_slope) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) PopOldestLocked();
  PredictionRecord record;
  record.predicted_at = interval;
  record.target_interval = interval + 1;
  record.class_id = class_id;
  record.is_oltp = is_oltp;
  record.predicted = predicted;
  record.model_slope = model_slope;
  records_.push_back(record);
  // push_back never moves existing deque elements, so stored pointers
  // stay valid until their element is popped.
  pending_[class_id] = &records_.back();
}

void PredictionLedger::Observe(uint64_t interval, int class_id,
                               double observed) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(class_id);
  if (it == pending_.end()) return;
  PredictionRecord* record = it->second;
  if (record->target_interval != interval) return;
  record->observed = observed;
  record->resolved = true;
  pending_.erase(it);
  std::deque<double>& errors = errors_[class_id];
  if (errors.size() >= capacity_) errors.pop_front();
  errors.push_back(observed - record->predicted);
}

void PredictionLedger::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (records_.size() > capacity_) PopOldestLocked();
  for (auto& [class_id, errors] : errors_) {
    while (errors.size() > capacity_) errors.pop_front();
  }
}

void PredictionLedger::PopOldestLocked() {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->second == &records_.front()) {
      pending_.erase(it);
      break;
    }
  }
  records_.pop_front();
  ++dropped_;
}

size_t PredictionLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t PredictionLedger::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<PredictionRecord> PredictionLedger::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<PredictionRecord>(records_.begin(), records_.end());
}

ResidualStats PredictionLedger::StatsFor(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ResidualStats stats;
  auto it = errors_.find(class_id);
  if (it == errors_.end() || it->second.empty()) return stats;
  const std::deque<double>& errors = it->second;
  stats.count = errors.size();
  std::vector<double> sorted;
  sorted.reserve(errors.size());
  double abs_sum = 0.0;
  double signed_sum = 0.0;
  for (double e : errors) {
    sorted.push_back(std::abs(e));
    abs_sum += sorted.back();
    signed_sum += e;
  }
  stats.mean_abs_error = abs_sum / static_cast<double>(errors.size());
  std::sort(sorted.begin(), sorted.end());
  // Exact p95 with linear interpolation between order statistics.
  double rank = 0.95 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  stats.p95_abs_error = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  stats.bias = signed_sum / static_cast<double>(errors.size());
  return stats;
}

std::vector<std::pair<uint64_t, double>>
PredictionLedger::SlopeTrajectory() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, double>> trajectory;
  for (const PredictionRecord& record : records_) {
    if (record.is_oltp) {
      trajectory.emplace_back(record.predicted_at, record.model_slope);
    }
  }
  return trajectory;
}

void PredictionLedger::WriteCsv(std::ostream& out) const {
  std::vector<PredictionRecord> records = Records();
  out << "predicted_at,target_interval,class_id,is_oltp,predicted,"
         "observed,resolved,residual,model_slope\n";
  for (const PredictionRecord& r : records) {
    out << StrPrintf(
        "%llu,%llu,%d,%d,%.9g,%.9g,%d,%.9g,%.9g\n",
        static_cast<unsigned long long>(r.predicted_at),
        static_cast<unsigned long long>(r.target_interval), r.class_id,
        r.is_oltp ? 1 : 0, r.predicted, r.resolved ? r.observed : -1.0,
        r.resolved ? 1 : 0,
        r.resolved ? r.observed - r.predicted : 0.0, r.model_slope);
  }
}

void PredictionLedger::WriteJsonl(std::ostream& out) const {
  std::vector<PredictionRecord> records = Records();
  for (const PredictionRecord& r : records) {
    out << StrPrintf(
        "{\"predicted_at\":%llu,\"target_interval\":%llu,"
        "\"class_id\":%d,\"is_oltp\":%s,\"predicted\":%.9g,"
        "\"observed\":%.9g,\"resolved\":%s,\"model_slope\":%.9g}\n",
        static_cast<unsigned long long>(r.predicted_at),
        static_cast<unsigned long long>(r.target_interval), r.class_id,
        r.is_oltp ? "true" : "false", r.predicted,
        r.resolved ? r.observed : -1.0, r.resolved ? "true" : "false",
        r.model_slope);
  }
}

}  // namespace qsched::obs
