#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace qsched::sim {

void WelfordAccumulator::Add(double value) {
  ++count_;
  sum_ += value;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void WelfordAccumulator::Reset() { *this = WelfordAccumulator(); }

double WelfordAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double WelfordAccumulator::stddev() const { return std::sqrt(variance()); }

void WelfordAccumulator::Merge(const WelfordAccumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double n1 = static_cast<double>(count_);
  double n2 = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double min_value, double max_value,
                     int buckets_per_decade)
    : min_value_(std::max(min_value, 1e-12)) {
  if (max_value < min_value_ * 10.0) max_value = min_value_ * 10.0;
  log_min_ = std::log10(min_value_);
  double decades = std::log10(max_value) - log_min_;
  size_t n = static_cast<size_t>(
      std::ceil(decades * std::max(buckets_per_decade, 1)));
  counts_.assign(std::max<size_t>(n, 1) + 1, 0);
  log_step_ = decades / static_cast<double>(counts_.size() - 1 == 0
                                                ? 1
                                                : counts_.size() - 1);
  if (log_step_ <= 0.0) log_step_ = 1.0;
}

size_t Histogram::BucketIndex(double value) const {
  if (value <= min_value_) return 0;
  double idx = (std::log10(value) - log_min_) / log_step_;
  if (idx < 0.0) return 0;
  size_t i = static_cast<size_t>(idx);
  return std::min(i, counts_.size() - 1);
}

void Histogram::Add(double value) {
  ++counts_[BucketIndex(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

double Histogram::bucket_lower(size_t i) const {
  return std::pow(10.0, log_min_ + log_step_ * static_cast<double>(i));
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    double next = static_cast<double>(seen + counts_[i]);
    if (next >= target) {
      double lo = bucket_lower(i);
      double hi = (i + 1 < counts_.size()) ? bucket_lower(i + 1) : max_;
      double within =
          (target - static_cast<double>(seen)) /
          static_cast<double>(counts_[i]);
      double value = lo + (hi - lo) * within;
      return std::clamp(value, min_, max_);
    }
    seen += counts_[i];
  }
  return max_;
}

void TimeSeries::Append(double time, double value) {
  points_.push_back(Point{time, value});
}

void TimeSeries::KeepLast(size_t max_points) {
  if (points_.size() <= max_points) return;
  points_.erase(points_.begin(),
                points_.end() - static_cast<std::ptrdiff_t>(max_points));
}

double TimeSeries::MeanInWindow(double t_begin, double t_end) const {
  double sum = 0.0;
  size_t n = 0;
  for (const Point& p : points_) {
    if (p.time >= t_begin && p.time < t_end) {
      sum += p.value;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double TimeSeries::LastBefore(double t, double fallback) const {
  double best_time = -std::numeric_limits<double>::infinity();
  double best_value = fallback;
  for (const Point& p : points_) {
    if (p.time < t && p.time >= best_time) {
      best_time = p.time;
      best_value = p.value;
    }
  }
  return best_value;
}

}  // namespace qsched::sim
