#ifndef QSCHED_SIM_STATS_H_
#define QSCHED_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qsched::sim {

/// Streaming mean/variance accumulator (Welford's algorithm).
class WelfordAccumulator {
 public:
  WelfordAccumulator() = default;

  void Add(double value);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Pools another accumulator into this one (Chan's parallel update).
  void Merge(const WelfordAccumulator& other);

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over a log-spaced grid of non-negative values, RocksDB-style:
/// approximate quantiles with bounded memory regardless of sample count.
class Histogram {
 public:
  /// Buckets span [min_value, max_value] with `buckets_per_decade`
  /// log-spaced buckets per factor of 10. Values outside the range clamp
  /// into the first/last bucket.
  Histogram(double min_value, double max_value, int buckets_per_decade = 20);

  void Add(double value);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Approximate quantile (q in [0,1]) by linear interpolation within the
  /// containing bucket. Returns 0 when empty.
  double Quantile(double q) const;

  size_t num_buckets() const { return counts_.size(); }
  uint64_t bucket_count(size_t i) const { return counts_[i]; }
  /// Lower bound of bucket i.
  double bucket_lower(size_t i) const;

 private:
  size_t BucketIndex(double value) const;

  double min_value_;
  double log_min_;
  double log_step_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Append-only series of (time, value) points with basic reductions,
/// used to record per-interval controller decisions and measurements.
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  void Append(double time, double value);
  /// Drops the oldest points until at most `max_points` remain.
  void KeepLast(size_t max_points);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Point& at(size_t i) const { return points_[i]; }
  const std::vector<Point>& points() const { return points_; }

  /// Mean of values with time in [t_begin, t_end); 0 when no points match.
  double MeanInWindow(double t_begin, double t_end) const;
  /// Last value with time < t, or `fallback` when none.
  double LastBefore(double t, double fallback) const;

 private:
  std::vector<Point> points_;
};

/// Exact percentile (q in [0,1]) of a sample by sorting a copy; linear
/// interpolation between order statistics. Returns 0 for empty input.
double Percentile(std::vector<double> values, double q);

}  // namespace qsched::sim

#endif  // QSCHED_SIM_STATS_H_
