#ifndef QSCHED_OBS_METRICS_H_
#define QSCHED_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace qsched::obs {

/// Monotonically increasing event count. Recording is O(1) and
/// allocation-free; handles returned by Registry stay valid for its
/// lifetime, so hot paths cache the pointer once and increment directly.
/// Increments are relaxed atomics, so concurrent writers lose nothing.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, utilization, current limit).
/// Atomic set/add so concurrent writers never tear the double.
class Gauge {
 public:
  void Set(double value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram: fixed bucket array whose edges grow
/// geometrically (4 buckets per factor of two, ~19% wide), covering
/// [1e-6, ~3e6) — microseconds to weeks of simulated time, or page and
/// byte counts. Record() is O(1) and LOCK-FREE: bucket counts live in up
/// to kStripes cacheline-aligned stripes (a writer picks its stripe by
/// thread id, so unrelated threads never contend on a line) and every
/// update is a relaxed atomic add / CAS. A stripe is allocated by the
/// first sample recorded into it and installed with one CAS, so a
/// histogram costs one stripe per writing thread rather than kStripes,
/// and Record() is allocation-free after a thread's first sample in that
/// histogram. Readers aggregate the live stripes on demand — the scrape
/// path pays the O(live stripes × buckets) walk, the sample path pays
/// nothing. The total count is derived from
/// the bucket sums, so count and buckets can never disagree; sum and the
/// exact min/max extremes are separate atomics, which under concurrent
/// writers may trail the bucket counts by the handful of samples still
/// mid-Record (exact again once writers quiesce, e.g. after a join).
/// Quantiles are estimated by log-linear interpolation inside the
/// winning bucket, within one bucket width (<19%) of the true value.
class Histogram {
 public:
  static constexpr double kMinValue = 1e-6;
  static constexpr int kBucketsPerOctave = 4;
  /// Bucket 0 is the underflow bucket (<= kMinValue); the top bucket
  /// absorbs overflow.
  static constexpr int kNumBuckets = 168;
  /// Bucket stripes; writers hash their thread id to one.
  static constexpr int kStripes = 8;

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  uint64_t count() const;
  double sum() const;
  /// Exact observed extremes (0 when empty).
  double min() const;
  double max() const;
  double Mean() const;

  /// Estimated q-quantile, q in [0, 1]; clamped to [min(), max()].
  /// Returns 0 when empty.
  double Quantile(double q) const;

  /// One aggregation pass feeding every derived statistic: the scrape
  /// path calls this once instead of re-walking the stripes per field.
  struct Digest {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Digest GetDigest() const;

  /// Index of the bucket `value` falls in.
  static int BucketIndex(double value);
  /// Lower/upper value edges of bucket `index` (bucket 0 starts at 0).
  static double BucketLowerEdge(int index);
  static double BucketUpperEdge(int index);
  /// Aggregated copy of the bucket counts.
  std::array<uint64_t, kNumBuckets> buckets() const;
  /// Stripes some thread has recorded into so far (0..kStripes).
  int stripes_allocated() const;

 private:
  /// One writer shard. alignas(64) keeps stripes on distinct cache
  /// lines so two threads recording concurrently never false-share.
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };

  static size_t StripeIndex();
  /// This thread's stripe, allocated and installed on first use.
  Stripe& StripeForThisThread();
  /// Sums the stripes into `*out`; returns the total count.
  uint64_t AggregateBuckets(std::array<uint64_t, kNumBuckets>* out) const;
  static double QuantileFromBuckets(
      const std::array<uint64_t, kNumBuckets>& buckets, uint64_t count,
      double min, double max, double q);

  /// Null until a thread first records into that stripe; a non-null
  /// stripe is never replaced and is freed by the destructor.
  std::array<std::atomic<Stripe*>, kStripes> stripes_{};
  /// Running extremes; +/-inf sentinels until the first Record lands.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, for reports and tests.
struct MetricSnapshot {
  std::string name;
  /// Prometheus-style label block without braces, e.g. `class="1"`.
  std::string labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter or gauge value.
  double value = 0.0;
  /// Histogram-only fields.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Named metric store. Get* registers on first use and returns the same
/// stable pointer on every later call with the same (name, labels) pair;
/// asking for an existing name with a different kind aborts. Lookup and
/// export take an internal mutex, but the metric objects themselves are
/// lock-free (atomic counters/gauges, striped-atomic histograms), so the
/// registry mutex is off the sample path entirely: hot paths cache the
/// Get* pointer once and record with relaxed atomics, and many
/// replication workers may hammer one shared registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "");

  size_t size() const;

  std::vector<MetricSnapshot> Snapshot() const;

  /// Registers `alias` as a deprecated exposition-only alias of the
  /// family `canonical`: WritePrometheus and WriteVarzJson re-emit every
  /// (canonical, labels) sample under the alias name, marked deprecated.
  /// Snapshot() stays canonical-only, so internal consumers never see
  /// doubled series. Used to keep one release of backward compatibility
  /// across metric renames.
  void AddAlias(const std::string& alias, const std::string& canonical);

  /// Prometheus text exposition: `# TYPE` per family, one sample line per
  /// metric; histograms are rendered as summaries with quantile labels
  /// (0.5 / 0.95 / 0.99 / 1 = max) plus _sum and _count. Aliased families
  /// are appended after the canonical ones.
  void WritePrometheus(std::ostream& out) const;

  /// JSON dump for `GET /varz` and scripts: an object keyed by sample
  /// name (labels inline, JSON-escaped); counters/gauges map to numbers,
  /// histograms to {count, sum, min, max, p50, p95, p99} objects. An
  /// `aliases` object maps deprecated names to canonical ones.
  void WriteVarzJson(std::ostream& out) const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& labels,
                      MetricKind kind);

  mutable std::mutex mu_;
  /// Ordered by (name, labels) so exposition groups families naturally.
  std::map<std::pair<std::string, std::string>, Entry> entries_;
  /// alias family name -> canonical family name.
  std::map<std::string, std::string> aliases_;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_METRICS_H_
