#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"

namespace qsched::obs {

size_t Histogram::StripeIndex() {
  // Hashed once per thread: a given thread always writes one stripe, so
  // its increments stay core-local and its per-stripe sum accumulates in
  // a deterministic order.
  thread_local const size_t index =
      std::hash<std::thread::id>()(std::this_thread::get_id()) %
      static_cast<size_t>(kStripes);
  return index;
}

Histogram::~Histogram() {
  for (std::atomic<Stripe*>& slot : stripes_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

Histogram::Stripe& Histogram::StripeForThisThread() {
  std::atomic<Stripe*>& slot = stripes_[StripeIndex()];
  Stripe* stripe = slot.load(std::memory_order_acquire);
  if (stripe != nullptr) return *stripe;
  // First sample in this stripe: install a zeroed one. Threads sharing
  // the stripe may race here; the loser frees its copy and writes into
  // the winner's.
  auto fresh = std::make_unique<Stripe>();
  if (slot.compare_exchange_strong(stripe, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *stripe;
}

void Histogram::Record(double value) {
  // Extremes first, bucket last: once a reader sees the bucket count,
  // the min/max that clamp its quantile estimate are already in place
  // (best-effort under relaxed ordering; exact once writers quiesce).
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  Stripe& stripe = StripeForThisThread();
  seen = stripe.sum.load(std::memory_order_relaxed);
  while (!stripe.sum.compare_exchange_weak(seen, seen + value,
                                           std::memory_order_relaxed)) {
  }
  stripe.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t Histogram::AggregateBuckets(
    std::array<uint64_t, kNumBuckets>* out) const {
  out->fill(0);
  uint64_t total = 0;
  for (const std::atomic<Stripe*>& slot : stripes_) {
    const Stripe* stripe = slot.load(std::memory_order_acquire);
    if (stripe == nullptr) continue;
    for (int i = 0; i < kNumBuckets; ++i) {
      uint64_t n = stripe->buckets[static_cast<size_t>(i)].load(
          std::memory_order_relaxed);
      (*out)[static_cast<size_t>(i)] += n;
      total += n;
    }
  }
  return total;
}

uint64_t Histogram::count() const {
  std::array<uint64_t, kNumBuckets> agg;
  return AggregateBuckets(&agg);
}

double Histogram::sum() const {
  double total = 0.0;
  for (const std::atomic<Stripe*>& slot : stripes_) {
    const Stripe* stripe = slot.load(std::memory_order_acquire);
    if (stripe == nullptr) continue;
    total += stripe->sum.load(std::memory_order_relaxed);
  }
  return total;
}

int Histogram::stripes_allocated() const {
  int allocated = 0;
  for (const std::atomic<Stripe*>& slot : stripes_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++allocated;
  }
  return allocated;
}

double Histogram::min() const {
  double value = min_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

double Histogram::max() const {
  double value = max_.load(std::memory_order_relaxed);
  return std::isfinite(value) ? value : 0.0;
}

double Histogram::Mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::array<uint64_t, Histogram::kNumBuckets> Histogram::buckets() const {
  std::array<uint64_t, kNumBuckets> out;
  AggregateBuckets(&out);
  return out;
}

int Histogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN and negatives
  int index =
      1 + static_cast<int>(kBucketsPerOctave * std::log2(value / kMinValue));
  return std::clamp(index, 1, kNumBuckets - 1);
}

double Histogram::BucketLowerEdge(int index) {
  if (index <= 0) return 0.0;
  return kMinValue *
         std::exp2(static_cast<double>(index - 1) / kBucketsPerOctave);
}

double Histogram::BucketUpperEdge(int index) {
  if (index <= 0) return kMinValue;
  return kMinValue *
         std::exp2(static_cast<double>(index) / kBucketsPerOctave);
}

double Histogram::Quantile(double q) const {
  std::array<uint64_t, kNumBuckets> agg;
  uint64_t n = AggregateBuckets(&agg);
  return QuantileFromBuckets(agg, n, min(), max(), q);
}

double Histogram::QuantileFromBuckets(
    const std::array<uint64_t, kNumBuckets>& buckets, uint64_t count,
    double min, double max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[static_cast<size_t>(i)] == 0) continue;
    double before = static_cast<double>(seen);
    seen += buckets[static_cast<size_t>(i)];
    if (static_cast<double>(seen) < target) continue;
    // Log-linear interpolation inside the winning bucket.
    double frac = (target - before) /
                  static_cast<double>(buckets[static_cast<size_t>(i)]);
    double lo = std::max(BucketLowerEdge(i), kMinValue);
    double hi = BucketUpperEdge(i);
    double estimate = lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    return std::clamp(estimate, min, max);
  }
  return max;
}

Histogram::Digest Histogram::GetDigest() const {
  std::array<uint64_t, kNumBuckets> agg;
  Digest digest;
  digest.count = AggregateBuckets(&agg);
  digest.sum = sum();
  digest.min = min();
  digest.max = max();
  digest.p50 = QuantileFromBuckets(agg, digest.count, digest.min,
                                   digest.max, 0.50);
  digest.p95 = QuantileFromBuckets(agg, digest.count, digest.min,
                                   digest.max, 0.95);
  digest.p99 = QuantileFromBuckets(agg, digest.count, digest.min,
                                   digest.max, 0.99);
  return digest;
}

Registry::Entry* Registry::FindOrCreate(const std::string& name,
                                        const std::string& labels,
                                        MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    QSCHED_CHECK(it->second.kind == kind)
        << "metric " << name << " re-registered with a different kind";
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return &entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& labels) {
  return FindOrCreate(name, labels, MetricKind::kCounter)->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name,
                          const std::string& labels) {
  return FindOrCreate(name, labels, MetricKind::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& labels) {
  return FindOrCreate(name, labels, MetricKind::kHistogram)
      ->histogram.get();
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = key.second;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        Histogram::Digest digest = entry.histogram->GetDigest();
        snap.count = digest.count;
        snap.sum = digest.sum;
        snap.min = digest.min;
        snap.max = digest.max;
        snap.p50 = digest.p50;
        snap.p95 = digest.p95;
        snap.p99 = digest.p99;
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::AddAlias(const std::string& alias,
                        const std::string& canonical) {
  std::lock_guard<std::mutex> lock(mu_);
  QSCHED_CHECK(alias != canonical)
      << "metric alias " << alias << " points at itself";
  aliases_[alias] = canonical;
}

namespace {

std::string SampleName(const std::string& name, const std::string& labels,
                       const std::string& extra_label = "") {
  std::string all = labels;
  if (!extra_label.empty()) {
    if (!all.empty()) all += ",";
    all += extra_label;
  }
  if (all.empty()) return name;
  return name + "{" + all + "}";
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Renders a finite double, mapping nan/inf to 0 so output stays JSON.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  return StrPrintf("%.9g", value);
}

}  // namespace

void Registry::WritePrometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto emit_samples = [&out](const std::string& name,
                             const std::string& labels, const Entry& entry) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        out << SampleName(name, labels) << " " << entry.counter->value()
            << "\n";
        break;
      case MetricKind::kGauge:
        out << SampleName(name, labels) << " "
            << StrPrintf("%.9g", entry.gauge->value()) << "\n";
        break;
      case MetricKind::kHistogram: {
        Histogram::Digest d = entry.histogram->GetDigest();
        out << SampleName(name, labels, "quantile=\"0.5\"") << " "
            << StrPrintf("%.9g", d.p50) << "\n";
        out << SampleName(name, labels, "quantile=\"0.95\"") << " "
            << StrPrintf("%.9g", d.p95) << "\n";
        out << SampleName(name, labels, "quantile=\"0.99\"") << " "
            << StrPrintf("%.9g", d.p99) << "\n";
        out << SampleName(name, labels, "quantile=\"1\"") << " "
            << StrPrintf("%.9g", d.max) << "\n";
        out << SampleName(name + "_sum", labels) << " "
            << StrPrintf("%.9g", d.sum) << "\n";
        out << SampleName(name + "_count", labels) << " " << d.count
            << "\n";
        break;
      }
    }
  };
  auto type_string = [](MetricKind kind) {
    return kind == MetricKind::kCounter ? "counter"
           : kind == MetricKind::kGauge ? "gauge"
                                        : "summary";
  };
  const std::string* last_family = nullptr;
  for (const auto& [key, entry] : entries_) {
    const std::string& name = key.first;
    const std::string& labels = key.second;
    if (last_family == nullptr || *last_family != name) {
      out << "# TYPE " << name << " " << type_string(entry.kind) << "\n";
      last_family = &name;
    }
    emit_samples(name, labels, entry);
  }
  // Deprecated aliases come after every canonical family, each one its
  // own family (so the one-#-TYPE-per-family invariant holds as long as
  // alias names never collide with live canonical names).
  for (const auto& [alias, canonical] : aliases_) {
    auto it = entries_.lower_bound(std::make_pair(canonical, std::string()));
    if (it == entries_.end() || it->first.first != canonical) continue;
    out << "# HELP " << alias << " Deprecated alias for " << canonical
        << ".\n";
    out << "# TYPE " << alias << " " << type_string(it->second.kind)
        << "\n";
    for (; it != entries_.end() && it->first.first == canonical; ++it) {
      emit_samples(alias, it->first.second, it->second);
    }
  }
}

void Registry::WriteVarzJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto emit_value = [&out](const Entry& entry) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        out << entry.counter->value();
        break;
      case MetricKind::kGauge:
        out << JsonNumber(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        Histogram::Digest d = entry.histogram->GetDigest();
        out << "{\"count\":" << d.count << ",\"sum\":"
            << JsonNumber(d.sum) << ",\"min\":" << JsonNumber(d.min)
            << ",\"max\":" << JsonNumber(d.max)
            << ",\"p50\":" << JsonNumber(d.p50)
            << ",\"p95\":" << JsonNumber(d.p95)
            << ",\"p99\":" << JsonNumber(d.p99) << "}";
        break;
      }
    }
  };
  out << "{\n  \"metrics\": {";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    out << (first ? "\n" : ",\n") << "    \""
        << JsonEscape(SampleName(key.first, key.second)) << "\": ";
    emit_value(entry);
    first = false;
  }
  out << "\n  },\n  \"aliases\": {";
  first = true;
  for (const auto& [alias, canonical] : aliases_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(alias)
        << "\": \"" << JsonEscape(canonical) << "\"";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace qsched::obs
