#include "rt/loadgen.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/deadline.h"
#include "common/logging.h"

namespace qsched::rt {

const char* ArrivalPatternToString(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kConstant:
      return "constant";
    case ArrivalPattern::kBursty:
      return "bursty";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

bool ArrivalPatternFromString(const std::string& name,
                              ArrivalPattern* out) {
  if (name == "constant") {
    *out = ArrivalPattern::kConstant;
  } else if (name == "bursty") {
    *out = ArrivalPattern::kBursty;
  } else if (name == "diurnal") {
    *out = ArrivalPattern::kDiurnal;
  } else {
    return false;
  }
  return true;
}

LoadGenerator::LoadGenerator(Gateway* gateway,
                             std::vector<LoadSource> sources,
                             const LoadGenOptions& options,
                             obs::Telemetry* telemetry)
    : gateway_(gateway),
      sources_(std::move(sources)),
      options_(options),
      rng_(options.seed, /*stream=*/0x10adc0deULL) {
  QSCHED_CHECK(!sources_.empty()) << "load generator needs sources";
  QSCHED_CHECK(options_.qps > 0.0) << "qps must be positive";
  weights_.reserve(sources_.size());
  for (const LoadSource& source : sources_) {
    QSCHED_CHECK(source.generator != nullptr);
    weights_.push_back(source.weight);
  }
  if (telemetry != nullptr) {
    offered_counter_ =
        telemetry->registry.GetCounter("qsched_rt_loadgen_offered_total");
    shed_counter_ =
        telemetry->registry.GetCounter("qsched_rt_loadgen_shed_total");
  }
}

LoadGenerator::~LoadGenerator() { Join(); }

double ArrivalShape::RateFactorAt(double t) const {
  switch (pattern) {
    case ArrivalPattern::kConstant:
      return 1.0;
    case ArrivalPattern::kBursty: {
      double period = burst_period_seconds;
      if (period <= 0.0) return 1.0;
      double phase = std::fmod(t, period) / period;
      return phase < burst_duty ? burst_factor : 1.0;
    }
    case ArrivalPattern::kDiurnal: {
      double period = diurnal_period_seconds;
      if (period <= 0.0) return 1.0;
      double factor =
          1.0 + diurnal_amplitude * std::sin(2.0 * M_PI * t / period);
      return factor < 0.0 ? 0.0 : factor;
    }
  }
  return 1.0;
}

double ArrivalShape::NextGap(double t, double qps, Rng* rng) const {
  const double rate = qps * RateFactorAt(t);
  return rate > 0.0 ? rng->Exponential(1.0 / rate) : 0.010;
}

void LoadGenerator::Start() {
  QSCHED_CHECK(!thread_.joinable()) << "load generator already started";
  thread_ = std::thread([this] { Run(); });
}

void LoadGenerator::Join() {
  if (thread_.joinable()) thread_.join();
}

void LoadGenerator::Run() {
  const SteadyTime start = std::chrono::steady_clock::now();
  double t = 0.0;
  uint64_t seq = 0;
  while (t < options_.duration_wall_seconds) {
    t += options_.shape.NextGap(t, options_.qps, &rng_);
    if (t >= options_.duration_wall_seconds) break;
    std::this_thread::sleep_until(DeadlineAfter(t, start));

    size_t pick = rng_.Categorical(weights_);
    const LoadSource& source = sources_[pick];
    workload::Query query = source.generator->Next();
    query.class_id = source.class_id;
    query.client_id = static_cast<int>(seq++ % static_cast<uint64_t>(
                          options_.num_clients < 1 ? 1
                                                   : options_.num_clients));
    offered_.fetch_add(1, std::memory_order_relaxed);
    if (offered_counter_ != nullptr) offered_counter_->Inc();
    bool ok = options_.shed_when_full ? gateway_->Offer(std::move(query))
                                      : gateway_->Submit(std::move(query));
    if (!ok) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (shed_counter_ != nullptr) shed_counter_->Inc();
    }
  }
}

}  // namespace qsched::rt
