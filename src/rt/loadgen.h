#ifndef QSCHED_RT_LOADGEN_H_
#define QSCHED_RT_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "workload/query.h"

namespace qsched::rt {

/// How the offered arrival rate varies over the run.
enum class ArrivalPattern {
  kConstant,  // flat qps
  kBursty,    // square wave: qps * burst_factor during bursts, qps between
  kDiurnal,   // sinusoid: qps * (1 + amplitude * sin(2*pi*t / period))
};

const char* ArrivalPatternToString(ArrivalPattern pattern);
bool ArrivalPatternFromString(const std::string& name,
                              ArrivalPattern* out);

/// How an open-loop Poisson arrival rate varies over time; shared by the
/// in-process and the wire load generators.
struct ArrivalShape {
  ArrivalPattern pattern = ArrivalPattern::kConstant;
  /// Bursty pattern: cycle length, on-fraction and rate multiplier.
  double burst_period_seconds = 0.5;
  double burst_duty = 0.3;
  double burst_factor = 4.0;
  /// Diurnal pattern: "day" length and swing (0..1).
  double diurnal_period_seconds = 2.0;
  double diurnal_amplitude = 0.8;

  /// Rate multiplier of `pattern` at time `t` (pure). Always >= 0.
  double RateFactorAt(double t) const;
  /// Exponential gap after an arrival at `t`, at `qps` times the factor
  /// at `t`; a zero-rate trough (diurnal) idles forward 10 ms instead.
  double NextGap(double t, double qps, Rng* rng) const;
};

struct LoadGenOptions {
  ArrivalShape shape;
  /// Mean offered rate (queries per wall second).
  double qps = 100.0;
  /// Wall-clock length of the generation phase.
  double duration_wall_seconds = 2.0;
  uint64_t seed = 42;
  /// When true (open loop), full-queue submissions are shed via
  /// Gateway::Offer; when false the generator blocks on backpressure.
  bool shed_when_full = true;
  /// Client ids are assigned round-robin over this many synthetic
  /// clients (the OLTP snapshot monitor samples per client).
  int num_clients = 16;
};

/// One weighted source in the mix: a query generator tagged with the
/// service class its draws are submitted under.
struct LoadSource {
  workload::QueryGenerator* generator = nullptr;
  int class_id = 0;
  double weight = 1.0;
};

/// Open-loop load generator: a dedicated thread draws Poisson arrivals
/// (ArrivalShape::NextGap at the pattern's current rate),
/// samples a source from the mix, and pushes the query into the gateway.
/// Deterministic in its draw sequence given the seed; arrival *timing* is
/// wall-clock and therefore not reproducible — that is the point of the
/// real-time mode.
///
/// Thread-safety: the generator thread owns its sources and RNG
/// exclusively; Start/Join must come from one controlling thread; the
/// counters are atomics, readable from anywhere.
class LoadGenerator {
 public:
  LoadGenerator(Gateway* gateway, std::vector<LoadSource> sources,
                const LoadGenOptions& options,
                obs::Telemetry* telemetry = nullptr);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Spawns the arrival thread.
  void Start();
  /// Blocks until the generation phase ends (duration elapsed).
  void Join();

  /// Queries pushed toward the gateway (accepted + shed).
  uint64_t offered() const { return offered_.load(); }
  /// Queries the gateway turned away (full queue, open loop only).
  uint64_t shed() const { return shed_.load(); }

 private:
  void Run();

  Gateway* gateway_;
  std::vector<LoadSource> sources_;
  std::vector<double> weights_;
  LoadGenOptions options_;
  Rng rng_;
  std::thread thread_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> shed_{0};

  obs::Counter* offered_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
};

}  // namespace qsched::rt

#endif  // QSCHED_RT_LOADGEN_H_
