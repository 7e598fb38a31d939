// whatif_des workload: the offline what-if path with no sockets and no
// lock contention — synthesize mixed_slo's arrival process as a replay
// trace, write and read it back, score plan candidates in private DES
// worlds (replay::ShadowPlanner), then run one Figure 6 experiment.
#ifndef QSCHED_BENCH_E2E_WHATIF_H_
#define QSCHED_BENCH_E2E_WHATIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace qsched_e2e {

struct WhatifOptions {
  uint64_t seed = 42;
  /// Length of the synthesized arrival process (at kMixedQps).
  double arrival_seconds = 60.0;
  /// Full repetitions: set-up, then Evaluate of every candidate.
  int repetitions = 3;
  /// Set-ups measured in all (the full repetitions' and set-up-only
  /// ones), so setup_s is a median over many.
  int setup_repetitions = 30;
  /// Figure 6 period length (model seconds).
  double fig6_period_seconds = 300.0;
  /// Time each candidate world (harness::ParallelFor over EvaluateOne
  /// instead of ShadowPlanner::Evaluate, which is the same loop) and
  /// record a span per world; also runs Figure 6 with telemetry.
  bool trace = false;
  std::string out_dir = ".";
};

/// Runs the workload; returns its measurements as a JSON object and
/// appends world spans to `spans` when tracing.
JsonObject RunWhatif(const WhatifOptions& options, std::vector<Span>* spans);

}  // namespace qsched_e2e

#endif  // QSCHED_BENCH_E2E_WHATIF_H_
