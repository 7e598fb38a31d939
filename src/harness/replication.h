#ifndef QSCHED_HARNESS_REPLICATION_H_
#define QSCHED_HARNESS_REPLICATION_H_

#include <map>
#include <vector>

#include "harness/experiment.h"

namespace qsched::harness {

/// How a batch of replicated runs is executed.
struct ReplicationOptions {
  /// Worker threads for the replica fan-out: 1 = serial in the calling
  /// thread, 0 = one per hardware thread. Each replica owns its entire
  /// world (Simulator, RNGs, collectors) and results are merged in seed
  /// order, so aggregates are byte-identical for every jobs value.
  int jobs = 1;
  /// When set, per-replica wall-clock and events/sec gauges
  /// (`qsched_replica_wall_seconds{replica="r"}` etc.) are recorded after
  /// the merge, from the calling thread. Replicas themselves always run
  /// with telemetry disabled: a shared registry is not thread-safe, and
  /// keeping serial and parallel runs identical requires treating them
  /// the same way. Like RunExperiment, RunReplicated calls
  /// KeepFullHistory() on it.
  obs::Telemetry* telemetry = nullptr;
};

/// Mean and sample standard deviation of one per-period metric across
/// replicated runs.
struct SeriesSummary {
  std::vector<double> mean;
  std::vector<double> stddev;
};

/// Aggregate of `replications` runs of the same experiment under
/// different seeds: the honest version of a single-trajectory figure
/// (the paper plots one 24-hour run; replication quantifies how much of
/// the wiggle is noise).
struct ReplicatedResult {
  ControllerKind controller = ControllerKind::kNoControl;
  int replications = 0;
  int num_periods = 0;
  std::map<int, SeriesSummary> velocity;
  std::map<int, SeriesSummary> response;
  /// Mean periods-meeting-goal per class, with stddev across seeds.
  std::map<int, double> goal_periods_mean;
  std::map<int, double> goal_periods_stddev;
  /// The individual runs, for callers that need more.
  std::vector<ExperimentResult> runs;
};

/// Runs the experiment `replications` times with seeds derived from
/// `config.seed` and aggregates the figure series. Replications are
/// independent simulations, so `options.jobs` fans them out across
/// worker threads with byte-identical aggregates.
ReplicatedResult RunReplicated(const ExperimentConfig& config,
                               ControllerKind kind, int replications,
                               const ReplicationOptions& options);

/// Serial convenience overload (jobs = 1).
ReplicatedResult RunReplicated(const ExperimentConfig& config,
                               ControllerKind kind, int replications);

}  // namespace qsched::harness

#endif  // QSCHED_HARNESS_REPLICATION_H_
