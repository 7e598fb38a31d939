#include "harness/replication.h"

#include <cmath>
#include <utility>

#include "common/strings.h"
#include "harness/parallel.h"

namespace qsched::harness {
namespace {

SeriesSummary Summarize(const std::vector<std::vector<double>>& runs) {
  SeriesSummary summary;
  if (runs.empty()) return summary;
  size_t periods = runs.front().size();
  double n = static_cast<double>(runs.size());
  for (size_t p = 0; p < periods; ++p) {
    double sum = 0.0;
    for (const auto& run : runs) sum += run[p];
    double mean = sum / n;
    double sq = 0.0;
    for (const auto& run : runs) {
      sq += (run[p] - mean) * (run[p] - mean);
    }
    summary.mean.push_back(mean);
    summary.stddev.push_back(n > 1.0 ? std::sqrt(sq / (n - 1.0)) : 0.0);
  }
  return summary;
}

}  // namespace

ReplicatedResult RunReplicated(const ExperimentConfig& config,
                               ControllerKind kind, int replications,
                               const ReplicationOptions& options) {
  ReplicatedResult result;
  result.controller = kind;
  result.replications = replications;
  if (replications <= 0) return result;
  if (options.telemetry != nullptr) options.telemetry->KeepFullHistory();

  // Each replica owns its whole simulation; the only shared state is the
  // pre-sized results vector, written at distinct indices. Merging in
  // seed (= index) order makes the aggregate independent of `jobs`.
  std::vector<ExperimentResult> runs(static_cast<size_t>(replications));
  ParallelFor(replications, options.jobs, [&](int r) {
    ExperimentConfig run_config = config;
    run_config.seed = config.seed + 7919u * static_cast<uint64_t>(r);
    run_config.telemetry = nullptr;
    runs[static_cast<size_t>(r)] = RunExperiment(run_config, kind);
  });
  result.runs = std::move(runs);
  result.num_periods = result.runs.front().num_periods;

  for (const auto& [class_id, series] :
       result.runs.front().velocity_series) {
    std::vector<std::vector<double>> velocity_runs;
    std::vector<std::vector<double>> response_runs;
    std::vector<double> goals;
    for (const ExperimentResult& run : result.runs) {
      velocity_runs.push_back(run.velocity_series.at(class_id));
      response_runs.push_back(run.response_series.at(class_id));
      goals.push_back(
          static_cast<double>(run.periods_meeting_goal.at(class_id)));
    }
    result.velocity[class_id] = Summarize(velocity_runs);
    result.response[class_id] = Summarize(response_runs);
    double sum = 0.0;
    for (double g : goals) sum += g;
    double mean = sum / goals.size();
    double sq = 0.0;
    for (double g : goals) sq += (g - mean) * (g - mean);
    result.goal_periods_mean[class_id] = mean;
    result.goal_periods_stddev[class_id] =
        goals.size() > 1
            ? std::sqrt(sq / (static_cast<double>(goals.size()) - 1.0))
            : 0.0;
    (void)series;
  }

  if (options.telemetry != nullptr) {
    obs::Registry& registry = options.telemetry->registry;
    for (int r = 0; r < replications; ++r) {
      const ExperimentResult& run = result.runs[static_cast<size_t>(r)];
      std::string label = StrPrintf("replica=\"%d\"", r);
      registry.GetGauge("qsched_replica_wall_seconds", label)
          ->Set(run.wall_seconds);
      registry.GetGauge("qsched_replica_events_per_second", label)
          ->Set(run.wall_seconds > 0.0
                    ? static_cast<double>(run.sim_events_processed) /
                          run.wall_seconds
                    : 0.0);
    }
  }
  return result;
}

ReplicatedResult RunReplicated(const ExperimentConfig& config,
                               ControllerKind kind, int replications) {
  return RunReplicated(config, kind, replications, ReplicationOptions{});
}

}  // namespace qsched::harness
