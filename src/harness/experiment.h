#ifndef QSCHED_HARNESS_EXPERIMENT_H_
#define QSCHED_HARNESS_EXPERIMENT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "engine/execution_engine.h"
#include "metrics/trace_writer.h"
#include "obs/telemetry.h"
#include "qp/interceptor.h"
#include "qp/qp_controller.h"
#include "scheduler/mpl_controller.h"
#include "scheduler/query_scheduler.h"
#include "scheduler/service_class.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/schedule.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::harness {

/// Which workload controller fronts the engine — the paper's three
/// experiments plus the extensions.
enum class ControllerKind {
  kNoControl,       // Fig. 4: system cost limit only
  kQpNoPriority,    // mentioned in §4.1.2: behaves like no control
  kQpPriority,      // Fig. 5: DB2 QP static groups + priority
  kQueryScheduler,  // Fig. 6/7: the paper's contribution
  kMpl,             // extension: Schroeder-style MPL control
  kQsDirectOltp,    // extension: future-work direct OLTP control
};

const char* ControllerKindToString(ControllerKind kind);

/// Everything one experiment run needs. Defaults reproduce the paper's
/// testbed at the reproduction's time scale.
struct ExperimentConfig {
  uint64_t seed = 42;
  /// Period length. The paper ran 18 x 80 min; the reproduction default
  /// compresses to 18 x 600 s, which still gives each period ten control
  /// intervals (enough for the planner to settle) and thousands of OLTP
  /// completions.
  double period_seconds = 600.0;
  double system_cost_limit = 300000.0;

  engine::EngineConfig engine;
  workload::TpchWorkloadParams tpch;
  workload::TpccWorkloadParams tpcc;
  qp::InterceptorConfig interceptor;
  sched::QuerySchedulerConfig qs;
  sched::MplController::Options mpl;

  /// DB2 QP static strategy: fraction of the system cost limit granted to
  /// OLAP, and group concurrency caps. Thresholds (top 5% large, next 15%
  /// medium) are derived by sampling the workload's cost distribution.
  double qp_olap_limit_fraction = 0.7;
  int qp_max_large = 2;
  int qp_max_medium = 4;
  int qp_max_small = 16;

  /// When true, every finished query is also kept in a bounded record
  /// log (ExperimentResult::trace) for CSV export / offline analysis.
  bool capture_trace = false;
  size_t trace_capacity = 1 << 20;

  /// Telemetry sink (nullptr = observability off, the default). When set,
  /// the engine, client pools and (for the Query Scheduler controllers)
  /// the whole control loop record metrics, planner audit records and
  /// (if its SpanLog is enabled) per-query spans into it; RunExperiment
  /// also copies a final registry snapshot into
  /// ExperimentResult::metric_snapshot, and calls KeepFullHistory() on it
  /// so its per-interval stores cover the whole run. Must outlive the
  /// run.
  obs::Telemetry* telemetry = nullptr;

  /// Overrides; default to the paper's Figure 3 schedule / classes.
  std::optional<workload::WorkloadSchedule> schedule;
  std::optional<sched::ServiceClassSet> classes;

  /// Sanity-checks the configuration (positive durations/limits, engine
  /// parameters, class min-shares summing below 1, schedule/class id
  /// agreement). RunExperiment aborts on an invalid config; callers
  /// accepting external input should Validate first.
  Status Validate() const;
};

/// Plain-data outcome of a run: the per-period series each figure plots,
/// plus engine/system accounting.
struct ExperimentResult {
  ControllerKind controller = ControllerKind::kNoControl;
  int num_periods = 0;
  double period_seconds = 0.0;

  /// Per class id.
  std::map<int, std::vector<double>> velocity_series;
  std::map<int, std::vector<double>> response_series;
  std::map<int, std::vector<int>> completed_series;
  std::map<int, int> periods_meeting_goal;
  /// SLO attainment per class: periods_meeting_goal over the periods
  /// that completed at least one query of the class.
  std::map<int, double> attainment_ratio;
  std::map<int, double> overall_velocity;
  std::map<int, double> overall_response;
  std::map<int, int> overall_completed;

  /// Query Scheduler only: cost-limit decisions over time (Fig. 7) and
  /// the per-period mean limit per class.
  std::map<int, sim::TimeSeries> limit_history;
  std::map<int, std::vector<double>> period_mean_limits;
  double oltp_model_slope = 0.0;

  double cpu_utilization = 0.0;
  double disk_utilization = 0.0;
  uint64_t total_completed = 0;
  uint64_t engine_queries_completed = 0;

  /// Simulator events executed during the run — the DES hot-path work.
  uint64_t sim_events_processed = 0;
  /// Host wall-clock seconds spent inside the simulation loop. The only
  /// non-deterministic field in the result; reported as the
  /// `qsched_sim_wall_seconds` / `qsched_sim_events_per_second` telemetry
  /// gauges and by bench/perf_bench.
  double wall_seconds = 0.0;

  /// Set when ExperimentConfig::capture_trace was true.
  std::shared_ptr<metrics::RecordLog> trace;

  /// End-of-run metrics registry snapshot (empty unless
  /// ExperimentConfig::telemetry was set).
  std::vector<obs::MetricSnapshot> metric_snapshot;

  /// Derived control-loop observability, filled only for telemetry-enabled
  /// Query Scheduler runs (empty otherwise): per-class SLO attainment at
  /// control-interval granularity, violation-event counts, and the
  /// prediction ledger's residual summaries.
  std::map<int, double> interval_attainment;
  std::map<int, int> slo_violation_events;
  std::map<int, obs::ResidualStats> prediction_residuals;
};

/// Runs one full experiment (schedule x controller) and extracts the
/// figure series. Deterministic for a given config.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               ControllerKind kind);

/// A Fig. 2-style measurement: constant client mix, static OLAP cost
/// limit, measured after warmup. Returns the OLTP class's mean response
/// time (seconds), and through `out_olap_throughput` (optional) the OLAP
/// completion rate — the system-cost-limit curve uses the same runner.
double MeasureOltpResponse(const ExperimentConfig& base, int oltp_clients,
                           int olap_clients, double olap_cost_limit,
                           double duration_seconds,
                           double* out_olap_throughput = nullptr);

/// Derives DB2 QP's large/medium thresholds (95th/80th cost percentiles)
/// by sampling the OLAP workload's cost distribution.
void DeriveQpThresholds(const ExperimentConfig& config,
                        double* large_threshold, double* medium_threshold);

}  // namespace qsched::harness

#endif  // QSCHED_HARNESS_EXPERIMENT_H_
