#ifndef QSCHED_SCHEDULER_QUERY_SCHEDULER_H_
#define QSCHED_SCHEDULER_QUERY_SCHEDULER_H_

#include <cstddef>
#include <limits>
#include <map>

#include "engine/execution_engine.h"
#include "obs/telemetry.h"
#include "qp/interceptor.h"
#include "scheduler/dispatcher.h"
#include "scheduler/monitor.h"
#include "scheduler/perf_models.h"
#include "scheduler/service_class.h"
#include "scheduler/greedy_allocator.h"
#include "scheduler/snapshot_monitor.h"
#include "scheduler/solver.h"
#include "scheduler/workload_detector.h"
#include "sim/clock.h"
#include "sim/stats.h"
#include "workload/client.h"

namespace qsched::sched {

struct QuerySchedulerConfig {
  /// The system cost limit: sum of all class cost limits. Determined
  /// experimentally as the under-saturation knee of the throughput vs.
  /// cost-limit curve (the paper uses 300K timerons; see
  /// bench/system_cost_limit_curve).
  double system_cost_limit = 300000.0;
  /// The Scheduling Planner consults the Performance Solver at this
  /// interval. It must be long enough for a few OLAP completions to land
  /// per interval, or velocity measurements get noisy.
  double control_interval_seconds = 60.0;
  /// CPU billed to the engine per planning cycle (solver + monitoring).
  double planning_cpu_seconds = 0.005;
  /// EWMA weight on the newest interval measurement (1 = no smoothing).
  /// OLAP velocity measurements come from a handful of completions per
  /// interval, so some smoothing steadies the plans.
  double measurement_smoothing = 0.6;
  /// Fraction of the way the enforced plan moves toward the solver's
  /// optimum each interval (1 = jump immediately). Rate limiting prevents
  /// admission bursts: a big jump in an OLAP limit releases several
  /// queued scans at once, which slams the disks, spikes OLTP response,
  /// and sends the controller into a limit cycle.
  double plan_step_fraction = 0.5;
  /// Future-work extension: admit OLTP through the interceptor too
  /// (with the near-zero in-engine overhead overrides) instead of the
  /// paper's indirect control.
  bool control_oltp_directly = false;
  /// Workload-detection extension: when true, the planner biases its
  /// performance inputs by the detector's predicted arrival-rate change
  /// (a class about to get busier is planned for as if already slower),
  /// and a detected abrupt shift makes the planner trust the newest
  /// measurement outright instead of the smoothed one.
  bool proactive_planning = false;
  /// Which allocation algorithm the Scheduling Planner consults:
  /// the paper's utility-maximizing search, or the economic-model-style
  /// greedy marginal-utility auction (extension).
  enum class Allocator { kUtilitySearch, kGreedyAuction };
  Allocator allocator = Allocator::kUtilitySearch;
  GreedyAllocator::Options greedy;
  /// Strength of the proactive bias; the rate ratio is clamped to
  /// [1/(1+gain), 1+gain] before it scales the inputs.
  double proactive_gain = 0.5;
  WorkloadDetector::Options detector;
  /// Telemetry sink shared by the scheduler and all its sub-components
  /// (nullptr = observability off, the default). Must outlive the
  /// scheduler. When set: SLO/cost-limit gauges, a planner audit record
  /// per control interval, and per-query spans if the sink's SpanLog is
  /// enabled.
  obs::Telemetry* telemetry = nullptr;
  qp::InterceptorConfig interceptor;
  SnapshotMonitor::Options snapshot;
  PerformanceSolver::Options solver;
  OltpResponseModel::Options oltp_model;
};

/// The paper's Query Scheduler (Figure 1): Monitor, Classifier,
/// Dispatcher, Scheduling Planner and Performance Solver assembled on top
/// of the Query Patroller interception mechanism.
///
/// * OLAP queries are intercepted, classified into their service class
///   queue, and released under the class cost limits of the current plan.
/// * OLTP queries bypass interception (its overhead dwarfs their
///   execution time) and are controlled indirectly: the planner shrinks
///   the OLAP limits when the OLTP class misses its response-time goal.
class QueryScheduler : public workload::QueryFrontend {
 public:
  QueryScheduler(sim::Clock* simulator,
                 engine::ExecutionEngine* engine,
                 const ServiceClassSet* classes,
                 const QuerySchedulerConfig& config);

  /// Starts the planning loop and the snapshot sampler as periodic clock
  /// timers; both run until model time `until` (infinity: until the
  /// clock stops). The DES and the rt runtime both call this.
  void Start(sim::SimTime until);

  void Submit(const workload::Query& query, CompleteFn on_complete) override;

  const SchedulingPlan& current_plan() const { return dispatcher_.plan(); }
  /// Cost-limit decisions over time, per class (the Fig. 7 series):
  /// every interval's, or the last set_limit_history_capacity() of them.
  const std::map<int, sim::TimeSeries>& limit_history() const {
    return limit_history_;
  }
  /// Keeps only the latest `intervals` points per class in
  /// limit_history() (a live server's window; the planner never reads
  /// it). Unbounded by default.
  void set_limit_history_capacity(size_t intervals) {
    limit_history_capacity_ = intervals;
  }
  const OltpResponseModel& oltp_model() const { return oltp_model_; }
  qp::Interceptor& interceptor() { return interceptor_; }
  Dispatcher& dispatcher() { return dispatcher_; }
  Monitor& monitor() { return monitor_; }
  SnapshotMonitor& snapshot_monitor() { return snapshot_; }
  WorkloadDetector& workload_detector() { return detector_; }
  uint64_t planning_cycles() const { return planning_cycles_; }
  /// Latest accepted per-class measurements (velocity / response).
  const std::map<int, double>& measurements() const { return measured_; }

 private:
  /// Cached metric handles for one service class (registered once in the
  /// constructor; the per-query and per-interval paths never build label
  /// strings).
  struct ClassTelemetry {
    obs::Counter* submitted = nullptr;
    obs::Gauge* slo_goal = nullptr;
    obs::Gauge* slo_measured = nullptr;
    obs::Gauge* slo_goal_ratio = nullptr;
    obs::Gauge* cost_limit = nullptr;
    obs::Gauge* slo_attainment = nullptr;
  };

  /// One Scheduling Planner cycle: harvest measurements, update the OLTP
  /// model, solve for new limits, hand the plan to the Dispatcher.
  void PlanOnce();
  /// Builds the per-interval decision audit record, refreshes the SLO
  /// gauges, and feeds the derived observability layer: resolves last
  /// interval's predictions in the ledger, observes SLO attainment,
  /// appends the interval time-series row, and records this interval's
  /// model predictions for the enforced plan. `raw` holds the un-smoothed
  /// interval measurements (-1 when a class had none); `input` is the
  /// exact state the Performance Solver searched with.
  void RecordPlanAudit(const std::map<int, ClassIntervalStats>& stats,
                       const std::map<int, WorkloadSignal>& signals,
                       const std::map<int, double>& raw,
                       double oltp_response, const SolverInput& input,
                       const SchedulingPlan& target,
                       const SchedulingPlan& next,
                       double solver_wall_seconds);
  /// The Classifier: validates the query's class against the class set.
  bool Classify(const workload::Query& query) const;
  SchedulingPlan InitialPlan() const;
  double OlapTotalOf(const SchedulingPlan& plan) const;

  sim::Clock* simulator_;
  engine::ExecutionEngine* engine_;
  const ServiceClassSet* classes_;
  QuerySchedulerConfig config_;
  qp::Interceptor interceptor_;
  Dispatcher dispatcher_;
  Monitor monitor_;
  SnapshotMonitor snapshot_;
  WorkloadDetector detector_;
  OltpResponseModel oltp_model_;
  PerformanceSolver solver_;
  GreedyAllocator greedy_;

  /// Latest accepted measurement per class (velocity or response).
  std::map<int, double> measured_;
  /// Measurement and OLAP-limit state of the previous interval, for the
  /// regression update.
  double prev_oltp_response_ = -1.0;
  double prev_olap_total_ = -1.0;
  std::map<int, sim::TimeSeries> limit_history_;
  size_t limit_history_capacity_ = std::numeric_limits<size_t>::max();
  uint64_t planning_cycles_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* planning_cycles_counter_ = nullptr;
  obs::Gauge* planner_utility_gauge_ = nullptr;
  std::map<int, ClassTelemetry> class_telemetry_;
};

}  // namespace qsched::sched

#endif  // QSCHED_SCHEDULER_QUERY_SCHEDULER_H_
