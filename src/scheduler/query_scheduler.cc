#include "scheduler/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace qsched::sched {

QueryScheduler::QueryScheduler(sim::Clock* simulator,
                               engine::ExecutionEngine* engine,
                               const ServiceClassSet* classes,
                               const QuerySchedulerConfig& config)
    : simulator_(simulator),
      engine_(engine),
      classes_(classes),
      config_(config),
      interceptor_(simulator, engine, config.interceptor),
      dispatcher_(&interceptor_),
      monitor_(simulator),
      snapshot_(simulator, engine, config.snapshot),
      detector_(config.detector),
      oltp_model_(config.oltp_model),
      solver_(config.solver),
      greedy_(config.greedy) {
  interceptor_.set_on_arrived([this](const qp::QueryInfoRecord& record) {
    dispatcher_.OnArrived(record);
  });
  interceptor_.set_on_finished([this](const qp::QueryInfoRecord& record) {
    dispatcher_.OnFinished(record);
  });
  interceptor_.set_on_cancelled(
      [this](const qp::QueryInfoRecord& record) {
        dispatcher_.OnCancelled(record);
      });
  // Neutral initial measurements: every class assumed exactly at goal.
  for (const ServiceClassSpec& spec : classes_->classes()) {
    measured_[spec.class_id] = spec.goal_value;
  }
  if (config_.telemetry != nullptr) {
    telemetry_ = config_.telemetry;
    interceptor_.set_telemetry(telemetry_);
    dispatcher_.set_telemetry(telemetry_);
    monitor_.set_telemetry(telemetry_);
    snapshot_.set_telemetry(telemetry_);
    obs::Registry& reg = telemetry_->registry;
    planning_cycles_counter_ =
        reg.GetCounter("qsched_planner_cycles_total");
    planner_utility_gauge_ = reg.GetGauge("qsched_planner_utility");
    for (const ServiceClassSpec& spec : classes_->classes()) {
      std::string labels = StrPrintf("class=\"%d\"", spec.class_id);
      ClassTelemetry& handles = class_telemetry_[spec.class_id];
      handles.submitted =
          reg.GetCounter("qsched_scheduler_submitted_total", labels);
      handles.slo_goal = reg.GetGauge("qsched_slo_goal", labels);
      handles.slo_measured = reg.GetGauge("qsched_slo_measured", labels);
      handles.slo_goal_ratio =
          reg.GetGauge("qsched_slo_goal_ratio", labels);
      handles.cost_limit =
          reg.GetGauge("qsched_cost_limit_timerons", labels);
      handles.slo_attainment =
          reg.GetGauge("qsched_slo_attainment", labels);
      handles.slo_goal->Set(spec.goal_value);
      handles.slo_measured->Set(measured_[spec.class_id]);
      handles.slo_goal_ratio->Set(
          spec.GoalRatio(measured_[spec.class_id]));
    }
  }
  dispatcher_.SetPlan(InitialPlan());
  if (telemetry_ != nullptr) {
    for (const auto& [class_id, limit] : dispatcher_.plan().cost_limits) {
      auto it = class_telemetry_.find(class_id);
      if (it != class_telemetry_.end()) it->second.cost_limit->Set(limit);
    }
  }
}

SchedulingPlan QueryScheduler::InitialPlan() const {
  SchedulingPlan plan;
  size_t n = classes_->size();
  if (n == 0) return plan;
  double equal = 1.0 / static_cast<double>(n);
  for (const ServiceClassSpec& spec : classes_->classes()) {
    double share = std::max(spec.min_share, equal);
    plan.cost_limits[spec.class_id] = share * config_.system_cost_limit;
  }
  // Normalize to the system cost limit.
  double total = plan.Total();
  if (total > 0.0) {
    for (auto& [id, limit] : plan.cost_limits) {
      limit *= config_.system_cost_limit / total;
    }
  }
  return plan;
}

void QueryScheduler::Start(sim::SimTime until) {
  snapshot_.Start(until);
  double interval = config_.control_interval_seconds;
  QSCHED_CHECK(interval > 0.0) << "control interval must be positive";
  simulator_->SchedulePeriodic(interval, until, [this] { PlanOnce(); });
}

bool QueryScheduler::Classify(const workload::Query& query) const {
  return classes_->Find(query.class_id) != nullptr;
}

void QueryScheduler::Submit(const workload::Query& query,
                            CompleteFn on_complete) {
  if (telemetry_ != nullptr) {
    telemetry_->spans.OnSubmit(
        query.id, query.class_id,
        query.type == workload::WorkloadType::kOltp, simulator_->Now());
  }
  QSCHED_CHECK(Classify(query))
      << "query with unknown service class " << query.class_id;
  if (telemetry_ != nullptr) {
    telemetry_->spans.OnClassify(query.id, simulator_->Now());
    auto it = class_telemetry_.find(query.class_id);
    if (it != class_telemetry_.end()) it->second.submitted->Inc();
  }
  detector_.RecordArrival(query.class_id);
  bool direct = query.type != workload::WorkloadType::kOltp ||
                config_.control_oltp_directly;
  if (!direct) {
    // Paper path: OLTP bypasses interception; the snapshot monitor is the
    // only performance source for the class.
    interceptor_.Bypass(
        query, [this, on_complete = std::move(on_complete)](
                   const workload::QueryRecord& record) {
          snapshot_.RecordCompletion(record);
          if (on_complete) on_complete(record);
        });
    return;
  }
  interceptor_.Intercept(
      query, [this, on_complete = std::move(on_complete)](
                 const workload::QueryRecord& record) {
        monitor_.AddRecord(record);
        if (on_complete) on_complete(record);
      });
}

double QueryScheduler::OlapTotalOf(const SchedulingPlan& plan) const {
  double total = 0.0;
  for (const ServiceClassSpec& spec : classes_->classes()) {
    if (spec.type == workload::WorkloadType::kOlap) {
      total += plan.LimitFor(spec.class_id);
    }
  }
  return total;
}

void QueryScheduler::PlanOnce() {
  ++planning_cycles_;
  if (config_.planning_cpu_seconds > 0.0) {
    engine_->cpu_pool().Submit(config_.planning_cpu_seconds, [] {});
  }

  std::map<int, ClassIntervalStats> stats = monitor_.Harvest();
  std::map<int, WorkloadSignal> signals =
      detector_.Harvest(config_.control_interval_seconds);
  const SchedulingPlan& current = dispatcher_.plan();
  double olap_total_now = OlapTotalOf(current);

  // Refresh per-class measurements. A detected workload shift makes the
  // newest measurement authoritative (the smoothed history is stale).
  // `raw` keeps the un-smoothed interval values for the audit trail.
  double base_alpha = std::clamp(config_.measurement_smoothing, 0.01, 1.0);
  double oltp_response = -1.0;
  std::map<int, double> raw;
  for (const ServiceClassSpec& spec : classes_->classes()) {
    double alpha = base_alpha;
    auto signal_it = signals.find(spec.class_id);
    if (config_.proactive_planning && signal_it != signals.end() &&
        signal_it->second.change_detected) {
      alpha = 1.0;
    }
    raw[spec.class_id] = -1.0;
    if (spec.type == workload::WorkloadType::kOlap) {
      auto it = stats.find(spec.class_id);
      if (it != stats.end() && it->second.completed > 0) {
        raw[spec.class_id] = it->second.mean_velocity;
        measured_[spec.class_id] =
            alpha * it->second.mean_velocity +
            (1.0 - alpha) * measured_[spec.class_id];
      }
      continue;
    }
    // OLTP measurement source depends on the control mode.
    if (config_.control_oltp_directly) {
      auto it = stats.find(spec.class_id);
      if (it != stats.end() && it->second.completed > 0) {
        raw[spec.class_id] = it->second.mean_response_seconds;
        measured_[spec.class_id] = it->second.mean_response_seconds;
      }
    } else {
      double sampled =
          snapshot_.HarvestAvgResponse(measured_[spec.class_id]);
      raw[spec.class_id] = sampled;
      measured_[spec.class_id] =
          alpha * sampled + (1.0 - alpha) * measured_[spec.class_id];
    }
    oltp_response = measured_[spec.class_id];
  }

  // Feed the regression with the interval-to-interval deltas.
  if (!config_.control_oltp_directly && oltp_response >= 0.0 &&
      prev_oltp_response_ >= 0.0 && prev_olap_total_ >= 0.0) {
    oltp_model_.Update(prev_oltp_response_, oltp_response,
                       prev_olap_total_, olap_total_now);
  }
  prev_oltp_response_ = oltp_response;
  prev_olap_total_ = olap_total_now;

  // Solve for the next plan.
  SolverInput input;
  input.total_cost_limit = config_.system_cost_limit;
  input.oltp_model = &oltp_model_;
  for (const ServiceClassSpec& spec : classes_->classes()) {
    SolverInput::ClassState state;
    state.spec = &spec;
    state.measured = measured_[spec.class_id];
    state.current_limit = current.LimitFor(spec.class_id);
    state.directly_controlled =
        spec.type == workload::WorkloadType::kOltp &&
        config_.control_oltp_directly;
    if (config_.proactive_planning) {
      // Bias inputs by the predicted arrival-rate change: a class about
      // to get busier is planned for as if already slower.
      auto signal_it = signals.find(spec.class_id);
      if (signal_it != signals.end() && signal_it->second.level > 1e-9) {
        const WorkloadSignal& signal = signal_it->second;
        double gain = std::max(0.0, config_.proactive_gain);
        double ratio =
            std::clamp(signal.predicted_rate / signal.level,
                       1.0 / (1.0 + gain), 1.0 + gain);
        if (spec.goal_kind == GoalKind::kAvgResponseCeiling) {
          state.measured *= ratio;  // busier -> expect slower responses
        } else {
          state.measured /= ratio;  // busier -> expect lower velocity
        }
      }
    }
    input.classes.push_back(state);
  }
  auto solve_start = std::chrono::steady_clock::now();
  SchedulingPlan target =
      config_.allocator == QuerySchedulerConfig::Allocator::kGreedyAuction
          ? greedy_.Solve(input)
          : solver_.Solve(input);
  double solver_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_start)
          .count();

  // Rate-limit: move only part of the way toward the optimum, then
  // renormalize so the limits still sum to the system cost limit.
  double step = std::clamp(config_.plan_step_fraction, 0.05, 1.0);
  SchedulingPlan next;
  next.predicted_utility = target.predicted_utility;
  double sum = 0.0;
  for (const auto& [class_id, limit] : target.cost_limits) {
    double blended =
        current.LimitFor(class_id) +
        step * (limit - current.LimitFor(class_id));
    next.cost_limits[class_id] = blended;
    sum += blended;
  }
  if (sum > 0.0) {
    for (auto& [class_id, limit] : next.cost_limits) {
      limit *= config_.system_cost_limit / sum;
    }
  }
  for (const auto& [class_id, limit] : next.cost_limits) {
    sim::TimeSeries& history = limit_history_[class_id];
    history.Append(simulator_->Now(), limit);
    history.KeepLast(limit_history_capacity_);
  }
  if (telemetry_ != nullptr) {
    // Audit before SetPlan so queue depths reflect what the planner saw,
    // not the releases the new plan triggers.
    RecordPlanAudit(stats, signals, raw, oltp_response, input, target,
                    next, solver_wall_seconds);
  }
  dispatcher_.SetPlan(next);
}

void QueryScheduler::RecordPlanAudit(
    const std::map<int, ClassIntervalStats>& stats,
    const std::map<int, WorkloadSignal>& signals,
    const std::map<int, double>& raw, double oltp_response,
    const SolverInput& input, const SchedulingPlan& target,
    const SchedulingPlan& next, double solver_wall_seconds) {
  planning_cycles_counter_->Inc();
  planner_utility_gauge_->Set(target.predicted_utility);

  obs::PlannerAuditRecord record;
  record.interval = planning_cycles_;
  record.sim_time = simulator_->Now();
  record.system_cost_limit = config_.system_cost_limit;
  record.oltp_response = oltp_response;
  record.solver_utility = target.predicted_utility;
  record.allocator =
      config_.allocator == QuerySchedulerConfig::Allocator::kGreedyAuction
          ? "greedy-auction"
          : "utility-search";
  obs::IntervalRow row;
  row.interval = planning_cycles_;
  row.sim_time = record.sim_time;
  row.solver_wall_seconds = solver_wall_seconds;
  row.solver_utility = target.predicted_utility;
  for (const ServiceClassSpec& spec : classes_->classes()) {
    obs::PlannerAuditClass cls;
    cls.class_id = spec.class_id;
    cls.is_oltp = spec.type == workload::WorkloadType::kOltp;
    cls.goal = spec.goal_value;
    auto raw_it = raw.find(spec.class_id);
    if (raw_it != raw.end()) cls.measured_raw = raw_it->second;
    cls.measured_smoothed = measured_.at(spec.class_id);
    cls.goal_ratio = spec.GoalRatio(cls.measured_smoothed);
    auto stats_it = stats.find(spec.class_id);
    if (stats_it != stats.end()) {
      cls.completed_in_interval = stats_it->second.completed;
    }
    cls.queue_depth = dispatcher_.QueuedFor(spec.class_id);
    cls.running = interceptor_.running_count(spec.class_id);
    cls.running_cost = interceptor_.running_cost(spec.class_id);
    auto signal_it = signals.find(spec.class_id);
    if (signal_it != signals.end()) {
      cls.arrival_rate = signal_it->second.arrival_rate;
      cls.predicted_rate = signal_it->second.predicted_rate;
      cls.change_detected = signal_it->second.change_detected;
    }
    cls.target_limit = target.LimitFor(spec.class_id);
    cls.enforced_limit = next.LimitFor(spec.class_id);
    record.classes.push_back(cls);

    // Resolve last interval's prediction against the same smoothed
    // measurement the audit record carries (bit-identical doubles), then
    // fold this interval into the attainment windows.
    telemetry_->ledger.Observe(planning_cycles_, spec.class_id,
                               cls.measured_smoothed);
    telemetry_->slo.Observe(spec.class_id, planning_cycles_,
                            record.sim_time, cls.goal_ratio);

    obs::IntervalClassSample sample;
    sample.class_id = spec.class_id;
    sample.is_oltp = cls.is_oltp;
    sample.cost_limit = cls.enforced_limit;
    sample.measured = cls.measured_smoothed;
    sample.goal_ratio = cls.goal_ratio;
    sample.queue_depth = cls.queue_depth;
    sample.admitted_cost = cls.running_cost;
    sample.completed_in_interval = cls.completed_in_interval;
    if (stats_it != stats.end()) {
      sample.stage_gateway_queue_seconds =
          stats_it->second.mean_stage_gateway_queue_seconds;
      sample.stage_dispatch_seconds =
          stats_it->second.mean_stage_dispatch_seconds;
      sample.stage_execute_seconds =
          stats_it->second.mean_stage_execute_seconds;
    }
    row.classes.push_back(sample);

    auto handle_it = class_telemetry_.find(spec.class_id);
    if (handle_it != class_telemetry_.end()) {
      ClassTelemetry& handles = handle_it->second;
      handles.slo_measured->Set(cls.measured_smoothed);
      handles.slo_goal_ratio->Set(cls.goal_ratio);
      handles.cost_limit->Set(cls.enforced_limit);
      handles.slo_attainment->Set(
          telemetry_->slo.RollingAttainment(spec.class_id));
    }
  }
  telemetry_->audit.Add(std::move(record));
  telemetry_->recorder.Append(std::move(row));

  // What the planner expects each class to deliver next interval under
  // the plan it just enforced — resolved when interval k+1 lands above.
  std::map<int, double> predicted = PredictPerformance(input, next);
  double slope = oltp_model_.slope();
  for (const ServiceClassSpec& spec : classes_->classes()) {
    auto it = predicted.find(spec.class_id);
    if (it == predicted.end()) continue;
    telemetry_->ledger.Predict(planning_cycles_, spec.class_id,
                               spec.type == workload::WorkloadType::kOltp,
                               it->second, slope);
  }
}

}  // namespace qsched::sched
