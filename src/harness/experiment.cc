#include "harness/experiment.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "metrics/period_collector.h"
#include "workload/client.h"

namespace qsched::harness {

const char* ControllerKindToString(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kNoControl:
      return "no-control";
    case ControllerKind::kQpNoPriority:
      return "qp-static";
    case ControllerKind::kQpPriority:
      return "qp-priority";
    case ControllerKind::kQueryScheduler:
      return "query-scheduler";
    case ControllerKind::kMpl:
      return "mpl";
    case ControllerKind::kQsDirectOltp:
      return "qs-direct-oltp";
  }
  return "unknown";
}

Status ExperimentConfig::Validate() const {
  if (period_seconds <= 0.0) {
    return Status::InvalidArgument("period_seconds must be positive");
  }
  if (system_cost_limit <= 0.0) {
    return Status::InvalidArgument("system_cost_limit must be positive");
  }
  if (engine.num_cpus < 1 || engine.num_disks < 1) {
    return Status::InvalidArgument("engine needs >=1 CPU and >=1 disk");
  }
  if (engine.disk_seconds_per_page <= 0.0 ||
      engine.min_chunk_pages <= 0.0 || engine.max_chunks_per_query < 1) {
    return Status::InvalidArgument("engine I/O parameters out of range");
  }
  if (tpch.scale_factor <= 0.0) {
    return Status::InvalidArgument("tpch.scale_factor must be positive");
  }
  if (tpcc.warehouses < 1) {
    return Status::InvalidArgument("tpcc.warehouses must be >= 1");
  }
  if (qs.control_interval_seconds <= 0.0) {
    return Status::InvalidArgument("control interval must be positive");
  }
  if (qp_olap_limit_fraction <= 0.0 || qp_olap_limit_fraction > 1.0) {
    return Status::InvalidArgument(
        "qp_olap_limit_fraction outside (0, 1]");
  }
  const sched::ServiceClassSet& class_set =
      classes.has_value() ? *classes : sched::MakePaperClasses();
  if (class_set.size() == 0) {
    return Status::InvalidArgument("no service classes defined");
  }
  double min_share_sum = 0.0;
  for (const sched::ServiceClassSpec& spec : class_set.classes()) {
    if (spec.goal_value <= 0.0) {
      return Status::InvalidArgument(
          StrPrintf("class %d has non-positive goal", spec.class_id));
    }
    if (spec.importance < 1) {
      return Status::InvalidArgument(
          StrPrintf("class %d importance must be >= 1", spec.class_id));
    }
    min_share_sum += spec.min_share;
  }
  if (min_share_sum > 1.0 + 1e-9) {
    return Status::InvalidArgument("class min shares exceed the total");
  }
  if (schedule.has_value()) {
    if (schedule->num_periods() == 0) {
      return Status::InvalidArgument("schedule has no periods");
    }
    for (const sched::ServiceClassSpec& spec : class_set.classes()) {
      bool listed = false;
      for (int id : schedule->class_ids()) {
        if (id == spec.class_id) listed = true;
      }
      if (!listed) {
        return Status::InvalidArgument(
            StrPrintf("class %d missing from schedule", spec.class_id));
      }
    }
  }
  return Status::OK();
}

void DeriveQpThresholds(const ExperimentConfig& config,
                        double* large_threshold, double* medium_threshold) {
  workload::TpchWorkload sampler(config.tpch, config.seed ^ 0x9d7f3u);
  std::vector<double> costs = sampler.SampleCosts(2000);
  // Top 5% of queries are "large", the next 15% "medium" (paper §4.1.2).
  *large_threshold = sim::Percentile(costs, 0.95);
  *medium_threshold = sim::Percentile(costs, 0.80);
}

namespace {

/// Owns every live object of one run; keeps construction order safe.
struct Bench {
  sim::Simulator simulator;
  std::unique_ptr<engine::ExecutionEngine> engine;
  workload::WorkloadSchedule schedule{1.0, {}};
  sched::ServiceClassSet classes;
  std::map<int, std::unique_ptr<workload::QueryGenerator>> generators;
  std::unique_ptr<workload::QueryFrontend> frontend;
  // Non-owning views into `frontend` (one is set by BuildController).
  sched::QueryScheduler* qs = nullptr;
  sched::MplController* mpl = nullptr;
  qp::QpController* qp = nullptr;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
};

void BuildController(const ExperimentConfig& config, ControllerKind kind,
                     Bench* bench) {
  double total_seconds = bench->schedule.total_seconds();
  switch (kind) {
    case ControllerKind::kNoControl: {
      auto controller = std::make_unique<qp::QpController>(
          &bench->simulator, bench->engine.get(), config.interceptor,
          qp::QpStaticConfig::NoControl(config.system_cost_limit));
      bench->qp = controller.get();
      bench->frontend = std::move(controller);
      return;
    }
    case ControllerKind::kQpNoPriority:
    case ControllerKind::kQpPriority: {
      qp::QpStaticConfig qp_config;
      qp_config.system_cost_limit = config.system_cost_limit;
      qp_config.olap_cost_limit =
          config.qp_olap_limit_fraction * config.system_cost_limit;
      DeriveQpThresholds(config, &qp_config.large_cost_threshold,
                         &qp_config.medium_cost_threshold);
      qp_config.max_large_concurrent = config.qp_max_large;
      qp_config.max_medium_concurrent = config.qp_max_medium;
      qp_config.max_small_concurrent = config.qp_max_small;
      if (kind == ControllerKind::kQpPriority) {
        qp_config.priority_enabled = true;
        for (const sched::ServiceClassSpec& spec :
             bench->classes.classes()) {
          // Importance doubles as QP priority in the static baseline.
          qp_config.class_priority[spec.class_id] = spec.importance;
        }
      }
      auto controller = std::make_unique<qp::QpController>(
          &bench->simulator, bench->engine.get(), config.interceptor,
          qp_config);
      bench->qp = controller.get();
      bench->frontend = std::move(controller);
      return;
    }
    case ControllerKind::kQueryScheduler:
    case ControllerKind::kQsDirectOltp: {
      sched::QuerySchedulerConfig qs_config = config.qs;
      qs_config.system_cost_limit = config.system_cost_limit;
      qs_config.interceptor = config.interceptor;
      qs_config.telemetry = config.telemetry;
      if (kind == ControllerKind::kQsDirectOltp) {
        qs_config.control_oltp_directly = true;
        // Future-work assumption: control inside the DBMS is ~free.
        qs_config.interceptor.oltp_interception_delay_seconds = 0.002;
        qs_config.interceptor.oltp_interception_cpu_seconds = 0.0005;
      }
      auto controller = std::make_unique<sched::QueryScheduler>(
          &bench->simulator, bench->engine.get(), &bench->classes,
          qs_config);
      controller->Start(total_seconds);
      bench->qs = controller.get();
      bench->frontend = std::move(controller);
      return;
    }
    case ControllerKind::kMpl: {
      sched::MplController::Options options = config.mpl;
      options.interceptor = config.interceptor;
      auto controller = std::make_unique<sched::MplController>(
          &bench->simulator, bench->engine.get(), &bench->classes, options);
      controller->Start(total_seconds);
      bench->mpl = controller.get();
      bench->frontend = std::move(controller);
      return;
    }
  }
  QSCHED_CHECK(false) << "unhandled controller kind";
}

void BuildBench(const ExperimentConfig& config, ControllerKind kind,
                metrics::PeriodCollector** collector_out, Bench* bench,
                std::unique_ptr<metrics::PeriodCollector>* collector_box,
                std::shared_ptr<metrics::RecordLog> trace = nullptr) {
  Rng master(config.seed);
  bench->engine = std::make_unique<engine::ExecutionEngine>(
      &bench->simulator, config.engine, master.Fork(1));
  if (config.telemetry != nullptr) {
    bench->engine->set_telemetry(config.telemetry);
  }
  bench->schedule = config.schedule.has_value()
                        ? *config.schedule
                        : workload::MakeFigure3Schedule(
                              config.period_seconds);
  bench->classes = config.classes.has_value() ? *config.classes
                                              : sched::MakePaperClasses();

  for (const sched::ServiceClassSpec& spec : bench->classes.classes()) {
    uint64_t seed = config.seed + 1000u * static_cast<uint64_t>(
                                              spec.class_id + 1);
    if (spec.type == workload::WorkloadType::kOlap) {
      bench->generators[spec.class_id] =
          std::make_unique<workload::TpchWorkload>(config.tpch, seed);
    } else {
      bench->generators[spec.class_id] =
          std::make_unique<workload::TpccWorkload>(config.tpcc, seed);
    }
  }

  BuildController(config, kind, bench);

  *collector_box =
      std::make_unique<metrics::PeriodCollector>(&bench->schedule);
  metrics::PeriodCollector* collector = collector_box->get();
  *collector_out = collector;

  for (const sched::ServiceClassSpec& spec : bench->classes.classes()) {
    bench->pools.push_back(std::make_unique<workload::ClientPool>(
        &bench->simulator, &bench->schedule, spec.class_id,
        bench->generators[spec.class_id].get(), bench->frontend.get(),
        [collector, trace](const workload::QueryRecord& record) {
          collector->Add(record);
          if (trace != nullptr) trace->Add(record);
        }));
    if (config.telemetry != nullptr) {
      bench->pools.back()->set_telemetry(config.telemetry);
    }
  }
  for (auto& pool : bench->pools) pool->Start();
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               ControllerKind kind) {
  Status valid = config.Validate();
  QSCHED_CHECK(valid.ok()) << valid.ToString();
  // A DES run's history is its output (figures, exports, reports).
  if (config.telemetry != nullptr) config.telemetry->KeepFullHistory();
  Bench bench;
  std::unique_ptr<metrics::PeriodCollector> collector_box;
  metrics::PeriodCollector* collector = nullptr;
  std::shared_ptr<metrics::RecordLog> trace;
  if (config.capture_trace) {
    trace = std::make_shared<metrics::RecordLog>(config.trace_capacity);
  }
  BuildBench(config, kind, &collector, &bench, &collector_box, trace);

  double total_seconds = bench.schedule.total_seconds();
  auto run_start = std::chrono::steady_clock::now();
  bench.simulator.RunUntil(total_seconds);
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  ExperimentResult result;
  result.controller = kind;
  result.num_periods = bench.schedule.num_periods();
  result.period_seconds = bench.schedule.period_seconds();
  for (const sched::ServiceClassSpec& spec : bench.classes.classes()) {
    int id = spec.class_id;
    result.velocity_series[id] = collector->VelocitySeries(id);
    result.response_series[id] = collector->ResponseSeries(id);
    result.completed_series[id] = collector->CompletedSeries(id);
    result.periods_meeting_goal[id] = collector->PeriodsMeetingGoal(spec);
    result.attainment_ratio[id] = collector->AttainmentRatio(spec);
    metrics::PeriodClassStats overall = collector->Overall(id);
    result.overall_velocity[id] = overall.MeanVelocity();
    result.overall_response[id] = overall.MeanResponse();
    result.overall_completed[id] = overall.completed;
  }
  if (bench.qs != nullptr) {
    result.limit_history = bench.qs->limit_history();
    result.oltp_model_slope = bench.qs->oltp_model().slope();
    for (const auto& [class_id, series] : result.limit_history) {
      std::vector<double> means;
      for (int p = 0; p < result.num_periods; ++p) {
        double t0 = p * result.period_seconds;
        double t1 = t0 + result.period_seconds;
        double mean = series.MeanInWindow(t0, t1);
        if (mean <= 0.0) mean = series.LastBefore(t1, 0.0);
        means.push_back(mean);
      }
      result.period_mean_limits[class_id] = std::move(means);
    }
  }
  result.cpu_utilization = bench.engine->cpu_pool().Utilization();
  result.disk_utilization = bench.engine->disk_array().Utilization();
  result.total_completed = collector->total_records();
  result.engine_queries_completed = bench.engine->queries_completed();
  result.sim_events_processed = bench.simulator.events_processed();
  result.wall_seconds = wall_seconds;
  result.trace = std::move(trace);
  if (config.telemetry != nullptr) {
    // Simulator throughput for --metrics-out: how fast the DES core
    // chewed through this run on the host.
    config.telemetry->registry.GetGauge("qsched_sim_wall_seconds")
        ->Set(wall_seconds);
    config.telemetry->registry.GetGauge("qsched_sim_events_per_second")
        ->Set(wall_seconds > 0.0
                  ? static_cast<double>(result.sim_events_processed) /
                        wall_seconds
                  : 0.0);
    // Final gauge refresh so the snapshot carries end-of-run utilization.
    bench.engine->RefreshTelemetryGauges();
    if (bench.qs != nullptr) {
      for (const sched::ServiceClassSpec& spec : bench.classes.classes()) {
        int id = spec.class_id;
        result.interval_attainment[id] =
            config.telemetry->slo.OverallAttainment(id);
        result.slo_violation_events[id] =
            static_cast<int>(config.telemetry->slo.EventCount(id));
        result.prediction_residuals[id] =
            config.telemetry->ledger.StatsFor(id);
      }
    }
    result.metric_snapshot = config.telemetry->registry.Snapshot();
  }
  return result;
}

double MeasureOltpResponse(const ExperimentConfig& base, int oltp_clients,
                           int olap_clients, double olap_cost_limit,
                           double duration_seconds,
                           double* out_olap_throughput) {
  ExperimentConfig config = base;

  // Two equal periods: warmup + measurement window.
  workload::WorkloadSchedule schedule(duration_seconds / 2.0, {1, 3});
  schedule.AddPeriod({olap_clients, oltp_clients});
  schedule.AddPeriod({olap_clients, oltp_clients});
  config.schedule = schedule;

  sched::ServiceClassSet classes;
  sched::ServiceClassSpec olap;
  olap.class_id = 1;
  olap.name = "olap";
  olap.type = workload::WorkloadType::kOlap;
  olap.goal_kind = sched::GoalKind::kVelocityFloor;
  olap.goal_value = 0.5;
  classes.Add(olap);
  sched::ServiceClassSpec oltp;
  oltp.class_id = 3;
  oltp.name = "oltp";
  oltp.type = workload::WorkloadType::kOltp;
  oltp.goal_kind = sched::GoalKind::kAvgResponseCeiling;
  oltp.goal_value = 0.25;
  classes.Add(oltp);
  config.classes = classes;

  Bench bench;
  std::unique_ptr<metrics::PeriodCollector> collector_box;
  metrics::PeriodCollector* collector = nullptr;

  // Static OLAP cost limit via the QP mechanism, groups unlimited.
  qp::QpStaticConfig qp_config;
  qp_config.system_cost_limit = olap_cost_limit;
  qp_config.olap_cost_limit = olap_cost_limit;

  // Manual build so the custom QP config is used.
  Rng master(config.seed);
  bench.engine = std::make_unique<engine::ExecutionEngine>(
      &bench.simulator, config.engine, master.Fork(1));
  bench.schedule = *config.schedule;
  bench.classes = *config.classes;
  bench.generators[1] =
      std::make_unique<workload::TpchWorkload>(config.tpch, config.seed + 7);
  bench.generators[3] =
      std::make_unique<workload::TpccWorkload>(config.tpcc, config.seed + 9);
  auto controller = std::make_unique<qp::QpController>(
      &bench.simulator, bench.engine.get(), config.interceptor, qp_config);
  bench.frontend = std::move(controller);
  collector_box =
      std::make_unique<metrics::PeriodCollector>(&bench.schedule);
  collector = collector_box.get();
  for (const sched::ServiceClassSpec& spec : bench.classes.classes()) {
    bench.pools.push_back(std::make_unique<workload::ClientPool>(
        &bench.simulator, &bench.schedule, spec.class_id,
        bench.generators[spec.class_id].get(), bench.frontend.get(),
        [collector](const workload::QueryRecord& record) {
          collector->Add(record);
        }));
  }
  for (auto& pool : bench.pools) pool->Start();

  bench.simulator.RunUntil(bench.schedule.total_seconds());

  // Read only the second (post-warmup) period.
  const metrics::PeriodClassStats& oltp_cell = collector->Get(1, 3);
  if (out_olap_throughput != nullptr) {
    const metrics::PeriodClassStats& olap_cell = collector->Get(1, 1);
    *out_olap_throughput =
        olap_cell.completed / bench.schedule.period_seconds();
  }
  return oltp_cell.MeanResponse();
}

}  // namespace qsched::harness
