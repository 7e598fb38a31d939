#include "scheduler/mpl_controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace qsched::sched {

MplController::MplController(sim::Clock* simulator,
                             engine::ExecutionEngine* engine,
                             const ServiceClassSet* classes,
                             const Options& options)
    : simulator_(simulator),
      classes_(classes),
      options_(options),
      interceptor_(simulator, engine, options.interceptor),
      monitor_(simulator),
      snapshot_(simulator, engine, options.snapshot) {
  for (const ServiceClassSpec& spec : classes_->classes()) {
    if (spec.type != workload::WorkloadType::kOlap) continue;
    auto it = options_.initial_mpl.find(spec.class_id);
    mpl_[spec.class_id] =
        it != options_.initial_mpl.end() ? it->second : 4;
    measured_velocity_[spec.class_id] = spec.goal_value;
  }
  interceptor_.set_on_arrived(
      [this](const qp::QueryInfoRecord& record) { OnArrived(record); });
  interceptor_.set_on_finished(
      [this](const qp::QueryInfoRecord& record) { OnFinished(record); });
  interceptor_.set_on_cancelled(
      [this](const qp::QueryInfoRecord& record) {
        auto it = queues_.find(record.class_id);
        if (it == queues_.end()) return;
        for (auto q = it->second.begin(); q != it->second.end(); ++q) {
          if (*q == record.query_id) {
            it->second.erase(q);
            break;
          }
        }
      });
}

void MplController::Start(sim::SimTime until) {
  snapshot_.Start(until);
  if (!options_.adaptive) return;
  simulator_->SchedulePeriodic(options_.control_interval_seconds, until,
                               [this] { ControlOnce(); });
}

void MplController::Submit(const workload::Query& query,
                           CompleteFn on_complete) {
  if (query.type == workload::WorkloadType::kOltp) {
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

int MplController::MplFor(int class_id) const {
  auto it = mpl_.find(class_id);
  return it != mpl_.end() ? it->second : 0;
}

void MplController::OnArrived(const qp::QueryInfoRecord& record) {
  queues_[record.class_id].push_back(record.query_id);
  TryRelease();
}

void MplController::OnFinished(const qp::QueryInfoRecord& record) {
  (void)record;
  TryRelease();
}

void MplController::TryRelease() {
  bool released = true;
  while (released) {
    released = false;
    for (auto& [class_id, queue] : queues_) {
      if (queue.empty()) continue;
      if (interceptor_.running_count(class_id) >= MplFor(class_id)) {
        continue;
      }
      uint64_t id = queue.front();
      queue.pop_front();
      Status st = interceptor_.Release(id);
      QSCHED_CHECK(st.ok()) << st.ToString();
      released = true;
    }
  }
}

void MplController::ControlOnce() {
  std::map<int, ClassIntervalStats> stats = monitor_.Harvest();
  for (auto& [class_id, velocity] : measured_velocity_) {
    auto it = stats.find(class_id);
    if (it != stats.end() && it->second.outcome.completed > 0) {
      velocity = it->second.outcome.MeanVelocity();
    }
  }

  const ServiceClassSpec* oltp_spec = nullptr;
  for (const ServiceClassSpec& spec : classes_->classes()) {
    if (spec.type == workload::WorkloadType::kOltp) oltp_spec = &spec;
  }
  double fallback = oltp_spec != nullptr ? oltp_spec->goal_value : 0.25;
  measured_oltp_response_ = snapshot_.HarvestAvgResponse(fallback);

  if (oltp_spec != nullptr &&
      measured_oltp_response_ > oltp_spec->goal_value) {
    // OLTP violating: squeeze every OLAP class.
    for (auto& [class_id, mpl] : mpl_) {
      mpl = std::max(options_.min_mpl, mpl - 1);
    }
  } else if (oltp_spec == nullptr ||
             measured_oltp_response_ <
                 options_.oltp_slack * oltp_spec->goal_value) {
    // Comfortable OLTP slack: grow the OLAP class furthest below goal.
    int worst_class = -1;
    double worst_ratio = 1.0;
    for (const ServiceClassSpec& spec : classes_->classes()) {
      if (spec.type != workload::WorkloadType::kOlap) continue;
      double ratio = spec.GoalRatio(measured_velocity_[spec.class_id]);
      if (ratio < worst_ratio) {
        worst_ratio = ratio;
        worst_class = spec.class_id;
      }
    }
    if (worst_class >= 0) {
      mpl_[worst_class] =
          std::min(options_.max_mpl, mpl_[worst_class] + 1);
    }
  }
  TryRelease();
}

}  // namespace qsched::sched
