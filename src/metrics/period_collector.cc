#include "metrics/period_collector.h"

namespace qsched::metrics {

namespace {
const ClassOutcome kEmptyStats;
}  // namespace

PeriodCollector::PeriodCollector(const workload::WorkloadSchedule* schedule)
    : schedule_(schedule) {}

void PeriodCollector::Add(const workload::QueryRecord& record) {
  ++total_records_;
  int period = schedule_->PeriodAt(record.end_time);
  cells_[{period, record.class_id}].Add(record);
}

const ClassOutcome& PeriodCollector::Get(int period, int class_id) const {
  auto it = cells_.find({period, class_id});
  return it != cells_.end() ? it->second : kEmptyStats;
}

ClassOutcome PeriodCollector::Overall(int class_id) const {
  ClassOutcome total;
  for (const auto& [key, cell] : cells_) {
    if (key.second == class_id) total += cell;
  }
  return total;
}

int PeriodCollector::PeriodsMeetingGoal(
    const sched::ServiceClassSpec& spec) const {
  int met = 0;
  for (int p = 0; p < num_periods(); ++p) {
    if (Get(p, spec.class_id).MeetsGoal(spec)) ++met;
  }
  return met;
}

double PeriodCollector::AttainmentRatio(
    const sched::ServiceClassSpec& spec) const {
  int with_data = 0;
  for (int p = 0; p < num_periods(); ++p) {
    if (Get(p, spec.class_id).completed > 0) ++with_data;
  }
  if (with_data == 0) return 0.0;
  return static_cast<double>(PeriodsMeetingGoal(spec)) / with_data;
}

}  // namespace qsched::metrics
