#ifndef QSCHED_METRICS_PERIOD_COLLECTOR_H_
#define QSCHED_METRICS_PERIOD_COLLECTOR_H_

#include <map>

#include "metrics/class_outcome.h"
#include "scheduler/service_class.h"
#include "workload/client.h"
#include "workload/schedule.h"

namespace qsched::metrics {

/// Buckets finished queries into the experiment's periods (by completion
/// time) — the quantity Figures 4-6 plot per period.
class PeriodCollector {
 public:
  explicit PeriodCollector(const workload::WorkloadSchedule* schedule);

  void Add(const workload::QueryRecord& record);

  int num_periods() const { return schedule_->num_periods(); }
  const ClassOutcome& Get(int period, int class_id) const;

  /// Per-class aggregate over all periods.
  ClassOutcome Overall(int class_id) const;

  /// Number of periods in which `spec`'s goal was met
  /// (ClassOutcome::MeetsGoal).
  int PeriodsMeetingGoal(const sched::ServiceClassSpec& spec) const;

  /// SLO attainment: PeriodsMeetingGoal over the periods that completed
  /// at least one query of the class (idle periods are neither met nor
  /// missed). 0 when no period has data.
  double AttainmentRatio(const sched::ServiceClassSpec& spec) const;

  uint64_t total_records() const { return total_records_; }

 private:
  const workload::WorkloadSchedule* schedule_;
  /// (period, class) -> stats.
  std::map<std::pair<int, int>, ClassOutcome> cells_;
  uint64_t total_records_ = 0;
};

}  // namespace qsched::metrics

#endif  // QSCHED_METRICS_PERIOD_COLLECTOR_H_
