#ifndef QSCHED_METRICS_CLASS_OUTCOME_H_
#define QSCHED_METRICS_CLASS_OUTCOME_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/logging.h"
#include "scheduler/service_class.h"
#include "workload/client.h"

namespace qsched::metrics {

/// The paper's per-class outcome of a set of finished queries: mean
/// velocity judges an OLAP class, mean response time an OLTP class.
/// Cancelled queries are counted but never enter the means. The figure
/// periods, the planner's Monitor, the what-if worlds and the capture
/// summary all measure with it. Header-only, so the scheduler can use it
/// without a link cycle (qsched_metrics links qsched_scheduler).
struct ClassOutcome {
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  double velocity_sum = 0.0;
  double response_sum = 0.0;
  double exec_sum = 0.0;

  void Add(const workload::QueryRecord& record) {
    if (record.cancelled) {
      ++cancelled;
      return;
    }
    ++completed;
    velocity_sum += record.Velocity();
    response_sum += record.ResponseSeconds();
    exec_sum += record.ExecSeconds();
  }
  ClassOutcome& operator+=(const ClassOutcome& other) {
    completed += other.completed;
    cancelled += other.cancelled;
    velocity_sum += other.velocity_sum;
    response_sum += other.response_sum;
    exec_sum += other.exec_sum;
    return *this;
  }

  double MeanVelocity() const { return Mean(velocity_sum); }
  double MeanResponse() const { return Mean(response_sum); }
  double MeanExec() const { return Mean(exec_sum); }
  /// The mean `spec`'s goal judges: velocity or response seconds.
  double Measured(const sched::ServiceClassSpec& spec) const {
    return spec.goal_kind == sched::GoalKind::kVelocityFloor
               ? MeanVelocity()
               : MeanResponse();
  }
  /// True when at least one query completed and the mean meets the goal.
  bool MeetsGoal(const sched::ServiceClassSpec& spec) const {
    return completed > 0 && spec.GoalRatio(Measured(spec)) >= 1.0;
  }

 private:
  double Mean(double sum) const {
    return completed > 0 ? sum / static_cast<double>(completed) : 0.0;
  }
};

/// Streams finished queries into one run-long ClassOutcome per class,
/// plus goal attainment over end-time buckets: a completion falls in
/// bucket floor(end_time / bucket_seconds), and a class's bucket is
/// judged once a completion of the class starts a later one. Only the
/// open bucket is kept, so memory is O(classes) however long the run.
/// A completion that ends in an earlier bucket than its class's open one
/// (out of end-time order) joins the open bucket. Not synchronized.
class OutcomeTally {
 public:
  OutcomeTally(const sched::ServiceClassSet& classes, double bucket_seconds)
      : bucket_seconds_(bucket_seconds) {
    QSCHED_CHECK(std::isfinite(bucket_seconds) && bucket_seconds > 0.0)
        << "outcome bucket width must be finite and positive";
    for (const sched::ServiceClassSpec& spec : classes.classes()) {
      classes_[spec.class_id].spec = spec;
    }
  }

  /// Folds in one finished query; a class outside the set is ignored.
  void Add(const workload::QueryRecord& record) {
    auto it = classes_.find(record.class_id);
    if (it == classes_.end()) return;
    PerClass& c = it->second;
    const auto bucket =
        static_cast<int64_t>(std::floor(record.end_time / bucket_seconds_));
    if (bucket > c.open_bucket) {
      Close(&c);
      c.open_bucket = bucket;
    }
    c.total.Add(record);
    c.open.Add(record);
  }

  /// The class's run total (all zero for a class outside the set).
  const ClassOutcome& Total(int class_id) const {
    static const ClassOutcome kEmpty;
    auto it = classes_.find(class_id);
    return it != classes_.end() ? it->second.total : kEmpty;
  }

  /// Share of the buckets with completions whose mean met the goal, the
  /// open bucket judged as if closed; 0 when no bucket has completions.
  double Attainment(int class_id) const {
    auto it = classes_.find(class_id);
    if (it == classes_.end()) return 0.0;
    PerClass c = it->second;
    Close(&c);
    return c.with_data > 0 ? static_cast<double>(c.met) /
                                 static_cast<double>(c.with_data)
                           : 0.0;
  }

 private:
  struct PerClass {
    sched::ServiceClassSpec spec;
    ClassOutcome total;
    ClassOutcome open;
    int64_t open_bucket = std::numeric_limits<int64_t>::min();
    /// Closed buckets with completions, and those that met the goal.
    uint64_t with_data = 0;
    uint64_t met = 0;
  };

  static void Close(PerClass* c) {
    if (c->open.completed > 0) {
      ++c->with_data;
      if (c->open.MeetsGoal(c->spec)) ++c->met;
    }
    c->open = ClassOutcome();
  }

  double bucket_seconds_;
  std::map<int, PerClass> classes_;
};

}  // namespace qsched::metrics

#endif  // QSCHED_METRICS_CLASS_OUTCOME_H_
