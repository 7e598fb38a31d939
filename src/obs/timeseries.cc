#include "obs/timeseries.h"

#include <utility>

#include "common/strings.h"

namespace qsched::obs {

TimeSeriesRecorder::TimeSeriesRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRecorder::Append(IntervalRow row) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rows_.size() >= capacity_) {
    rows_.pop_front();
    ++dropped_;
  }
  rows_.push_back(std::move(row));
}

void TimeSeriesRecorder::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (rows_.size() > capacity_) {
    rows_.pop_front();
    ++dropped_;
  }
}

size_t TimeSeriesRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

uint64_t TimeSeriesRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<IntervalRow> TimeSeriesRecorder::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<IntervalRow>(rows_.begin(), rows_.end());
}

void TimeSeriesRecorder::WriteCsv(std::ostream& out) const {
  std::vector<IntervalRow> rows = Rows();
  out << "interval,sim_time,class_id,is_oltp,cost_limit,measured,"
         "goal_ratio,queue_depth,admitted_cost,completed_in_interval,"
         "solver_wall_seconds,solver_utility,"
         "stage_gateway_queue_seconds,stage_dispatch_seconds,"
         "stage_execute_seconds\n";
  for (const IntervalRow& row : rows) {
    for (const IntervalClassSample& cls : row.classes) {
      out << StrPrintf(
          "%llu,%.9g,%d,%d,%.9g,%.9g,%.9g,%d,%.9g,%d,%.9g,%.9g,"
          "%.9g,%.9g,%.9g\n",
          static_cast<unsigned long long>(row.interval), row.sim_time,
          cls.class_id, cls.is_oltp ? 1 : 0, cls.cost_limit, cls.measured,
          cls.goal_ratio, cls.queue_depth, cls.admitted_cost,
          cls.completed_in_interval, row.solver_wall_seconds,
          row.solver_utility, cls.stage_gateway_queue_seconds,
          cls.stage_dispatch_seconds, cls.stage_execute_seconds);
    }
  }
}

void TimeSeriesRecorder::WriteJson(std::ostream& out) const {
  std::vector<IntervalRow> rows = Rows();
  out << "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const IntervalRow& row = rows[i];
    if (i > 0) out << ",";
    out << StrPrintf(
        "\n{\"interval\":%llu,\"sim_time\":%.9g,"
        "\"solver_wall_seconds\":%.9g,\"solver_utility\":%.9g,"
        "\"classes\":[",
        static_cast<unsigned long long>(row.interval), row.sim_time,
        row.solver_wall_seconds, row.solver_utility);
    for (size_t c = 0; c < row.classes.size(); ++c) {
      const IntervalClassSample& cls = row.classes[c];
      if (c > 0) out << ",";
      out << StrPrintf(
          "{\"class_id\":%d,\"is_oltp\":%s,\"cost_limit\":%.9g,"
          "\"measured\":%.9g,\"goal_ratio\":%.9g,\"queue_depth\":%d,"
          "\"admitted_cost\":%.9g,\"completed_in_interval\":%d,"
          "\"stage_gateway_queue_seconds\":%.9g,"
          "\"stage_dispatch_seconds\":%.9g,"
          "\"stage_execute_seconds\":%.9g}",
          cls.class_id, cls.is_oltp ? "true" : "false", cls.cost_limit,
          cls.measured, cls.goal_ratio, cls.queue_depth,
          cls.admitted_cost, cls.completed_in_interval,
          cls.stage_gateway_queue_seconds, cls.stage_dispatch_seconds,
          cls.stage_execute_seconds);
    }
    out << "]}";
  }
  out << "\n]\n";
}

}  // namespace qsched::obs
