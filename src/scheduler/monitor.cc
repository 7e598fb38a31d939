#include "scheduler/monitor.h"

#include "common/strings.h"
#include "obs/stage_trace.h"

namespace qsched::sched {

Monitor::Monitor(sim::Clock* simulator) : simulator_(simulator) {
  window_start_ = simulator_->Now();
}

void Monitor::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  records_counter_ =
      telemetry_->registry.GetCounter("qsched_monitor_records_total");
}

obs::Histogram* Monitor::VelocityHistogram(int class_id) {
  auto it = velocity_hists_.find(class_id);
  if (it == velocity_hists_.end()) {
    obs::Histogram* hist = telemetry_->registry.GetHistogram(
        "qsched_monitor_velocity_ratio",
        StrPrintf("class=\"%d\"", class_id));
    it = velocity_hists_.emplace(class_id, hist).first;
  }
  return it->second;
}

void Monitor::AddRecord(const workload::QueryRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++records_total_;
  if (telemetry_ != nullptr) {
    records_counter_->Inc();
    VelocityHistogram(record.class_id)->Record(record.Velocity());
  }
  Accumulator& acc = acc_[record.class_id];
  acc.outcome.Add(record);
  if (record.trace != nullptr && record.trace->HasExecStart()) {
    // The gateway stamps `completed` only after this callback returns,
    // so the execute stage is measured to "now" — the record is on the
    // completion path, microseconds short of the final stamp.
    const obs::QueryStageTrace& trace = *record.trace;
    acc.traced += 1;
    acc.stage_gateway_queue_sum += trace.GatewayQueueSeconds();
    acc.stage_dispatch_sum += trace.DispatchSeconds();
    acc.stage_execute_sum += obs::QueryStageTrace::Seconds(
        trace.exec_start, obs::QueryStageTrace::Clock::now());
  }
}

std::map<int, ClassIntervalStats> Monitor::Harvest() {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, ClassIntervalStats> out;
  double elapsed = simulator_->Now() - window_start_;
  for (const auto& [class_id, acc] : acc_) {
    ClassIntervalStats stats;
    stats.outcome = acc.outcome;
    if (elapsed > 0.0) {
      stats.throughput_per_second =
          static_cast<double>(acc.outcome.completed) / elapsed;
    }
    if (acc.traced > 0) {
      double traced = static_cast<double>(acc.traced);
      stats.mean_stage_gateway_queue_seconds =
          acc.stage_gateway_queue_sum / traced;
      stats.mean_stage_dispatch_seconds = acc.stage_dispatch_sum / traced;
      stats.mean_stage_execute_seconds = acc.stage_execute_sum / traced;
    }
    out[class_id] = stats;
  }
  acc_.clear();
  window_start_ = simulator_->Now();
  return out;
}

uint64_t Monitor::records_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_total_;
}

}  // namespace qsched::sched
