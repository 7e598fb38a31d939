#include "scheduler/snapshot_monitor.h"

namespace qsched::sched {

SnapshotMonitor::SnapshotMonitor(sim::Clock* simulator,
                                 engine::ExecutionEngine* engine,
                                 const Options& options)
    : simulator_(simulator), engine_(engine), options_(options) {}

void SnapshotMonitor::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::Registry& reg = telemetry_->registry;
  snapshots_counter_ =
      reg.GetCounter("qsched_snapshot_monitor_snapshots_total");
  sampled_clients_gauge_ =
      reg.GetGauge("qsched_snapshot_monitor_sampled_clients");
  avg_response_hist_ =
      reg.GetHistogram("qsched_snapshot_monitor_avg_response_seconds");
}

void SnapshotMonitor::Start(sim::SimTime until) {
  simulator_->SchedulePeriodic(options_.sample_interval_seconds, until,
                               [this] { TakeSnapshot(); });
}

void SnapshotMonitor::RecordCompletion(
    const workload::QueryRecord& record) {
  last_response_[record.client_id] =
      ClientRow{record.ResponseSeconds(), simulator_->Now()};
}

void SnapshotMonitor::TakeSnapshot() {
  ++snapshots_taken_;
  // Expire rows of disconnected/idle clients.
  double cutoff = simulator_->Now() - options_.staleness_window_seconds;
  for (auto it = last_response_.begin(); it != last_response_.end();) {
    if (it->second.updated_at < cutoff) {
      it = last_response_.erase(it);
    } else {
      ++it;
    }
  }
  if (!last_response_.empty()) {
    double sum = 0.0;
    for (const auto& [client, row] : last_response_) {
      sum += row.response_seconds;
    }
    double avg = sum / static_cast<double>(last_response_.size());
    sample_sum_ += avg;
    sample_count_ += 1;
    if (telemetry_ != nullptr) avg_response_hist_->Record(avg);
  }
  if (telemetry_ != nullptr) {
    snapshots_counter_->Inc();
    sampled_clients_gauge_->Set(
        static_cast<double>(last_response_.size()));
  }
  // Reading the snapshot tables costs CPU per client row.
  double overhead = options_.per_client_cpu_seconds *
                    static_cast<double>(last_response_.size());
  if (overhead > 0.0 && engine_ != nullptr) {
    engine_->cpu_pool().Submit(overhead, [] {});
    total_overhead_cpu_seconds_ += overhead;
  }
}

double SnapshotMonitor::HarvestAvgResponse(double fallback) {
  double result;
  if (sample_count_ > 0) {
    result = sample_sum_ / static_cast<double>(sample_count_);
    last_known_avg_ = result;
  } else if (last_known_avg_ >= 0.0) {
    result = last_known_avg_;
  } else {
    result = fallback;
  }
  sample_sum_ = 0.0;
  sample_count_ = 0;
  return result;
}

}  // namespace qsched::sched
