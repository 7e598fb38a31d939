#include "replay/replayer.h"

#include <algorithm>
#include <memory>

namespace qsched::replay {

std::vector<const TraceRecord*> ArrivalOrder(const TraceReadResult& trace) {
  std::vector<const TraceRecord*> order;
  order.reserve(trace.records.size());
  for (const TraceRecord& record : trace.records) order.push_back(&record);
  auto earlier = [](const TraceRecord* a, const TraceRecord* b) {
    return a->arrival_ns < b->arrival_ns;
  };
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), earlier);
  }
  return order;
}

TraceSource::TraceSource(const std::vector<const TraceRecord*>& order,
                         int connection, const ReplayOptions& options)
    : order_(order),
      rank_(static_cast<size_t>(connection)),
      stride_(static_cast<size_t>(options.connections)),
      speed_(options.speed),
      connection_(connection),
      codec_(options.tpch, options.tpcc,
             options.seed + static_cast<uint64_t>(connection)) {}

bool TraceSource::Next(double* due_seconds, workload::Query* query) {
  if (rank_ >= order_.size()) return false;
  const TraceRecord& record = *order_[rank_];
  rank_ += stride_;
  *due_seconds =
      static_cast<double>(record.arrival_ns - order_[0]->arrival_ns) / 1e9 /
      speed_;
  *query = codec_.Materialize(record);
  query->client_id = connection_;
  return true;
}

Replayer::Replayer(const TraceReadResult& trace,
                   const ReplayOptions& options, obs::Telemetry* telemetry)
    : trace_(trace), options_(options) {
  if (options_.connections < 1) options_.connections = 1;
  if (options_.speed <= 0.0) options_.speed = 1.0;
  driver_.host = options_.host;
  driver_.port = options_.port;
  driver_.connections = options_.connections;
  driver_.max_outstanding = options_.max_outstanding;
  if (telemetry != nullptr) {
    obs::Registry& reg = telemetry->registry;
    driver_.rtt = reg.GetHistogram("qsched_replay_rtt_seconds");
    driver_.offered = reg.GetCounter("qsched_replay_offered_total");
    driver_.completed = reg.GetCounter("qsched_replay_completed_total");
  }
}

Result<net::LoadReport> Replayer::Run() {
  // Sorted once; each connection owns the records whose rank %
  // connections is its index, so the partition is deterministic whatever
  // the capture-side thread interleaving.
  const std::vector<const TraceRecord*> order = ArrivalOrder(trace_);
  return net::DriveWire(driver_, [&](int index) {
    return std::make_unique<TraceSource>(order, index, options_);
  });
}

}  // namespace qsched::replay
