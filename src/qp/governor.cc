#include "qp/governor.h"

#include <vector>

namespace qsched::qp {

Governor::Governor(sim::Clock* simulator, Interceptor* interceptor,
                   const Options& options)
    : simulator_(simulator), interceptor_(interceptor), options_(options) {}

void Governor::Start(sim::SimTime until) {
  simulator_->SchedulePeriodic(options_.sweep_interval_seconds, until,
                               [this] { SweepOnce(); });
}

int Governor::SweepOnce() {
  double now = simulator_->Now();
  // Collect first: cancelling mutates the table under our feet.
  std::vector<uint64_t> expired;
  interceptor_->control_table().ForEachQueued(
      [&](const QueryInfoRecord& record) {
        if (now - record.intercept_time > options_.max_queue_seconds) {
          expired.push_back(record.query_id);
        }
      });
  int cancelled = 0;
  for (uint64_t id : expired) {
    if (interceptor_->CancelQueued(id).ok()) {
      ++cancelled;
      ++total_cancelled_;
    }
  }
  return cancelled;
}

}  // namespace qsched::qp
