#include "cluster/backend_pool.h"

#include <limits>
#include <utility>

#include "common/deadline.h"

namespace qsched::cluster {

BackendPool::BackendPool(const std::vector<BackendAddress>& addresses,
                         const BackendTuning& tuning,
                         BackendChannel::FailoverFn on_failover,
                         obs::Telemetry* telemetry) {
  channels_.reserve(addresses.size());
  for (size_t i = 0; i < addresses.size(); ++i) {
    channels_.push_back(std::make_unique<BackendChannel>(
        addresses[i], tuning, static_cast<int>(i), on_failover, telemetry));
    // Notifying under the lock closes the gap between a waiter's
    // predicate check and its block: the flip cannot land unseen.
    channels_.back()->OnUsableChanged([this] {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready_cv_.notify_all();
    });
  }
  if (telemetry != nullptr) {
    score_hist_ =
        telemetry->registry.GetHistogram("qsched_cluster_backend_score");
  }
}

Status BackendPool::Start() {
  Status first = Status::OK();
  for (auto& channel : channels_) {
    Status started = channel->Start();
    if (first.ok()) first = started;
  }
  return first;
}

void BackendPool::Stop() {
  for (auto& channel : channels_) channel->Stop();
}

BackendChannel* BackendPool::Pick(int class_id,
                                  const BackendChannel* exclude) {
  BackendChannel* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  bool best_healthy = false;
  for (auto& channel : channels_) {
    if (channel.get() == exclude) continue;
    if (!channel->Usable()) continue;
    const BackendSnapshot snap = channel->Snapshot();
    if (snap.health == BackendHealth::kEjected) continue;
    const bool healthy = snap.health == BackendHealth::kHealthy;
    const double load = static_cast<double>(snap.router_in_flight) +
                        static_cast<double>(snap.queue_depth);
    double deficit = 0.0;
    auto it = snap.attainment.find(class_id);
    if (it != snap.attainment.end()) deficit = 1.0 - it->second;
    const double score =
        BackendScore(load, deficit, channel->tuning().attainment_weight);
    if (score_hist_ != nullptr) score_hist_->Record(score);
    // Healthy strictly outranks degraded; score breaks ties within the
    // same tier.
    if (healthy && !best_healthy) {
      best = channel.get();
      best_score = score;
      best_healthy = true;
    } else if (healthy == best_healthy && score < best_score) {
      best = channel.get();
      best_score = score;
    }
  }
  return best;
}

std::vector<BackendSnapshot> BackendPool::Snapshots() const {
  std::vector<BackendSnapshot> out;
  out.reserve(channels_.size());
  for (const auto& channel : channels_) out.push_back(channel->Snapshot());
  return out;
}

size_t BackendPool::CountUsable() const {
  size_t usable = 0;
  for (const auto& channel : channels_) {
    if (channel->Usable()) ++usable;
  }
  return usable;
}

size_t BackendPool::WaitUsable(size_t min_usable,
                               double timeout_seconds) const {
  const SteadyTime deadline = DeadlineAfter(timeout_seconds);
  std::unique_lock<std::mutex> lock(ready_mu_);
  size_t usable = 0;
  ready_cv_.wait_until(lock, deadline, [&] {
    usable = CountUsable();
    return usable >= min_usable;
  });
  return usable;
}

}  // namespace qsched::cluster
