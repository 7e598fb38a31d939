#ifndef QSCHED_CLUSTER_BACKEND_POOL_H_
#define QSCHED_CLUSTER_BACKEND_POOL_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/backend.h"
#include "cluster/backend_channel.h"
#include "obs/telemetry.h"

namespace qsched::cluster {

/// Owns one BackendChannel per configured backend and answers the
/// routing question: "which backend should take the next query of class
/// C?" Selection is least-loaded weighted by SLO-attainment deficit
/// (see BackendScore): among healthy backends the lowest score wins;
/// when none is healthy a degraded-but-connected backend is used;
/// ejected / circuit-open backends are never picked.
class BackendPool {
 public:
  BackendPool(const std::vector<BackendAddress>& addresses,
              const BackendTuning& tuning,
              BackendChannel::FailoverFn on_failover,
              obs::Telemetry* telemetry = nullptr);

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Starts every channel; returns the first channel's failure (that
  /// channel stays down, the others run).
  Status Start();
  void Stop();

  /// Picks the best usable backend for `class_id`, skipping `exclude`
  /// (the channel a failover came from). Returns nullptr when no usable
  /// backend exists — including when only `exclude` is usable, so a
  /// failed-over query is not bounced straight back to the backend that
  /// just dropped it; the caller may re-Pick without the exclusion
  /// before giving up.
  BackendChannel* Pick(int class_id, const BackendChannel* exclude);

  std::vector<BackendSnapshot> Snapshots() const;

  /// Blocks until at least `min_usable` backends are usable or the
  /// timeout elapses (+inf waits without bound). Returns the usable
  /// count at exit. Woken by the channels, not polled.
  size_t WaitUsable(size_t min_usable, double timeout_seconds) const;

  size_t size() const { return channels_.size(); }
  BackendChannel* channel(size_t i) { return channels_[i].get(); }

 private:
  size_t CountUsable() const;

  // Readiness wakeups: a channel thread locks ready_mu_ and notifies
  // ready_cv_ after its Usable() flips. Declared before channels_ so they
  // outlive every channel thread, which may still signal as it exits
  // during the pool's destruction.
  mutable std::mutex ready_mu_;
  mutable std::condition_variable ready_cv_;
  std::vector<std::unique_ptr<BackendChannel>> channels_;
  obs::Histogram* score_hist_ = nullptr;
};

}  // namespace qsched::cluster

#endif  // QSCHED_CLUSTER_BACKEND_POOL_H_
