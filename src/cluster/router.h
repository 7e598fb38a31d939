#ifndef QSCHED_CLUSTER_ROUTER_H_
#define QSCHED_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/backend_pool.h"
#include "net/service.h"
#include "obs/telemetry.h"

namespace qsched::cluster {

struct RouterOptions {
  BackendTuning tuning;
  /// Placements attempted per query before giving up with
  /// kBackendUnavailable (initial dispatch counts as the first).
  int max_attempts = 3;
};

/// Lifetime accounting of the router, read for NETLOAD-style reporting
/// and the conservation identity. Every SUBMIT the router accepts from
/// its front server (`offered`) resolves exactly one way:
///
///   offered == accepted + rejected_relayed + rejected_unroutable
///
/// `failovers` and `retries` are event counters layered on top (a query
/// that fails over and then lands counts once in accepted), so they do
/// not appear in the identity.
struct RouterAccounting {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  /// Backend said no (queue full / shutting down); relayed verbatim.
  uint64_t rejected_relayed = 0;
  /// The router itself said no: no usable backend, or attempts
  /// exhausted — surfaced as REJECTED{BACKEND_UNAVAILABLE}.
  uint64_t rejected_unroutable = 0;
  uint64_t completions_relayed = 0;
  /// Completions synthesized as cancelled because the owning backend
  /// died after accepting.
  uint64_t cancelled_completions = 0;
  uint64_t failovers = 0;
  uint64_t retries = 0;
};

/// The cluster front: a net::QueryService that fans SUBMITs over a
/// BackendPool. Mounted behind a net::Server, so the router speaks the
/// same v1/v2 wire protocol on its front socket that each backend
/// speaks on its back sockets — clients cannot tell a router from a
/// single backend.
///
/// Every Submit is deferred: the verdict arrives once a backend has
/// ruled (or routing gave up). The router wraps the caller's callbacks
/// with its accounting before handing them to a channel, so the
/// conservation identity holds no matter which thread or channel
/// resolves the query.
class Router : public net::QueryService {
 public:
  Router(const std::vector<BackendAddress>& backends,
         const RouterOptions& options, obs::Telemetry* telemetry = nullptr);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the backend channels; see BackendPool::Start.
  Status Start();

  /// Stops routing. Call AFTER the front net::Server has stopped (its
  /// drain needs the channels alive to relay verdicts). Remaining
  /// in-flight queries resolve per the channel Stop contract; then the
  /// conservation identity is checked (violations log to stderr and
  /// make ConservationHolds() return false).
  void Stop();

  // net::QueryService:
  net::SubmitDisposition Submit(const workload::Query& query,
                                bool want_trace, VerdictFn on_verdict,
                                CompleteFn on_complete) override;
  net::WireStats Stats() override;
  bool shutting_down() override;

  RouterAccounting Accounting() const;

  /// offered == accepted + rejected_relayed + rejected_unroutable, with
  /// every in-flight query resolved. Meaningful after Stop().
  bool ConservationHolds() const;

  BackendPool& pool() { return *pool_; }

  /// Plain-text backend table for /statusz: one row per backend with
  /// health, circuit, in-flight, queue depth, attainment and lifetime
  /// counters, followed by the accounting summary.
  std::string StatuszTable() const;

  /// Observer invoked synchronously for every query the router takes in
  /// (counted `offered`), before routing — the trace-capture point, the
  /// same contract as rt::Gateway::set_on_offer. Must be cheap and
  /// non-blocking. Set before Start().
  void set_on_offer(std::function<void(const workload::Query&)> fn) {
    on_offer_ = std::move(fn);
  }

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// Places `item` on the best usable backend, skipping `exclude` when
  /// possible. Rejects with kBackendUnavailable when nothing is usable.
  void Dispatch(RoutedQuery item, const BackendChannel* exclude);
  /// Channel hand-back for verdict-pending queries on a dead backend.
  void OnFailover(RoutedQuery item, BackendChannel* from);

  obs::Histogram* RouteStageHist(int class_id);
  obs::Counter* RoutedCounter(const BackendChannel* target, int class_id);

  RouterOptions options_;
  obs::Telemetry* telemetry_;
  std::function<void(const workload::Query&)> on_offer_;
  std::unique_ptr<BackendPool> pool_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_relayed_{0};
  std::atomic<uint64_t> rejected_unroutable_{0};
  std::atomic<uint64_t> completions_relayed_{0};
  std::atomic<uint64_t> cancelled_completions_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> retries_{0};

  obs::Counter* failover_counter_ = nullptr;
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* unroutable_counter_ = nullptr;

  std::mutex metric_mu_;
  std::map<int, obs::Histogram*> route_stage_hists_;
  std::map<std::pair<int, int>, obs::Counter*> routed_counters_;
};

}  // namespace qsched::cluster

#endif  // QSCHED_CLUSTER_ROUTER_H_
