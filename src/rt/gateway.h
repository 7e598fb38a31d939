#ifndef QSCHED_RT_GATEWAY_H_
#define QSCHED_RT_GATEWAY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/parallel.h"
#include "obs/telemetry.h"
#include "rt/mpmc_queue.h"
#include "rt/wall_clock.h"
#include "workload/client.h"
#include "workload/query.h"

namespace qsched::rt {

struct GatewayOptions {
  /// Bound of the submission queue (0 clamps to 1, see MpmcQueue).
  size_t queue_capacity = 1024;
  /// Gateway worker threads draining the queue into the scheduler.
  int workers = 2;
  /// Maximum queries a worker admits under one core-lock acquisition
  /// (WallClock::RunBatch). 0 means auto (kDefaultAdmitBatch). A batch
  /// is opportunistic: a worker never waits to fill one — it takes
  /// whatever is queued, up to this bound, so an idle system still
  /// admits each query immediately.
  size_t admit_batch_size = 0;
};

/// The resolved auto value for GatewayOptions::admit_batch_size.
inline constexpr size_t kDefaultAdmitBatch = 32;

/// Why a submission was turned away. kQueueFull is open-loop shedding
/// (transient backpressure — retrying makes sense); kShuttingDown means
/// intake is closed for good; kBackendUnavailable is the cluster
/// router's verdict when no healthy backend could take the query. The
/// network layer forwards this verbatim as the wire REJECTED{reason}.
enum class RejectReason : uint8_t {
  kQueueFull = 1,
  kShuttingDown = 2,
  kBackendUnavailable = 3,
};

const char* RejectReasonToString(RejectReason reason);

/// Coarse gateway lifecycle for health endpoints: accepting (intake
/// open), draining (intake closed, accepted queries still in flight),
/// stopped (intake closed and every accepted query completed).
enum class GatewayHealth : uint8_t {
  kAccepting = 0,
  kDraining = 1,
  kStopped = 2,
};

const char* GatewayHealthToString(GatewayHealth health);

/// The runtime's front door: producers (load generators, client threads)
/// hand queries to Offer()/Submit(); a pool of gateway workers drains the
/// bounded MPMC queue, stamps each query with a fresh id, and submits it
/// to the QueryFrontend (normally the QueryScheduler, which classifies
/// and admits it) under the WallClock's core lock.
///
/// Thread-safety: Offer/Submit are safe from any thread. Completion
/// callbacks arrive on the clock thread (engine completions are timers);
/// all counters are atomics, so stats getters are safe from any thread.
///
/// Accounting identity (checked by the smoke test): after Drain() +
/// WaitIdle(), accepted == admitted == completed, and every producer-side
/// submission is either accepted or rejected — no query is lost or
/// duplicated.
class Gateway {
 public:
  using CompleteFn = workload::QueryFrontend::CompleteFn;

  /// `clock`, `frontend` and `telemetry` (optional) must outlive the
  /// gateway. The frontend is only ever called under clock->Run().
  Gateway(WallClock* clock, workload::QueryFrontend* frontend,
          const GatewayOptions& options,
          obs::Telemetry* telemetry = nullptr);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Spawns the worker pool.
  void Start();

  /// Open-loop submission: enqueues or, when the queue is full or closed,
  /// sheds (returns false; the query is counted rejected). The query's id
  /// is assigned by the gateway — the caller's id field is ignored.
  ///
  /// `on_complete` (optional) is invoked exactly once for this query,
  /// on the completion thread, after the gateway's accounting and before
  /// the global set_on_complete observer — the hook the network server
  /// uses to route a COMPLETED frame back to the originating connection.
  /// On rejection it is never invoked; `reason` (optional) then says why.
  bool Offer(workload::Query query, CompleteFn on_complete = nullptr,
             RejectReason* reason = nullptr);

  /// Closed-loop submission: blocks while the queue is full (producer
  /// backpressure); false only once the gateway is draining (`reason`,
  /// when set, is then always kShuttingDown). `on_complete` as in Offer.
  bool Submit(workload::Query query, CompleteFn on_complete = nullptr,
              RejectReason* reason = nullptr);

  /// Closes intake and joins the workers: every accepted query has been
  /// handed to the frontend when this returns. Idempotent.
  void Drain();

  /// Blocks until every admitted query has completed (requires the clock
  /// thread to be running) or the wall timeout expires (+inf waits
  /// without bound). Returns true when fully idle. Call after Drain().
  bool WaitIdle(double timeout_wall_seconds);

  /// Observer invoked (on the completion thread) for every finished
  /// query, after the gateway's own accounting. Set before Start().
  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  /// Observer invoked synchronously on the producer thread for every
  /// offered query — accepted or rejected — right after its id is
  /// assigned, before any queueing decision. This is the capture point
  /// for the trace recorder: the observer sees exactly the offered
  /// stream, so captured + dropped == offered holds downstream. Must be
  /// cheap and non-blocking. Set before Start().
  void set_on_offer(std::function<void(const workload::Query&)> fn) {
    on_offer_ = std::move(fn);
  }

  // Accounting (safe from any thread).
  uint64_t accepted() const { return accepted_.load(); }
  uint64_t rejected() const {
    return rejected_queue_full_.load() + rejected_shutting_down_.load();
  }
  uint64_t rejected_queue_full() const {
    return rejected_queue_full_.load();
  }
  uint64_t rejected_shutting_down() const {
    return rejected_shutting_down_.load();
  }
  uint64_t admitted() const { return admitted_.load(); }
  uint64_t completed() const { return completed_.load(); }
  size_t queue_depth() const { return queue_.size(); }

  /// Lifecycle snapshot for /healthz (safe from any thread). Reads
  /// completed before accepted so a racing completion can only make the
  /// gateway look draining a moment longer, never stopped too early.
  GatewayHealth health() const {
    uint64_t completed_now = completed_.load();
    if (!queue_.closed()) return GatewayHealth::kAccepting;
    return completed_now < accepted_.load() ? GatewayHealth::kDraining
                                            : GatewayHealth::kStopped;
  }

 private:
  struct Item {
    workload::Query query;
    std::chrono::steady_clock::time_point enqueued;
    CompleteFn on_complete;
  };

  /// Stamps a producer's query with its id, its stage trace and the
  /// enqueue time, and reports it to on_offer_.
  Item Stamp(workload::Query query, CompleteFn on_complete);
  bool RecordPushOutcome(QueuePush outcome, RejectReason* reason);
  void WorkerLoop();
  /// Admits one popped batch: stamps traces, records admission latency
  /// and batch occupancy, then submits every query to the frontend under
  /// a single WallClock::RunBatch core-lock acquisition, in queue order.
  void AdmitBatch(std::vector<Item>* batch);
  void OnQueryComplete(const workload::QueryRecord& record,
                       const CompleteFn& per_query);
  obs::Counter* ClassCompletedCounter(int class_id);
  /// Per-class {gateway_queue, dispatch, execute} stage histograms,
  /// created lazily and cached so the completion path never takes the
  /// registry lock twice for the same class.
  const std::array<obs::Histogram*, 3>& StageHistograms(int class_id);

  WallClock* clock_;
  workload::QueryFrontend* frontend_;
  GatewayOptions options_;
  const size_t admit_batch_size_;  // resolved (never 0)
  MpmcQueue<Item> queue_;
  std::unique_ptr<harness::ThreadPool> pool_;
  CompleteFn on_complete_;
  std::function<void(const workload::Query&)> on_offer_;

  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_shutting_down_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  obs::Telemetry* telemetry_;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* admission_latency_hist_ = nullptr;
  obs::Histogram* batch_occupancy_hist_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* rejected_queue_full_counter_ = nullptr;
  obs::Counter* rejected_shutting_down_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  std::mutex class_counter_mu_;
  std::map<int, obs::Counter*> class_completed_counters_;
  std::map<int, std::array<obs::Histogram*, 3>> stage_hists_;
};

}  // namespace qsched::rt

#endif  // QSCHED_RT_GATEWAY_H_
