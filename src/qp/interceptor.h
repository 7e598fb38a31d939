#ifndef QSCHED_QP_INTERCEPTOR_H_
#define QSCHED_QP_INTERCEPTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/status.h"
#include "engine/execution_engine.h"
#include "obs/telemetry.h"
#include "qp/control_table.h"
#include "sim/clock.h"
#include "workload/client.h"
#include "workload/query.h"

namespace qsched::qp {

struct InterceptorConfig {
  /// Latency added by interception (agent block, control-table writes,
  /// communication with the controller). The paper found this overhead
  /// "significantly larger than the execution time" of sub-second OLTP
  /// queries — which is why OLTP is managed indirectly.
  double interception_delay_seconds = 0.35;
  /// CPU consumed on the server per intercepted query (control-table
  /// bookkeeping), billed to the engine's CPU pool.
  double interception_cpu_seconds = 0.02;
  /// Overrides for intercepted OLTP queries. They default to the general
  /// values; the "control inside the DBMS" future-work extension sets
  /// them near zero.
  double oltp_interception_delay_seconds = -1.0;
  double oltp_interception_cpu_seconds = -1.0;

  double DelayFor(bool is_oltp) const {
    if (is_oltp && oltp_interception_delay_seconds >= 0.0) {
      return oltp_interception_delay_seconds;
    }
    return interception_delay_seconds;
  }
  double CpuFor(bool is_oltp) const {
    if (is_oltp && oltp_interception_cpu_seconds >= 0.0) {
      return oltp_interception_cpu_seconds;
    }
    return interception_cpu_seconds;
  }
};

/// The Query Patroller mechanism: intercept a query, record it in the
/// control tables, block its agent until an explicit Release, then run it
/// on the engine. Controllers (the static QP policy or the external Query
/// Scheduler) decide *when* to call Release; the interceptor is pure
/// mechanism, mirroring how the paper drives DB2 QP through its
/// block/unblock API.
///
/// Thread-safety: the interceptor itself is NOT internally synchronized
/// (its queued-query map and per-class ledgers are plain state mutated by
/// Intercept/Release/completion callbacks). The DES drives it from one
/// thread; the rt runtime serializes every entry point — submissions,
/// clock callbacks, planner cycles — under its core lock. Only the
/// embedded ControlTable is independently thread-safe (the Monitor scans
/// it off the hot path).
class Interceptor {
 public:
  using CompleteFn = workload::QueryFrontend::CompleteFn;
  /// Invoked when an intercepted query becomes visible (after overhead).
  using ArrivedFn = std::function<void(const QueryInfoRecord&)>;
  /// Invoked when a released query finishes, with its control-table row
  /// (state kDone), which has already left the table.
  using FinishedFn = std::function<void(const QueryInfoRecord&)>;

  Interceptor(sim::Clock* simulator, engine::ExecutionEngine* engine,
              const InterceptorConfig& config);

  Interceptor(const Interceptor&) = delete;
  Interceptor& operator=(const Interceptor&) = delete;

  void set_on_arrived(ArrivedFn fn) { on_arrived_ = std::move(fn); }
  void set_on_finished(FinishedFn fn) { on_finished_ = std::move(fn); }

  /// Intercepts `query`: stamps submission now, applies the interception
  /// overhead, inserts a control-table row, then fires on_arrived. The
  /// query stays blocked until Release().
  void Intercept(const workload::Query& query, CompleteFn on_complete);

  /// Unblocks a queued query and starts it on the engine.
  Status Release(uint64_t query_id);

  /// QP administration: cancels a *queued* query. Its completion callback
  /// fires immediately with a record flagged `cancelled`; the registered
  /// on_cancelled hook lets controllers prune their queues.
  Status CancelQueued(uint64_t query_id);

  /// Invoked when a queued query is cancelled (before its completion
  /// callback), so policies can drop it from their queues. The row
  /// (state kCancelled) has already left the control table.
  using CancelledFn = std::function<void(const QueryInfoRecord&)>;
  void set_on_cancelled(CancelledFn fn) { on_cancelled_ = std::move(fn); }

  uint64_t cancelled_total() const { return cancelled_total_; }

  /// Un-intercepted path (the paper turns QP off for the OLTP class):
  /// stamps submission now and executes immediately; no overhead, no
  /// control-table row. Completion records still flow to `on_complete`.
  void Bypass(const workload::Query& query, CompleteFn on_complete);

  const ControlTable& control_table() const { return table_; }

  /// Incremental per-class ledgers, O(1) on the dispatch path.
  double running_cost(int class_id) const;
  int running_count(int class_id) const;
  int queued_count(int class_id) const;

  uint64_t intercepted_total() const { return intercepted_total_; }
  uint64_t bypassed_total() const { return bypassed_total_; }

  /// Enables telemetry (nullptr = off): interception counters, per-class
  /// queue-wait and response histograms, and span transitions for
  /// enqueue / dispatch / complete / cancel. `telemetry` must outlive
  /// the interceptor.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  struct PendingQuery {
    workload::Query query;
    CompleteFn on_complete;
    sim::SimTime submit_time = 0.0;
  };
  struct ClassLedger {
    double running_cost = 0.0;
    int running = 0;
    int queued = 0;
  };

  void StartOnEngine(uint64_t query_id, PendingQuery pending);
  /// Cached per-class histogram handles (registered on first use so the
  /// per-query path never builds label strings).
  obs::Histogram* QueueWaitHistogram(int class_id);
  obs::Histogram* ResponseHistogram(int class_id);

  sim::Clock* simulator_;
  engine::ExecutionEngine* engine_;
  InterceptorConfig config_;
  ControlTable table_;
  std::unordered_map<uint64_t, PendingQuery> queued_;
  std::unordered_map<int, ClassLedger> ledgers_;
  ArrivedFn on_arrived_;
  FinishedFn on_finished_;
  CancelledFn on_cancelled_;
  uint64_t intercepted_total_ = 0;
  uint64_t bypassed_total_ = 0;
  uint64_t cancelled_total_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* intercepted_counter_ = nullptr;
  obs::Counter* bypassed_counter_ = nullptr;
  obs::Counter* released_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  std::unordered_map<int, obs::Histogram*> queue_wait_hists_;
  std::unordered_map<int, obs::Histogram*> response_hists_;
};

}  // namespace qsched::qp

#endif  // QSCHED_QP_INTERCEPTOR_H_
