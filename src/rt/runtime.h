#ifndef QSCHED_RT_RUNTIME_H_
#define QSCHED_RT_RUNTIME_H_

#include <cstdint>
#include <limits>

#include "engine/execution_engine.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "rt/wall_clock.h"
#include "scheduler/query_scheduler.h"
#include "scheduler/service_class.h"

namespace qsched::rt {

struct RuntimeOptions {
  /// Model seconds per wall second. 60 means one wall second covers one
  /// paper-scale control minute, so a 2 s live run spans two planning
  /// cycles.
  double time_scale = 1.0;
  /// Model time after which the OLTP snapshot sampler and the planner
  /// stop; it never bounds the run itself. The default (infinity) keeps
  /// both running until Shutdown. Each keeps one pending timer whatever
  /// the horizon.
  double horizon_model_seconds = std::numeric_limits<double>::infinity();
  uint64_t seed = 42;
  GatewayOptions gateway;
  engine::EngineConfig engine;
  sched::QuerySchedulerConfig scheduler;
  /// Optional; must outlive the runtime. Also handed to the scheduler
  /// (overriding scheduler.telemetry) so audit records, spans and SLO
  /// gauges flow for live runs exactly as for simulated ones. The
  /// scheduler's limit_history() keeps the last obs::kLiveHistoryIntervals
  /// intervals unless Telemetry::KeepFullHistory() was called before the
  /// runtime is constructed.
  obs::Telemetry* telemetry = nullptr;
};

/// The real-time service runtime: the same ExecutionEngine +
/// QueryScheduler stack that the DES drives, run on the wall clock.
///
/// Threads and their roles:
///  * clock thread (inside WallClock) — fires model timers under the core
///    lock: engine I/O and CPU completions, interception delays, snapshot
///    samples, and one Scheduling Planner cycle per control interval
///    (armed by QueryScheduler::Start, the same call the DES makes), so
///    new cost limits are applied atomically with respect to submissions
///    and completions;
///  * gateway workers — drain the MPMC submission queue and submit into
///    the scheduler under the core lock;
///  * producers (load generators or arbitrary caller threads) — push
///    queries into the gateway from anywhere.
///
/// Lifecycle: construct -> Start() -> feed gateway() -> Shutdown().
/// Shutdown closes intake, drains the submission queue, waits for every
/// admitted query to complete, then stops the clock; the returned stats
/// carry the conservation accounting.
class Runtime {
 public:
  Runtime(const sched::ServiceClassSet& classes,
          const RuntimeOptions& options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  void Start();

  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t planning_cycles = 0;
    uint64_t timers_fired = 0;
    /// Model seconds covered by the run at shutdown.
    double model_seconds = 0.0;
    /// False when the drain timeout expired with queries still in
    /// flight (admitted - completed of them).
    bool drained = false;
  };

  /// Stops intake, drains, stops all runtime threads. Idempotent (later
  /// calls return the same stats).
  Stats Shutdown(double drain_timeout_wall_seconds = 30.0);

  WallClock& clock() { return clock_; }
  Gateway& gateway() { return gateway_; }
  sched::QueryScheduler& scheduler() { return scheduler_; }
  engine::ExecutionEngine& engine() { return engine_; }
  const sched::ServiceClassSet& classes() const { return classes_; }

 private:
  RuntimeOptions options_;
  sched::ServiceClassSet classes_;
  WallClock clock_;
  engine::ExecutionEngine engine_;
  sched::QueryScheduler scheduler_;
  Gateway gateway_;

  bool started_ = false;
  bool shut_down_ = false;
  Stats final_stats_;
};

}  // namespace qsched::rt

#endif  // QSCHED_RT_RUNTIME_H_
