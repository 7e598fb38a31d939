#include "rt/runtime.h"

#include "common/logging.h"
#include "common/rng.h"

namespace qsched::rt {

namespace {
sched::QuerySchedulerConfig WithTelemetry(
    sched::QuerySchedulerConfig config, obs::Telemetry* telemetry) {
  if (telemetry != nullptr) config.telemetry = telemetry;
  return config;
}
}  // namespace

Runtime::Runtime(const sched::ServiceClassSet& classes,
                 const RuntimeOptions& options)
    : options_(options),
      classes_(classes),
      clock_(WallClock::Options{options.time_scale}),
      engine_(&clock_, options.engine, Rng(options.seed).Fork(0xe)),
      scheduler_(&clock_, &engine_, &classes_,
                 WithTelemetry(options.scheduler, options.telemetry)),
      gateway_(&clock_, &scheduler_, options.gateway, options.telemetry) {
  if (options_.telemetry != nullptr) {
    engine_.set_telemetry(options_.telemetry);
    clock_.set_telemetry(options_.telemetry);
  }
  // A live server keeps the telemetry stores' window of cost-limit
  // history too, unless a reader of the whole run asked for all of it.
  if (options_.telemetry == nullptr ||
      !options_.telemetry->keeps_full_history()) {
    scheduler_.set_limit_history_capacity(obs::kLiveHistoryIntervals);
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Start() {
  QSCHED_CHECK(!started_) << "runtime already started";
  started_ = true;
  clock_.Start();
  // The sampler and the planner are model timers, armed exactly as under
  // the DES; arm them before load arrives.
  clock_.Run([&] { scheduler_.Start(options_.horizon_model_seconds); });
  gateway_.Start();
}

Runtime::Stats Runtime::Shutdown(double drain_timeout_wall_seconds) {
  if (shut_down_) return final_stats_;
  shut_down_ = true;

  Stats stats;
  if (started_) {
    // 1. Close intake and hand every accepted query to the scheduler.
    gateway_.Drain();
    // 2. Wait for the in-flight population to complete. Progress needs
    //    the clock thread (engine completions are timers) and benefits
    //    from the planner timer (rising limits release queued work), so
    //    both still run; the dispatcher's min-one rule guarantees every
    //    class keeps draining regardless.
    stats.drained = gateway_.WaitIdle(drain_timeout_wall_seconds);
    // 3. Stop the clock: no timer, the planner's included, fires after.
    clock_.Run([&] { engine_.RefreshTelemetryGauges(); });
    clock_.Stop();
    // After Stop, so every timer that fired was due by this time.
    stats.model_seconds = clock_.Now();
  }

  stats.accepted = gateway_.accepted();
  stats.rejected = gateway_.rejected();
  stats.admitted = gateway_.admitted();
  stats.completed = gateway_.completed();
  stats.planning_cycles = scheduler_.planning_cycles();
  stats.timers_fired = clock_.timers_fired();
  final_stats_ = stats;
  return stats;
}

}  // namespace qsched::rt
