#include "rt/runtime.h"

#include <chrono>

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
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Start() {
  QSCHED_CHECK(!started_) << "runtime already started";
  started_ = true;
  clock_.Start();
  // The sampler is a model timer; arm it before load arrives.
  clock_.Run([&] { scheduler_.StartSampling(options_.horizon_model_seconds); });
  gateway_.Start();
  control_thread_ = std::thread([this] { ControlLoop(); });
}

void Runtime::ControlLoop() {
  double interval_model = options_.scheduler.control_interval_seconds;
  QSCHED_CHECK(interval_model > 0.0);
  auto interval_wall = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      interval_model / options_.time_scale));
  auto next = std::chrono::steady_clock::now() + interval_wall;
  std::unique_lock<std::mutex> lock(control_mu_);
  while (!stop_control_) {
    if (control_cv_.wait_until(lock, next,
                               [this] { return stop_control_; })) {
      break;
    }
    next += interval_wall;
    lock.unlock();
    // One planner cycle under the core lock: measurements are harvested
    // and the new cost limits installed (releasing what now fits)
    // atomically with respect to submissions and completions.
    clock_.Run([&] { scheduler_.RunPlanningCycle(); });
    lock.lock();
  }
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
    //    from the control loop (rising limits release queued work), so
    //    both are still running; the dispatcher's min-one rule
    //    guarantees every class keeps draining regardless.
    stats.drained = gateway_.WaitIdle(drain_timeout_wall_seconds);
    // 3. Stop the control loop, then the clock.
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      stop_control_ = true;
    }
    control_cv_.notify_all();
    if (control_thread_.joinable()) control_thread_.join();
    clock_.Run([&] { engine_.RefreshTelemetryGauges(); });
    stats.model_seconds = clock_.Now();
    clock_.Stop();
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
