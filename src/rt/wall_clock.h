#ifndef QSCHED_RT_WALL_CLOCK_H_
#define QSCHED_RT_WALL_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/telemetry.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace qsched::rt {

/// sim::Clock implemented on std::chrono::steady_clock: the same engine,
/// Query Patroller and scheduler components that run under the DES run
/// unmodified on the wall clock, because all they ever see is Now() /
/// ScheduleAt / Cancel.
///
/// Model time = elapsed wall seconds * time_scale. A time_scale above 1
/// compresses model time (e.g. 30 means one wall second covers 30 model
/// seconds), so a multi-interval control experiment fits a short live
/// run; 1 is real time.
///
/// Timers live in a private sim::Simulator, used only as the ordered,
/// cancellable, rank-aware queue: the DES heap is the one timer queue in
/// the program, and ids, FIFO ties and reserved ranks behave exactly as
/// under the DES. The Simulator's own clock only trails the fired timers;
/// Now() is always the wall clock.
///
/// Threading model — the "core lock" protocol. The DES components (and
/// the Simulator queue itself) are externally serialized, so the
/// WallClock serializes everything that touches them behind one
/// recursive mutex (the core lock):
///
///  * A dedicated clock thread pops each due timer and executes its
///    callback *while holding the core lock*. Pop-and-execute is one
///    critical section, which closes the classic timer race: nobody can
///    observe (or Cancel) an event "in between" being popped and run.
///    Periodic model work — the OLTP snapshot sampler and the Scheduling
///    Planner — is such timers too, armed by QueryScheduler::Start().
///  * Any other thread that needs to call into the components — gateway
///    workers submitting queries, Shutdown refreshing gauges — does so
///    inside Run(fn), which takes the same lock. Callbacks may re-enter
///    ScheduleAt/Cancel freely (the lock is recursive), exactly like DES
///    callbacks scheduling follow-on events.
///
/// Every Clock method is thread-safe. Semantics match the Simulator:
/// past times clamp to Now(), equal timestamps fire FIFO (reserved ranks
/// included), Cancel returns false once the callback fired.
///
/// The clock thread sleeps until the earliest deadline. Scheduling wakes
/// it only when the new timer is earlier than that deadline, when that
/// deadline is already due (the thread overslept), or on Stop — so a
/// burst of later timers costs no wakeups.
class WallClock final : public sim::Clock {
 public:
  struct Options {
    /// Model seconds per wall second (> 0).
    double time_scale = 1.0;
  };

  WallClock();  // real time (time_scale 1)
  explicit WallClock(const Options& options);
  ~WallClock() override;

  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;

  /// Spawns the clock thread. Timers scheduled before Start() are held
  /// and fire once the thread runs.
  void Start();

  /// Joins the clock thread; pending timers are abandoned (their
  /// callbacks never run). Idempotent.
  void Stop();

  // sim::Clock interface (thread-safe).
  sim::SimTime Now() const override;
  sim::EventId ScheduleAt(sim::SimTime when, sim::EventFn fn) override;
  sim::EventId ScheduleAfter(sim::SimTime delay, sim::EventFn fn) override;
  bool Cancel(sim::EventId id) override;
  uint64_t ReserveSequence(uint64_t n) override;
  sim::EventId ScheduleAtSequence(sim::SimTime when, uint64_t seq,
                                  sim::EventFn fn) override;

  /// Exports the timer work to `telemetry` (non-null; must outlive the
  /// clock): qsched_rt_timers_pending, qsched_rt_timers_fired_total,
  /// qsched_rt_clock_wakeups_total (each time the clock thread returns
  /// from a wait: deadline reached, notified, or spurious) and
  /// qsched_rt_timer_late_seconds (wall seconds from each timer's due
  /// time to its pop).
  void set_telemetry(obs::Telemetry* telemetry);

  /// Runs `fn` while holding the core lock, serialized against timer
  /// callbacks and every other Run(). This is the only sanctioned way
  /// for non-clock threads to call into the single-threaded model
  /// components.
  template <typename F>
  auto Run(F&& fn) {
    std::lock_guard<std::recursive_mutex> lock(core_mu_);
    return fn();
  }

  /// Amortized core-lock entry: acquires the core lock ONCE and invokes
  /// `fn(i)` for every i in [0, count) while holding it. This is the
  /// batched-admission seam — a gateway worker that drained N queries
  /// from its queue submits all N under a single lock acquisition
  /// instead of paying the acquire/release (and the cache-line
  /// ping-pong with the clock thread) N times. Semantically equivalent
  /// to calling Run() N times back-to-back with no interleaving: the
  /// calls run in index order, callbacks may re-enter ScheduleAt/Cancel,
  /// and timer callbacks cannot fire in between.
  template <typename F>
  void RunBatch(size_t count, F&& fn) {
    if (count == 0) return;
    std::lock_guard<std::recursive_mutex> lock(core_mu_);
    for (size_t i = 0; i < count; ++i) fn(i);
  }

  /// Timers fired so far / pending now. Both take the core lock.
  uint64_t timers_fired() const;
  size_t timers_pending() const;
  double time_scale() const { return options_.time_scale; }

 private:
  using WallTime = std::chrono::steady_clock::time_point;

  void ClockLoop();
  /// Inserts a timer at rank `seq` (core lock held) and wakes the clock
  /// thread when its sleep must end sooner.
  sim::EventId Insert(sim::SimTime when, uint64_t seq, sim::EventFn fn);
  void SetPendingGauge();
  WallTime WallDeadline(double model_time) const;

  const Options options_;
  const WallTime start_;

  /// The core lock (see class comment). Guards timers_ and stop_, and
  /// serializes all component access.
  mutable std::recursive_mutex core_mu_;
  std::condition_variable_any cv_;
  /// The timer queue; its events_processed() counts fired timers.
  sim::Simulator timers_;
  bool stop_ = false;
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Counter* fired_counter_ = nullptr;
  obs::Counter* wakeups_counter_ = nullptr;
  obs::Histogram* late_hist_ = nullptr;
  std::thread thread_;
};

}  // namespace qsched::rt

#endif  // QSCHED_RT_WALL_CLOCK_H_
