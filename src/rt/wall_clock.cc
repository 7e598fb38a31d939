#include "rt/wall_clock.h"

#include <algorithm>

#include "common/logging.h"

namespace qsched::rt {

namespace {
using SteadyClock = std::chrono::steady_clock;
}  // namespace

WallClock::WallClock() : WallClock(Options{}) {}

WallClock::WallClock(const Options& options)
    : options_(options), start_(SteadyClock::now()) {
  QSCHED_CHECK(options_.time_scale > 0.0)
      << "time_scale must be positive, got " << options_.time_scale;
}

WallClock::~WallClock() { Stop(); }

void WallClock::Start() {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  QSCHED_CHECK(!thread_.joinable()) << "WallClock already started";
  stop_ = false;
  thread_ = std::thread([this] { ClockLoop(); });
}

void WallClock::Stop() {
  {
    std::lock_guard<std::recursive_mutex> lock(core_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

sim::SimTime WallClock::Now() const {
  double wall =
      std::chrono::duration<double>(SteadyClock::now() - start_).count();
  return wall * options_.time_scale;
}

WallClock::WallTime WallClock::WallDeadline(double model_time) const {
  // Rounded up, so no timer fires before its model time.
  return start_ + std::chrono::ceil<SteadyClock::duration>(
                      std::chrono::duration<double>(model_time /
                                                    options_.time_scale));
}

sim::EventId WallClock::ScheduleAt(sim::SimTime when, sim::EventFn fn) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return Insert(when, timers_.ReserveSequence(1), std::move(fn));
}

uint64_t WallClock::ReserveSequence(uint64_t n) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return timers_.ReserveSequence(n);
}

sim::EventId WallClock::ScheduleAtSequence(sim::SimTime when, uint64_t seq,
                                           sim::EventFn fn) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return Insert(when, seq, std::move(fn));
}

sim::EventId WallClock::Insert(sim::SimTime when, uint64_t seq,
                               sim::EventFn fn) {
  const double now = Now();
  if (when < now) when = now;
  const double earliest = timers_.next_time();
  sim::EventId id = timers_.ScheduleAtSequence(when, seq, std::move(fn));
  SetPendingGauge();
  // Wake the clock thread only when its sleep must end sooner: this
  // timer is earlier than the earliest pending one, or that one is due
  // and the thread is oversleeping its timed wait (by the kernel's timer
  // slack, 50 us = 300 model ms at time scale 6000). A later timer
  // changes neither.
  if (when < earliest || earliest <= now) cv_.notify_all();
  return id;
}

void WallClock::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  obs::Registry& reg = telemetry->registry;
  pending_gauge_ = reg.GetGauge("qsched_rt_timers_pending");
  fired_counter_ = reg.GetCounter("qsched_rt_timers_fired_total");
  wakeups_counter_ = reg.GetCounter("qsched_rt_clock_wakeups_total");
  late_hist_ = reg.GetHistogram("qsched_rt_timer_late_seconds");
  SetPendingGauge();
}

void WallClock::SetPendingGauge() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->Set(static_cast<double>(timers_.pending_events()));
  }
}

sim::EventId WallClock::ScheduleAfter(sim::SimTime delay, sim::EventFn fn) {
  if (delay < 0.0) delay = 0.0;
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return ScheduleAt(Now() + delay, std::move(fn));
}

bool WallClock::Cancel(sim::EventId id) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  if (!timers_.Cancel(id)) return false;
  SetPendingGauge();
  return true;
}

uint64_t WallClock::timers_fired() const {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return timers_.events_processed();
}

size_t WallClock::timers_pending() const {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return timers_.pending_events();
}

void WallClock::ClockLoop() {
  std::unique_lock<std::recursive_mutex> lock(core_mu_);
  auto woke = [this] {
    if (wakeups_counter_ != nullptr) wakeups_counter_->Inc();
  };
  while (!stop_) {
    if (timers_.pending_events() == 0) {
      cv_.wait(lock, [this] { return stop_ || timers_.pending_events() > 0; });
      woke();
      continue;
    }
    const double when = timers_.next_time();
    const WallTime deadline = WallDeadline(when);
    if (SteadyClock::now() < deadline) {
      // New earlier timers or Stop() re-run the loop via the notify.
      cv_.wait_until(lock, deadline);
      woke();
      continue;
    }
    // Pop-and-execute is atomic under the core lock: once the event
    // leaves the queue no Cancel can reach it, and the callback runs
    // before any other thread's Run() section interleaves.
    if (late_hist_ != nullptr) {
      late_hist_->Record(std::max(0.0, Now() - when) / options_.time_scale);
    }
    if (fired_counter_ != nullptr) fired_counter_->Inc();
    timers_.Step();
    // After the callback, so a periodic tick that re-arms itself never
    // shows a momentary 0.
    SetPendingGauge();
  }
}

}  // namespace qsched::rt
