#include "rt/wall_clock.h"

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
  return start_ + std::chrono::duration_cast<SteadyClock::duration>(
                      std::chrono::duration<double>(model_time /
                                                    options_.time_scale));
}

sim::EventId WallClock::ScheduleAt(sim::SimTime when, sim::EventFn fn) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return Insert(when, next_seq_++, std::move(fn));
}

uint64_t WallClock::ReserveSequence(uint64_t n) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  const uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

sim::EventId WallClock::ScheduleAtSequence(sim::SimTime when, uint64_t seq,
                                           sim::EventFn fn) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  QSCHED_CHECK(seq < next_seq_) << "sequence rank was never reserved";
  return Insert(when, seq, std::move(fn));
}

sim::EventId WallClock::Insert(sim::SimTime when, uint64_t seq,
                               sim::EventFn fn) {
  double now = Now();
  if (when < now) when = now;
  sim::EventId id = next_id_++;
  Key key{when, seq};
  Entry entry;
  entry.id = id;
  entry.fn = std::move(fn);
  auto [it, inserted] = timers_.emplace(key, std::move(entry));
  QSCHED_CHECK(inserted) << "sequence rank " << seq << " used twice";
  index_.emplace(id, key);
  SetPendingGauge();
  // Wake the clock thread only when its sleep must end sooner: this
  // timer is the new earliest deadline, or the earliest is already due
  // and the thread is oversleeping its timed wait (by the kernel's timer
  // slack, 50 us = 300 model ms at time scale 6000). A later timer
  // changes neither.
  if (it == timers_.begin() || timers_.begin()->first.when <= now) {
    cv_.notify_all();
  }
  return id;
}

void WallClock::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  obs::Registry& reg = telemetry->registry;
  pending_gauge_ = reg.GetGauge("qsched_rt_timers_pending");
  fired_counter_ = reg.GetCounter("qsched_rt_timers_fired_total");
  wakeups_counter_ = reg.GetCounter("qsched_rt_clock_wakeups_total");
  SetPendingGauge();
}

void WallClock::SetPendingGauge() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->Set(static_cast<double>(timers_.size()));
  }
}

sim::EventId WallClock::ScheduleAfter(sim::SimTime delay, sim::EventFn fn) {
  if (delay < 0.0) delay = 0.0;
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return ScheduleAt(Now() + delay, std::move(fn));
}

bool WallClock::Cancel(sim::EventId id) {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  timers_.erase(it->second);
  index_.erase(it);
  SetPendingGauge();
  return true;
}

size_t WallClock::timers_pending() const {
  std::lock_guard<std::recursive_mutex> lock(core_mu_);
  return timers_.size();
}

void WallClock::ClockLoop() {
  std::unique_lock<std::recursive_mutex> lock(core_mu_);
  auto woke = [this] {
    if (wakeups_counter_ != nullptr) wakeups_counter_->Inc();
  };
  while (!stop_) {
    if (timers_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !timers_.empty(); });
      woke();
      continue;
    }
    auto it = timers_.begin();
    WallTime deadline = WallDeadline(it->first.when);
    if (SteadyClock::now() < deadline) {
      // New earlier timers or Stop() re-run the loop via the notify.
      cv_.wait_until(lock, deadline);
      woke();
      continue;
    }
    // Pop-and-execute is atomic under the core lock: once the entry
    // leaves the heap no Cancel can reach it, and the callback runs
    // before any other thread's Run() section interleaves.
    Entry entry = std::move(it->second);
    timers_.erase(it);
    index_.erase(entry.id);
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    if (fired_counter_ != nullptr) fired_counter_->Inc();
    entry.fn();
    // After the callback, so a periodic tick that re-arms itself never
    // shows a momentary 0.
    SetPendingGauge();
  }
}

}  // namespace qsched::rt
