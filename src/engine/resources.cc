#include "engine/resources.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace qsched::engine {

namespace {
// Service below this remainder counts as complete (guards float drift).
constexpr double kServiceEpsilon = 1e-9;
}  // namespace

ProcessorSharingPool::ProcessorSharingPool(sim::Clock* simulator,
                                           int num_servers)
    : simulator_(simulator), num_servers_(std::max(1, num_servers)) {
  last_update_time_ = simulator_->Now();
}

double ProcessorSharingPool::RatePerJob() const {
  if (jobs_.empty()) return 0.0;
  double n = static_cast<double>(jobs_.size());
  return std::min(1.0, static_cast<double>(num_servers_) / n);
}

void ProcessorSharingPool::Advance() {
  double now = simulator_->Now();
  double dt = now - last_update_time_;
  last_update_time_ = now;
  if (dt <= 0.0 || jobs_.empty()) return;
  double rate = RatePerJob();
  double credited = dt * rate;
  busy_core_seconds_ += credited * static_cast<double>(jobs_.size());
  for (Job& job : jobs_) {
    job.remaining -= credited;
  }
}

void ProcessorSharingPool::ScheduleNextCompletion() {
  if (completion_event_ != 0) {
    simulator_->Cancel(completion_event_);
    completion_event_ = 0;
  }
  if (jobs_.empty()) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Job& job : jobs_) {
    min_remaining = std::min(min_remaining, job.remaining);
  }
  double rate = RatePerJob();
  double delay = std::max(0.0, min_remaining) / rate;
  completion_event_ =
      simulator_->ScheduleAfter(delay, [this] { OnCompletionEvent(); });
}

void ProcessorSharingPool::OnCompletionEvent() {
  completion_event_ = 0;
  Advance();
  // Collect finished jobs first, in submission order: their callbacks may
  // resubmit work. The remaining jobs keep their order.
  std::vector<std::function<void()>> finished;
  finished.swap(finished_scratch_);
  size_t kept = 0;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].remaining <= kServiceEpsilon) {
      finished.push_back(std::move(jobs_[i].done));
    } else {
      if (kept != i) jobs_[kept] = std::move(jobs_[i]);
      ++kept;
    }
  }
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(kept), jobs_.end());
  ScheduleNextCompletion();
  for (auto& done : finished) {
    if (done) done();
  }
  finished.clear();
  finished_scratch_.swap(finished);
}

uint64_t ProcessorSharingPool::Submit(double demand_seconds,
                                      std::function<void()> done) {
  uint64_t id = next_job_id_++;
  if (demand_seconds <= 0.0) {
    simulator_->ScheduleAfter(0.0, std::move(done));
    return id;
  }
  Advance();
  jobs_.push_back(Job{demand_seconds, std::move(done)});
  ScheduleNextCompletion();
  return id;
}

double ProcessorSharingPool::busy_core_seconds() const {
  // Include service accrued since the last event.
  double accrued = busy_core_seconds_;
  double dt = simulator_->Now() - last_update_time_;
  if (dt > 0.0 && !jobs_.empty()) {
    accrued += dt * RatePerJob() * static_cast<double>(jobs_.size());
  }
  return accrued;
}

double ProcessorSharingPool::Utilization() const {
  double elapsed = simulator_->Now();
  if (elapsed <= 0.0) return 0.0;
  return busy_core_seconds() /
         (elapsed * static_cast<double>(num_servers_));
}

DiskArray::DiskArray(sim::Clock* simulator, int num_disks,
                     double seconds_per_page,
                     double request_overhead_seconds, Rng rng)
    : simulator_(simulator),
      seconds_per_page_(seconds_per_page),
      request_overhead_seconds_(request_overhead_seconds),
      rng_(rng),
      disks_(static_cast<size_t>(std::max(1, num_disks))) {}

size_t DiskArray::PickDisk() {
  return static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(disks_.size()) - 1));
}

double DiskArray::ServiceSeconds(double pages) const {
  return request_overhead_seconds_ + std::max(0.0, pages) * seconds_per_page_;
}

void DiskArray::BeginService(size_t d, Request request) {
  Disk& disk = disks_[d];
  disk.busy = true;
  double service = ServiceSeconds(request.pages);
  pages_transferred_ += request.pages;
  busy_disk_seconds_ += service;
  simulator_->ScheduleAfter(
      service, [this, d, done = std::move(request.done)] {
        disks_[d].busy = false;
        if (done) done();
        StartNext(d);
      });
}

void DiskArray::StartNext(size_t d) {
  Disk& disk = disks_[d];
  if (disk.busy) return;
  Request next;
  if (!disk.high.empty()) {
    next = std::move(disk.high.front());
    disk.high.pop_front();
  } else if (!disk.low.empty()) {
    next = std::move(disk.low.front());
    disk.low.pop_front();
  } else {
    return;
  }
  --queued_requests_;
  BeginService(d, std::move(next));
}

void DiskArray::SubmitRead(double pages, IoPriority priority,
                           std::function<void()> done) {
  if (pages <= 0.0) {
    simulator_->ScheduleAfter(0.0, std::move(done));
    return;
  }
  size_t d = PickDisk();
  Disk& disk = disks_[d];
  Request request{pages, std::move(done)};
  if (disk.busy) {
    ++queued_requests_;
    if (priority == IoPriority::kHigh) {
      disk.high.push_back(std::move(request));
    } else {
      disk.low.push_back(std::move(request));
    }
    return;
  }
  BeginService(d, std::move(request));
}

void DiskArray::SubmitDetachedWrite(double pages) {
  if (pages <= 0.0) return;
  SubmitRead(pages, IoPriority::kLow, nullptr);
}

double DiskArray::Utilization() const {
  double elapsed = simulator_->Now();
  if (elapsed <= 0.0) return 0.0;
  return busy_disk_seconds_ /
         (elapsed * static_cast<double>(disks_.size()));
}

}  // namespace qsched::engine
