#ifndef QSCHED_ENGINE_RESOURCES_H_
#define QSCHED_ENGINE_RESOURCES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"

namespace qsched::engine {

/// Event-driven generalized processor sharing (GPS) CPU pool with
/// `num_servers` cores: with n active jobs each runs at rate
/// min(1, num_servers / n) cores. This is the standard fluid approximation
/// of a DBMS's round-robin CPU scheduling, and is what makes concurrent
/// OLAP work slow down OLTP transactions in the simulated engine.
class ProcessorSharingPool {
 public:
  ProcessorSharingPool(sim::Clock* simulator, int num_servers);

  ProcessorSharingPool(const ProcessorSharingPool&) = delete;
  ProcessorSharingPool& operator=(const ProcessorSharingPool&) = delete;

  /// Submits `demand_seconds` of single-core work; `done` fires when the
  /// job has accumulated that much service. Zero/negative demand completes
  /// via an immediate event. Returns a job id (diagnostic only).
  uint64_t Submit(double demand_seconds, std::function<void()> done);

  size_t active_jobs() const { return jobs_.size(); }
  int num_servers() const { return num_servers_; }

  /// Core-seconds of service delivered so far.
  double busy_core_seconds() const;

  /// Mean utilization in [0,1] over the run so far.
  double Utilization() const;

 private:
  struct Job {
    double remaining;
    std::function<void()> done;
  };

  /// Credits service for the time elapsed since the last update.
  void Advance();
  /// Reschedules the completion event for the job finishing soonest.
  void ScheduleNextCompletion();
  void OnCompletionEvent();
  double RatePerJob() const;

  sim::Clock* simulator_;
  int num_servers_;
  /// Active jobs in submission order.
  std::vector<Job> jobs_;
  /// Spare buffer for OnCompletionEvent's finished callbacks, kept so the
  /// per-completion path does not allocate.
  std::vector<std::function<void()>> finished_scratch_;
  uint64_t next_job_id_ = 1;
  double last_update_time_ = 0.0;
  double busy_core_seconds_ = 0.0;
  sim::EventId completion_event_ = 0;
};

/// Request class for the two-priority disk queues: synchronous reads
/// (transaction index probes) jump ahead of queued bulk work (prefetch
/// bursts, spills), exactly as DB2 services synchronous I/O ahead of the
/// prefetch queue. A request already in service is never preempted, so a
/// high-priority read can still wait out one in-flight burst — that
/// bounded wait is the OLAP-to-OLTP coupling the paper measures in
/// Fig. 2, without unbounded convoy pile-ups.
enum class IoPriority { kHigh, kLow };

/// Array of independent disks, each with a two-priority FIFO queue. A
/// request occupies its disk for `overhead + pages * seconds_per_page`.
/// Requests are routed to a *uniformly random* disk: pages live where
/// data placement put them.
class DiskArray {
 public:
  DiskArray(sim::Clock* simulator, int num_disks,
            double seconds_per_page, double request_overhead_seconds,
            Rng rng);

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  /// Enqueues a read of `pages` pages; `done` fires at completion.
  /// Zero-page reads complete via an immediate event.
  void SubmitRead(double pages, IoPriority priority,
                  std::function<void()> done);

  /// Enqueues background write traffic (no completion callback) at low
  /// priority; it only adds load ahead of subsequent low-priority work.
  void SubmitDetachedWrite(double pages);

  int num_disks() const { return static_cast<int>(disks_.size()); }

  /// Pages transferred so far (reads + writes).
  double pages_transferred() const { return pages_transferred_; }

  /// Mean utilization in [0,1] over the run so far.
  double Utilization() const;

  /// Requests currently queued (not in service) across all disks.
  size_t queued_requests() const { return queued_requests_; }

 private:
  struct Request {
    double pages;
    std::function<void()> done;
  };
  struct Disk {
    bool busy = false;
    std::deque<Request> high;
    std::deque<Request> low;
  };

  /// Uniformly random disk (models fixed data placement).
  size_t PickDisk();
  double ServiceSeconds(double pages) const;
  /// Starts the next queued request on disk `d`, if any.
  void StartNext(size_t d);
  void BeginService(size_t d, Request request);

  sim::Clock* simulator_;
  double seconds_per_page_;
  double request_overhead_seconds_;
  Rng rng_;
  std::vector<Disk> disks_;
  double pages_transferred_ = 0.0;
  double busy_disk_seconds_ = 0.0;
  size_t queued_requests_ = 0;
};

}  // namespace qsched::engine

#endif  // QSCHED_ENGINE_RESOURCES_H_
