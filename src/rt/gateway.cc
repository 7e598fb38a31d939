#include "rt/gateway.h"

#include <utility>

#include "common/deadline.h"
#include "common/strings.h"

namespace qsched::rt {

const char* RejectReasonToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kShuttingDown:
      return "shutting_down";
    case RejectReason::kBackendUnavailable:
      return "backend_unavailable";
  }
  return "unknown";
}

const char* GatewayHealthToString(GatewayHealth health) {
  switch (health) {
    case GatewayHealth::kAccepting:
      return "accepting";
    case GatewayHealth::kDraining:
      return "draining";
    case GatewayHealth::kStopped:
      return "stopped";
  }
  return "unknown";
}

Gateway::Gateway(WallClock* clock, workload::QueryFrontend* frontend,
                 const GatewayOptions& options, obs::Telemetry* telemetry)
    : clock_(clock),
      frontend_(frontend),
      options_(options),
      admit_batch_size_(options.admit_batch_size == 0
                            ? kDefaultAdmitBatch
                            : options.admit_batch_size),
      queue_(options.queue_capacity),
      telemetry_(telemetry) {
  if (telemetry_ != nullptr) {
    obs::Registry& reg = telemetry_->registry;
    depth_gauge_ = reg.GetGauge("qsched_rt_gateway_queue_depth");
    reg.GetGauge("qsched_rt_admit_batch_size")
        ->Set(static_cast<double>(admit_batch_size_));
    batch_occupancy_hist_ = reg.GetHistogram("qsched_rt_batch_occupancy");
    admission_latency_hist_ =
        reg.GetHistogram("qsched_rt_admission_latency_seconds");
    accepted_counter_ = reg.GetCounter("qsched_rt_accepted_total");
    rejected_counter_ = reg.GetCounter("qsched_rt_rejected_total");
    rejected_queue_full_counter_ =
        reg.GetCounter("qsched_rt_rejected_by_reason_total",
                       "reason=\"queue_full\"");
    rejected_shutting_down_counter_ =
        reg.GetCounter("qsched_rt_rejected_by_reason_total",
                       "reason=\"shutting_down\"");
    completed_counter_ = reg.GetCounter("qsched_rt_completed_total");
  }
}

Gateway::~Gateway() { Drain(); }

void Gateway::Start() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<harness::ThreadPool>(
      options_.workers < 1 ? 1 : options_.workers);
  // Long-running consume loops, one per worker; they return when the
  // queue is closed and drained.
  for (int i = 0; i < pool_->num_threads(); ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

bool Gateway::RecordPushOutcome(QueuePush outcome, RejectReason* reason) {
  switch (outcome) {
    case QueuePush::kOk:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr) {
        accepted_counter_->Inc();
        depth_gauge_->Set(static_cast<double>(queue_.size()));
      }
      return true;
    case QueuePush::kFull:
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      if (reason != nullptr) *reason = RejectReason::kQueueFull;
      if (telemetry_ != nullptr) {
        rejected_counter_->Inc();
        rejected_queue_full_counter_->Inc();
      }
      return false;
    case QueuePush::kClosed:
      rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
      if (reason != nullptr) *reason = RejectReason::kShuttingDown;
      if (telemetry_ != nullptr) {
        rejected_counter_->Inc();
        rejected_shutting_down_counter_->Inc();
      }
      return false;
  }
  return false;
}

Gateway::Item Gateway::Stamp(workload::Query query, CompleteFn on_complete) {
  query.id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (on_offer_) on_offer_(query);
  auto now = std::chrono::steady_clock::now();
  query.job.trace = std::make_shared<obs::QueryStageTrace>();
  query.job.trace->trace_id = query.id;
  query.job.trace->enqueued = now;
  return Item{std::move(query), now, std::move(on_complete)};
}

bool Gateway::Offer(workload::Query query, CompleteFn on_complete,
                    RejectReason* reason) {
  return RecordPushOutcome(
      queue_.TryPushOutcome(Stamp(std::move(query), std::move(on_complete))),
      reason);
}

bool Gateway::Submit(workload::Query query, CompleteFn on_complete,
                     RejectReason* reason) {
  return RecordPushOutcome(
      queue_.PushOutcome(Stamp(std::move(query), std::move(on_complete))),
      reason);
}

void Gateway::WorkerLoop() {
  std::vector<Item> batch;
  batch.reserve(admit_batch_size_);
  while (queue_.PopBatch(&batch, admit_batch_size_) > 0) {
    AdmitBatch(&batch);
  }
}

void Gateway::AdmitBatch(std::vector<Item>* batch) {
  // One timestamp per batch: every query in it was admitted by the same
  // worker wakeup, so a shared stamp keeps the StageTrace telescoping
  // exact while avoiding a clock read per query.
  auto popped = std::chrono::steady_clock::now();
  for (Item& item : *batch) {
    if (item.query.job.trace != nullptr) {
      item.query.job.trace->admitted = popped;
    }
    if (telemetry_ != nullptr) {
      admission_latency_hist_->Record(
          std::chrono::duration<double>(popped - item.enqueued).count());
    }
  }
  if (telemetry_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
    batch_occupancy_hist_->Record(static_cast<double>(batch->size()));
  }
  // The scheduler and everything behind it are single-threaded model
  // components: enter them only under the core lock — once for the
  // whole batch, in queue order. Each admission is counted before its
  // Submit: a query can complete synchronously (cancellation) or on the
  // clock thread before Submit even returns, and completed must never
  // outrun admitted or WaitIdle could report idle with work still
  // queued.
  clock_->RunBatch(batch->size(), [&](size_t i) {
    Item& item = (*batch)[i];
    admitted_.fetch_add(1, std::memory_order_release);
    frontend_->Submit(
        item.query,
        [this, per_query = std::move(item.on_complete)](
            const workload::QueryRecord& record) {
          OnQueryComplete(record, per_query);
        });
  });
}

void Gateway::OnQueryComplete(const workload::QueryRecord& record,
                              const CompleteFn& per_query) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (record.trace != nullptr) {
    obs::QueryStageTrace& trace = *record.trace;
    trace.completed = obs::QueryStageTrace::Clock::now();
    // A cancelled query never reached the engine: give it a zero-width
    // execute stage so the stages still telescope to the total.
    if (!trace.HasExecStart()) trace.exec_start = trace.completed;
    if (telemetry_ != nullptr) {
      const std::array<obs::Histogram*, 3>& hists =
          StageHistograms(record.class_id);
      hists[0]->Record(trace.GatewayQueueSeconds());
      hists[1]->Record(trace.DispatchSeconds());
      hists[2]->Record(trace.ExecuteSeconds());
    }
  }
  if (telemetry_ != nullptr) {
    completed_counter_->Inc();
    ClassCompletedCounter(record.class_id)->Inc();
  }
  if (per_query) per_query(record);
  if (on_complete_) on_complete_(record);
  // Take the idle mutex before notifying so the store to completed_
  // cannot slip between a waiter's predicate check and its sleep.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
}

obs::Counter* Gateway::ClassCompletedCounter(int class_id) {
  std::lock_guard<std::mutex> lock(class_counter_mu_);
  auto it = class_completed_counters_.find(class_id);
  if (it != class_completed_counters_.end()) return it->second;
  obs::Counter* counter = telemetry_->registry.GetCounter(
      "qsched_rt_class_completed_total",
      StrPrintf("class=\"%d\"", class_id));
  class_completed_counters_.emplace(class_id, counter);
  return counter;
}

const std::array<obs::Histogram*, 3>& Gateway::StageHistograms(
    int class_id) {
  std::lock_guard<std::mutex> lock(class_counter_mu_);
  auto it = stage_hists_.find(class_id);
  if (it != stage_hists_.end()) return it->second;
  obs::Registry& reg = telemetry_->registry;
  std::array<obs::Histogram*, 3> hists = {
      reg.GetHistogram(
          "qsched_stage_seconds",
          StrPrintf("class=\"%d\",stage=\"gateway_queue\"", class_id)),
      reg.GetHistogram(
          "qsched_stage_seconds",
          StrPrintf("class=\"%d\",stage=\"dispatch\"", class_id)),
      reg.GetHistogram(
          "qsched_stage_seconds",
          StrPrintf("class=\"%d\",stage=\"execute\"", class_id)),
  };
  return stage_hists_.emplace(class_id, hists).first->second;
}

void Gateway::Drain() {
  queue_.Close();
  if (pool_ != nullptr) {
    pool_->Wait();
    pool_.reset();
  }
}

bool Gateway::WaitIdle(double timeout_wall_seconds) {
  const SteadyTime deadline = DeadlineAfter(timeout_wall_seconds);
  std::unique_lock<std::mutex> lock(idle_mu_);
  return idle_cv_.wait_until(lock, deadline, [this] {
    return completed_.load(std::memory_order_acquire) >=
           admitted_.load(std::memory_order_acquire);
  });
}

}  // namespace qsched::rt
