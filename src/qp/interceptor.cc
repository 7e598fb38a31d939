#include "qp/interceptor.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace qsched::qp {

Interceptor::Interceptor(sim::Clock* simulator,
                         engine::ExecutionEngine* engine,
                         const InterceptorConfig& config)
    : simulator_(simulator), engine_(engine), config_(config) {}

void Interceptor::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::Registry& reg = telemetry_->registry;
  intercepted_counter_ = reg.GetCounter("qsched_qp_intercepted_total");
  bypassed_counter_ = reg.GetCounter("qsched_qp_bypassed_total");
  released_counter_ = reg.GetCounter("qsched_qp_released_total");
  cancelled_counter_ = reg.GetCounter("qsched_qp_cancelled_total");
}

obs::Histogram* Interceptor::QueueWaitHistogram(int class_id) {
  auto it = queue_wait_hists_.find(class_id);
  if (it != queue_wait_hists_.end()) return it->second;
  obs::Histogram* hist = telemetry_->registry.GetHistogram(
      "qsched_qp_queue_wait_seconds",
      StrPrintf("class=\"%d\"", class_id));
  queue_wait_hists_.emplace(class_id, hist);
  return hist;
}

obs::Histogram* Interceptor::ResponseHistogram(int class_id) {
  auto it = response_hists_.find(class_id);
  if (it != response_hists_.end()) return it->second;
  obs::Histogram* hist = telemetry_->registry.GetHistogram(
      "qsched_response_seconds", StrPrintf("class=\"%d\"", class_id));
  response_hists_.emplace(class_id, hist);
  return hist;
}

double Interceptor::running_cost(int class_id) const {
  auto it = ledgers_.find(class_id);
  return it != ledgers_.end() ? it->second.running_cost : 0.0;
}

int Interceptor::running_count(int class_id) const {
  auto it = ledgers_.find(class_id);
  return it != ledgers_.end() ? it->second.running : 0;
}

int Interceptor::queued_count(int class_id) const {
  auto it = ledgers_.find(class_id);
  return it != ledgers_.end() ? it->second.queued : 0;
}

void Interceptor::Intercept(const workload::Query& query,
                            CompleteFn on_complete) {
  ++intercepted_total_;
  if (telemetry_ != nullptr) intercepted_counter_->Inc();
  PendingQuery pending;
  pending.query = query;
  pending.on_complete = std::move(on_complete);
  pending.submit_time = simulator_->Now();

  bool is_oltp = query.type == workload::WorkloadType::kOltp;
  // Interception consumes server CPU (control-table writes, messaging);
  // it is billed to the engine but does not block the query's own path
  // beyond the configured delay.
  double cpu = config_.CpuFor(is_oltp);
  if (cpu > 0.0) {
    engine_->cpu_pool().Submit(cpu, [] {});
  }

  uint64_t query_id = query.id;
  simulator_->ScheduleAfter(
      config_.DelayFor(is_oltp),
      [this, query_id, pending = std::move(pending)]() mutable {
        QueryInfoRecord record;
        record.query_id = query_id;
        record.class_id = pending.query.class_id;
        record.cost_timerons = pending.query.cost_timerons;
        record.is_oltp =
            pending.query.type == workload::WorkloadType::kOltp;
        record.state = QueryState::kQueued;
        record.intercept_time = simulator_->Now();
        Status st = table_.Insert(record);
        QSCHED_CHECK(st.ok()) << st.ToString();
        ledgers_[record.class_id].queued += 1;
        queued_.emplace(query_id, std::move(pending));
        if (telemetry_ != nullptr) {
          telemetry_->spans.OnEnqueue(query_id, simulator_->Now());
        }
        if (on_arrived_) on_arrived_(record);
      });
}

Status Interceptor::Release(uint64_t query_id) {
  auto it = queued_.find(query_id);
  if (it == queued_.end()) {
    return Status::NotFound("query not blocked in interceptor");
  }
  QSCHED_RETURN_NOT_OK(table_.MarkReleased(query_id, simulator_->Now()));
  PendingQuery pending = std::move(it->second);
  queued_.erase(it);
  if (telemetry_ != nullptr) {
    sim::SimTime now = simulator_->Now();
    telemetry_->spans.OnDispatch(query_id, now);
    released_counter_->Inc();
    std::optional<QueryInfoRecord> row = table_.Find(query_id);
    if (row.has_value()) {
      QueueWaitHistogram(row->class_id)
          ->Record(now - row->intercept_time);
    }
  }
  ClassLedger& ledger = ledgers_[pending.query.class_id];
  ledger.queued -= 1;
  ledger.running += 1;
  ledger.running_cost += pending.query.cost_timerons;
  StartOnEngine(query_id, std::move(pending));
  return Status::OK();
}

Status Interceptor::CancelQueued(uint64_t query_id) {
  auto it = queued_.find(query_id);
  if (it == queued_.end()) {
    return Status::NotFound("query not blocked in interceptor");
  }
  Result<QueryInfoRecord> row =
      table_.MarkCancelled(query_id, simulator_->Now());
  QSCHED_RETURN_NOT_OK(row.status());
  PendingQuery pending = std::move(it->second);
  queued_.erase(it);
  ledgers_[pending.query.class_id].queued -= 1;
  ++cancelled_total_;
  if (telemetry_ != nullptr) {
    cancelled_counter_->Inc();
    telemetry_->spans.OnCancel(query_id, simulator_->Now());
  }

  if (on_cancelled_) on_cancelled_(row.ValueOrDie());

  workload::QueryRecord record;
  record.query_id = query_id;
  record.class_id = pending.query.class_id;
  record.client_id = pending.query.client_id;
  record.type = pending.query.type;
  record.cost_timerons = pending.query.cost_timerons;
  record.submit_time = pending.submit_time;
  record.exec_start_time = simulator_->Now();
  record.end_time = simulator_->Now();
  record.cancelled = true;
  record.trace = pending.query.job.trace;
  if (pending.on_complete) pending.on_complete(record);
  return Status::OK();
}

void Interceptor::StartOnEngine(uint64_t query_id, PendingQuery pending) {
  int class_id = pending.query.class_id;
  double cost = pending.query.cost_timerons;
  workload::QueryRecord base;
  base.query_id = query_id;
  base.class_id = class_id;
  base.client_id = pending.query.client_id;
  base.type = pending.query.type;
  base.cost_timerons = cost;
  base.submit_time = pending.submit_time;
  base.trace = pending.query.job.trace;

  engine_->Execute(
      pending.query.job,
      [this, base, cost, class_id,
       on_complete = std::move(pending.on_complete)](
          const engine::ExecStats& stats) {
        Result<QueryInfoRecord> row =
            table_.MarkDone(base.query_id, simulator_->Now());
        QSCHED_CHECK(row.ok()) << row.status().ToString();
        ClassLedger& ledger = ledgers_[class_id];
        ledger.running -= 1;
        ledger.running_cost -= cost;

        workload::QueryRecord record = base;
        record.exec_start_time = stats.start_time;
        record.end_time = stats.end_time;
        if (telemetry_ != nullptr) {
          telemetry_->spans.OnComplete(base.query_id, stats.start_time,
                                       stats.end_time);
          ResponseHistogram(base.class_id)
              ->Record(record.ResponseSeconds());
        }
        if (on_finished_) on_finished_(row.ValueOrDie());
        if (on_complete) on_complete(record);
      });
}

void Interceptor::Bypass(const workload::Query& query,
                         CompleteFn on_complete) {
  ++bypassed_total_;
  if (telemetry_ != nullptr) bypassed_counter_->Inc();
  workload::QueryRecord base;
  base.query_id = query.id;
  base.class_id = query.class_id;
  base.client_id = query.client_id;
  base.type = query.type;
  base.cost_timerons = query.cost_timerons;
  base.submit_time = simulator_->Now();
  base.trace = query.job.trace;

  engine_->Execute(query.job,
                   [this, base, on_complete = std::move(on_complete)](
                       const engine::ExecStats& stats) {
                     workload::QueryRecord record = base;
                     record.exec_start_time = stats.start_time;
                     record.end_time = stats.end_time;
                     if (telemetry_ != nullptr) {
                       telemetry_->spans.OnComplete(
                           base.query_id, stats.start_time, stats.end_time);
                       ResponseHistogram(base.class_id)
                           ->Record(record.ResponseSeconds());
                     }
                     if (on_complete) on_complete(record);
                   });
}

}  // namespace qsched::qp
