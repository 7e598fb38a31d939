#include "replay/recorder.h"

#include <unordered_map>
#include <utility>

#include "common/deadline.h"

namespace qsched::replay {

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

/// Thread-local cache: recorder id -> that thread's buffer. Keyed by the
/// process-unique recorder id (not the pointer), so entries left behind
/// by a destroyed recorder can never alias a new recorder that happens
/// to reuse the same address.
thread_local std::unordered_map<uint64_t, void*> t_buffer_cache;

}  // namespace

TraceRecorder::TraceRecorder(const RecorderOptions& options,
                             obs::Telemetry* telemetry)
    : options_(options),
      codec_(workload::TpchWorkloadParams(), workload::TpccWorkloadParams(),
             /*seed=*/1),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.buffer_records == 0) options_.buffer_records = 1;
  if (telemetry != nullptr) {
    obs::Registry& reg = telemetry->registry;
    captured_counter_ =
        reg.GetCounter("qsched_replay_captured_records_total");
    dropped_counter_ =
        reg.GetCounter("qsched_replay_dropped_records_total");
    segments_counter_ =
        reg.GetCounter("qsched_replay_segments_written_total");
    bytes_gauge_ = reg.GetGauge("qsched_replay_trace_bytes");
  }
}

TraceRecorder::~TraceRecorder() { Stop(); }

Status TraceRecorder::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  Result<std::unique_ptr<TraceWriter>> opened =
      TraceWriter::Open(options_.writer);
  if (!opened.ok()) return opened.status();
  writer_ = std::move(opened).ValueOrDie();
  // Sweep swaps scratch_ into a producer's buffer; sized like the
  // buffers, it never makes a producer regrow under its buffer lock.
  scratch_.reserve(options_.buffer_records);
  start_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    stop_writer_ = false;
  }
  running_.store(true, std::memory_order_release);
  writer_thread_ = std::thread([this] { WriterLoop(); });
  return Status::OK();
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  auto it = t_buffer_cache.find(id_);
  if (it != t_buffer_cache.end()) {
    return static_cast<ThreadBuffer*>(it->second);
  }
  auto owned = std::make_unique<ThreadBuffer>();
  owned->records.reserve(options_.buffer_records);
  ThreadBuffer* buffer = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(std::move(owned));
  }
  t_buffer_cache.emplace(id_, buffer);
  return buffer;
}

void TraceRecorder::Record(const workload::Query& query) {
  if (!running_.load(std::memory_order_acquire)) return;
  TraceRecord record;
  record.arrival_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  record.trace_id = query.id;
  record.cost_timerons = query.cost_timerons;
  record.class_id = static_cast<uint16_t>(query.class_id);
  record.template_id = codec_.Encode(query);

  ThreadBuffer* buffer = BufferForThisThread();
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(buffer->mu);
    // Re-check under the lock: once Stop()'s final sweep has passed this
    // buffer, nothing may be added behind it.
    if (running_.load(std::memory_order_acquire) &&
        buffer->records.size() < options_.buffer_records) {
      buffer->records.push_back(record);
      accepted = true;
    }
  }
  if (accepted) {
    captured_.fetch_add(1, std::memory_order_relaxed);
    if (captured_counter_ != nullptr) captured_counter_->Inc();
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_counter_ != nullptr) dropped_counter_->Inc();
  }
}

void TraceRecorder::WriterLoop() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  while (!stop_writer_) {
    writer_cv_.wait_until(lock,
                          DeadlineAfter(options_.flush_interval_seconds),
                          [this] { return stop_writer_; });
    if (stop_writer_) break;
    lock.unlock();
    Sweep();
    lock.lock();
  }
}

void TraceRecorder::Sweep() {
  // Snapshot the buffer list; buffers are append-only and never freed
  // before Stop, so the pointers stay valid outside registry_mu_.
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers.reserve(buffers_.size());
    for (const auto& owned : buffers_) buffers.push_back(owned.get());
  }
  const uint64_t segments_before = writer_->segments_written();
  for (ThreadBuffer* buffer : buffers) {
    scratch_.clear();
    {
      std::lock_guard<std::mutex> lock(buffer->mu);
      scratch_.swap(buffer->records);
    }
    for (const TraceRecord& record : scratch_) {
      // Append failures (disk full) surface at Stop via Close; records
      // are still counted captured — the capture metrics describe the
      // hot path, not the disk.
      (void)writer_->Append(record);
    }
  }
  if (segments_counter_ != nullptr) {
    const uint64_t delta = writer_->segments_written() - segments_before;
    for (uint64_t i = 0; i < delta; ++i) segments_counter_->Inc();
  }
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<double>(writer_->bytes_written()));
  }
}

Status TraceRecorder::Stop(const TraceSummary* summary) {
  if (!running_.load(std::memory_order_acquire)) return Status::OK();
  // Close intake first: Record() holding a buffer lock right now will
  // finish its push and be picked up by the final sweep; later calls see
  // running_ == false and count as dropped.
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    stop_writer_ = true;
  }
  writer_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  Sweep();
  Status result = Status::OK();
  if (summary != nullptr) {
    result = writer_->WriteSummary(*summary);
  }
  Status closed = writer_->Close();
  if (result.ok()) result = closed;
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<double>(writer_->bytes_written()));
  }
  return result;
}

}  // namespace qsched::replay
