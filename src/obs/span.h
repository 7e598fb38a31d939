#ifndef QSCHED_OBS_SPAN_H_
#define QSCHED_OBS_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <ostream>
#include <unordered_map>

namespace qsched::obs {

/// Per-query timeline: the sim-time stamp of every lifecycle transition a
/// query goes through. Stages a query skipped (e.g. OLTP bypasses the
/// interceptor queue) stay at -1.
struct QuerySpan {
  uint64_t query_id = 0;
  int class_id = 0;
  bool is_oltp = false;
  double submit_time = -1.0;    // handed to the frontend
  double classify_time = -1.0;  // classifier accepted the class
  double enqueue_time = -1.0;   // visible in the control table, blocked
  double dispatch_time = -1.0;  // released by the dispatcher
  double exec_start_time = -1.0;
  double end_time = -1.0;  // completed or cancelled
  bool cancelled = false;

  bool Closed() const { return end_time >= 0.0; }
};

/// Collects QuerySpans: transitions update an open-span table keyed by
/// query id; completion/cancellation closes the span into a bounded log
/// (drop-oldest, with a dropped counter). Transition calls for unknown
/// ids are ignored, so partially instrumented paths degrade gracefully.
///
/// Recording is opt-in: until a reader calls Enable(), every transition
/// is a no-op and the log holds no per-query state, so a live server
/// that never exports a trace keeps nothing once a query completes (its
/// per-query timing is obs::QueryStageTrace / qsched_stage_seconds
/// instead).
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 1 << 20);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Starts recording. Call before the first transition: like every
  /// other method, it is single-writer.
  void Enable() { enabled_ = true; }

  void OnSubmit(uint64_t query_id, int class_id, bool is_oltp, double now);
  void OnClassify(uint64_t query_id, double now);
  void OnEnqueue(uint64_t query_id, double now);
  void OnDispatch(uint64_t query_id, double now);
  /// Closes the span as completed. `exec_start` backfills the engine
  /// start stamp (completion records carry it; the engine itself is not
  /// span-aware).
  void OnComplete(uint64_t query_id, double exec_start, double end);
  /// Closes the span as cancelled.
  void OnCancel(uint64_t query_id, double now);

  size_t open_count() const { return open_.size(); }
  uint64_t closed_total() const { return closed_total_; }
  uint64_t dropped() const { return dropped_; }
  const std::deque<QuerySpan>& closed() const { return closed_; }
  /// nullptr when the id has no open span.
  const QuerySpan* FindOpen(uint64_t query_id) const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  /// One track (tid) per service class; each query contributes up to
  /// three slices: `intercept` (submit -> enqueue), `queued`
  /// (enqueue -> dispatch; `cancelled` when it never ran) and `exec`
  /// (exec start -> end). Sim seconds map to trace microseconds.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  void Close(uint64_t query_id, double end, bool cancelled);

  size_t capacity_;
  bool enabled_ = false;
  std::unordered_map<uint64_t, QuerySpan> open_;
  std::deque<QuerySpan> closed_;
  uint64_t closed_total_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_SPAN_H_
