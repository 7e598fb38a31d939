#include "obs/span.h"

#include <map>
#include <utility>

#include "common/strings.h"

namespace qsched::obs {

SpanLog::SpanLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void SpanLog::OnSubmit(uint64_t query_id, int class_id, bool is_oltp,
                       double now) {
  if (!enabled_) return;
  QuerySpan span;
  span.query_id = query_id;
  span.class_id = class_id;
  span.is_oltp = is_oltp;
  span.submit_time = now;
  open_[query_id] = span;
}

void SpanLog::OnClassify(uint64_t query_id, double now) {
  auto it = open_.find(query_id);
  if (it != open_.end()) it->second.classify_time = now;
}

void SpanLog::OnEnqueue(uint64_t query_id, double now) {
  auto it = open_.find(query_id);
  if (it != open_.end()) it->second.enqueue_time = now;
}

void SpanLog::OnDispatch(uint64_t query_id, double now) {
  auto it = open_.find(query_id);
  if (it != open_.end()) it->second.dispatch_time = now;
}

void SpanLog::OnComplete(uint64_t query_id, double exec_start, double end) {
  auto it = open_.find(query_id);
  if (it == open_.end()) return;
  it->second.exec_start_time = exec_start;
  Close(query_id, end, /*cancelled=*/false);
}

void SpanLog::OnCancel(uint64_t query_id, double now) {
  Close(query_id, now, /*cancelled=*/true);
}

void SpanLog::Close(uint64_t query_id, double end, bool cancelled) {
  auto it = open_.find(query_id);
  if (it == open_.end()) return;
  QuerySpan span = it->second;
  open_.erase(it);
  span.end_time = end;
  span.cancelled = cancelled;
  if (closed_.size() >= capacity_) {
    closed_.pop_front();
    ++dropped_;
  }
  closed_.push_back(span);
  ++closed_total_;
}

const QuerySpan* SpanLog::FindOpen(uint64_t query_id) const {
  auto it = open_.find(query_id);
  return it != open_.end() ? &it->second : nullptr;
}

namespace {

constexpr double kMicrosPerSecond = 1e6;

void WriteSlice(std::ostream& out, bool* first, const char* name,
                int class_id, double t0, double t1, uint64_t query_id) {
  if (t0 < 0.0 || t1 < t0) return;
  if (!*first) out << ",\n";
  *first = false;
  out << StrPrintf(
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query_id\":%llu}}",
      name, class_id, t0 * kMicrosPerSecond,
      (t1 - t0) * kMicrosPerSecond,
      static_cast<unsigned long long>(query_id));
}

}  // namespace

void SpanLog::WriteChromeTrace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // One named track per service class.
  std::map<int, bool> classes;  // class id -> is_oltp
  for (const QuerySpan& span : closed_) classes[span.class_id] = span.is_oltp;
  for (const auto& [id, span] : open_) classes[span.class_id] = span.is_oltp;
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"qsched\"}}";
  first = false;
  for (const auto& [class_id, is_oltp] : classes) {
    out << ",\n"
        << StrPrintf(
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"class %d (%s)\"}},\n",
               class_id, class_id, is_oltp ? "OLTP" : "OLAP")
        << StrPrintf(
               "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"sort_index\":%d}}",
               class_id, class_id);
  }

  for (const QuerySpan& span : closed_) {
    WriteSlice(out, &first, "intercept", span.class_id, span.submit_time,
               span.enqueue_time, span.query_id);
    if (span.cancelled) {
      double queued_from =
          span.enqueue_time >= 0.0 ? span.enqueue_time : span.submit_time;
      WriteSlice(out, &first, "cancelled", span.class_id, queued_from,
                 span.end_time, span.query_id);
      continue;
    }
    WriteSlice(out, &first, "queued", span.class_id, span.enqueue_time,
               span.dispatch_time, span.query_id);
    WriteSlice(out, &first, "exec", span.class_id, span.exec_start_time,
               span.end_time, span.query_id);
  }
  out << "\n]}\n";
}

}  // namespace qsched::obs
