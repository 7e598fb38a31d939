// Shared helpers of the qsched_e2e benchmark binary: one monotonic clock
// for every process (so driver and server spans share a timeline),
// exact percentiles over raw samples, resource usage, spans, and a tiny
// flat JSON writer for the result line run.py parses.
#ifndef QSCHED_BENCH_E2E_COMMON_H_
#define QSCHED_BENCH_E2E_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace qsched_e2e {

/// CLOCK_MONOTONIC nanoseconds. steady_clock is the same clock on Linux,
/// so the server's obs::QueryStageTrace stamps land on this timeline too.
inline int64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

inline void SleepUntilNs(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = deadline_ns / 1000000000LL;
  ts.tv_nsec = deadline_ns % 1000000000LL;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// User + system CPU microseconds of `who` (RUSAGE_SELF, RUSAGE_THREAD).
inline double CpuMicros(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Exact q-quantile of raw samples (sim::Percentile: order statistics
/// with linear interpolation), never obs::Histogram's ±19% estimate; 0
/// for none.
double Quantile(const std::vector<double>& values, double q);
/// Mean of raw samples; 0 for none.
double Mean(const std::vector<double>& values);

/// One trace span: a named interval on the shared monotonic timeline.
/// Spans of one request share `request`; `parent` names the span that
/// caused this one (empty for a root).
struct Span {
  std::string name;
  std::string parent;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int pid = 0;
  int tid = 0;
};

/// Span line exchanged between the server child and the driver:
/// "SPAN <name> <parent|-> <request> <start_ns> <end_ns> <tid>".
std::string FormatSpanLine(const Span& span);
bool ParseSpanLine(const std::string& line, Span* span);

/// Writes `spans` as Chrome trace-event JSON (ph "X", microseconds),
/// loadable in chrome://tracing or Perfetto.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans);

/// Ordered flat JSON object of numbers, strings and nested objects; just
/// enough for the result line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& Arr(const std::string& key, const std::vector<double>& values);
  /// Inserts `json` verbatim (an already-serialized value).
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace qsched_e2e

#endif  // QSCHED_BENCH_E2E_COMMON_H_
