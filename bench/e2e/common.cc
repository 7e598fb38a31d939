#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/stats.h"

namespace qsched_e2e {

double Quantile(const std::vector<double>& values, double q) {
  return qsched::sim::Percentile(values, q);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string FormatSpanLine(const Span& span) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "SPAN %s %s %" PRIu64 " %" PRId64
                " %" PRId64 " %d",
                span.name.c_str(),
                span.parent.empty() ? "-" : span.parent.c_str(),
                span.request, span.start_ns, span.end_ns, span.tid);
  return buf;
}

bool ParseSpanLine(const std::string& line, Span* span) {
  std::istringstream in(line);
  std::string tag;
  if (!(in >> tag) || tag != "SPAN") return false;
  if (!(in >> span->name >> span->parent >> span->request >>
        span->start_ns >> span->end_ns >> span->tid)) {
    return false;
  }
  if (span->parent == "-") span->parent.clear();
  return true;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%d,\"tid\":%d,\"args\":{\"request\":%" PRIu64
        ",\"parent\":\"%s\"}}",
        first ? "" : ",\n", s.name.c_str(),
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.pid, s.tid,
        s.request, s.parent.c_str());
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

JsonObject& JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Arr(const std::string& key,
                            const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  out += "]";
  fields_.emplace_back(key, out);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key,
                            const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  fields_.emplace_back(key, quoted);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

}  // namespace qsched_e2e
