#include "obs/timeseries.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace qsched::obs {

namespace {

std::string ClassToJson(const IntervalClassSample& c) {
  return StrPrintf(
      "{\"class_id\":%d,\"is_oltp\":%s,\"goal\":%.9g,"
      "\"measured_raw\":%.9g,\"measured_smoothed\":%.9g,"
      "\"goal_ratio\":%.9g,\"completed_in_interval\":%d,"
      "\"queue_depth\":%d,\"running\":%d,\"running_cost\":%.9g,"
      "\"arrival_rate\":%.9g,\"predicted_rate\":%.9g,"
      "\"change_detected\":%s,\"target_limit\":%.9g,"
      "\"enforced_limit\":%.9g}",
      c.class_id, c.is_oltp ? "true" : "false", c.goal, c.measured_raw,
      c.measured, c.goal_ratio, c.completed_in_interval, c.queue_depth,
      c.running, c.admitted_cost, c.arrival_rate, c.predicted_rate,
      c.change_detected ? "true" : "false", c.target_limit, c.cost_limit);
}

/// Locates `"key":` in `json`; returns the index of the first value
/// character or npos.
size_t ValuePos(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

bool ReadNumber(const std::string& json, const std::string& key,
                double* out) {
  size_t at = ValuePos(json, key);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at;
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end == begin) return false;
  *out = value;
  return true;
}

bool ReadInt(const std::string& json, const std::string& key, int* out) {
  double value = 0.0;
  if (!ReadNumber(json, key, &value)) return false;
  *out = static_cast<int>(value);
  return true;
}

bool ReadBool(const std::string& json, const std::string& key, bool* out) {
  size_t at = ValuePos(json, key);
  if (at == std::string::npos) return false;
  if (json.compare(at, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (json.compare(at, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool ReadString(const std::string& json, const std::string& key,
                std::string* out) {
  size_t at = ValuePos(json, key);
  if (at == std::string::npos || at >= json.size() || json[at] != '"') {
    return false;
  }
  size_t close = json.find('"', at + 1);
  if (close == std::string::npos) return false;
  *out = json.substr(at + 1, close - at - 1);
  return true;
}

bool ParseClass(const std::string& obj, IntervalClassSample* c) {
  return ReadInt(obj, "class_id", &c->class_id) &&
         ReadBool(obj, "is_oltp", &c->is_oltp) &&
         ReadNumber(obj, "goal", &c->goal) &&
         ReadNumber(obj, "measured_raw", &c->measured_raw) &&
         ReadNumber(obj, "measured_smoothed", &c->measured) &&
         ReadNumber(obj, "goal_ratio", &c->goal_ratio) &&
         ReadInt(obj, "completed_in_interval", &c->completed_in_interval) &&
         ReadInt(obj, "queue_depth", &c->queue_depth) &&
         ReadInt(obj, "running", &c->running) &&
         ReadNumber(obj, "running_cost", &c->admitted_cost) &&
         ReadNumber(obj, "arrival_rate", &c->arrival_rate) &&
         ReadNumber(obj, "predicted_rate", &c->predicted_rate) &&
         ReadBool(obj, "change_detected", &c->change_detected) &&
         ReadNumber(obj, "target_limit", &c->target_limit) &&
         ReadNumber(obj, "enforced_limit", &c->cost_limit);
}

}  // namespace

std::string ToJson(const IntervalRow& row) {
  std::string json = StrPrintf(
      "{\"interval\":%llu,\"sim_time\":%.9g,\"system_cost_limit\":%.9g,"
      "\"oltp_response\":%.9g,\"solver_utility\":%.9g,"
      "\"allocator\":\"%s\",\"classes\":[",
      static_cast<unsigned long long>(row.interval), row.sim_time,
      row.system_cost_limit, row.oltp_response, row.solver_utility,
      row.allocator.c_str());
  for (size_t i = 0; i < row.classes.size(); ++i) {
    if (i > 0) json += ",";
    json += ClassToJson(row.classes[i]);
  }
  json += "]}";
  return json;
}

bool ParseIntervalRow(const std::string& json, IntervalRow* out) {
  *out = IntervalRow();
  double value = 0.0;
  if (!ReadNumber(json, "interval", &value)) return false;
  out->interval = static_cast<uint64_t>(value);
  if (!ReadNumber(json, "sim_time", &out->sim_time) ||
      !ReadNumber(json, "system_cost_limit", &out->system_cost_limit) ||
      !ReadNumber(json, "oltp_response", &out->oltp_response) ||
      !ReadNumber(json, "solver_utility", &out->solver_utility) ||
      !ReadString(json, "allocator", &out->allocator)) {
    return false;
  }

  size_t cursor = ValuePos(json, "classes");
  if (cursor == std::string::npos || json[cursor] != '[') return false;
  ++cursor;
  while (cursor < json.size() && json[cursor] == '{') {
    // Class objects are flat: the next '}' closes the object.
    size_t close = json.find('}', cursor);
    if (close == std::string::npos) return false;
    IntervalClassSample c;
    if (!ParseClass(json.substr(cursor, close - cursor + 1), &c)) {
      return false;
    }
    out->classes.push_back(c);
    cursor = close + 1;
    if (cursor < json.size() && json[cursor] == ',') ++cursor;
  }
  return cursor < json.size() && json[cursor] == ']';
}

TimeSeriesRecorder::TimeSeriesRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRecorder::Append(IntervalRow row) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rows_.size() >= capacity_) {
    rows_.pop_front();
    ++dropped_;
  }
  rows_.push_back(std::move(row));
}

void TimeSeriesRecorder::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (rows_.size() > capacity_) {
    rows_.pop_front();
    ++dropped_;
  }
}

size_t TimeSeriesRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

uint64_t TimeSeriesRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<IntervalRow> TimeSeriesRecorder::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<IntervalRow>(rows_.begin(), rows_.end());
}

void TimeSeriesRecorder::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IntervalRow& row : rows_) {
    out << ToJson(row) << "\n";
  }
}

void TimeSeriesRecorder::WriteCsv(std::ostream& out) const {
  std::vector<IntervalRow> rows = Rows();
  out << "interval,sim_time,class_id,is_oltp,cost_limit,measured,"
         "goal_ratio,queue_depth,admitted_cost,completed_in_interval,"
         "solver_wall_seconds,solver_utility,"
         "stage_gateway_queue_seconds,stage_dispatch_seconds,"
         "stage_execute_seconds\n";
  for (const IntervalRow& row : rows) {
    for (const IntervalClassSample& cls : row.classes) {
      out << StrPrintf(
          "%llu,%.9g,%d,%d,%.9g,%.9g,%.9g,%d,%.9g,%d,%.9g,%.9g,"
          "%.9g,%.9g,%.9g\n",
          static_cast<unsigned long long>(row.interval), row.sim_time,
          cls.class_id, cls.is_oltp ? 1 : 0, cls.cost_limit, cls.measured,
          cls.goal_ratio, cls.queue_depth, cls.admitted_cost,
          cls.completed_in_interval, row.solver_wall_seconds,
          row.solver_utility, cls.stage_gateway_queue_seconds,
          cls.stage_dispatch_seconds, cls.stage_execute_seconds);
    }
  }
}

}  // namespace qsched::obs
