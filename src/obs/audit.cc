#include "obs/audit.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace qsched::obs {

namespace {

std::string ClassToJson(const PlannerAuditClass& c) {
  return StrPrintf(
      "{\"class_id\":%d,\"is_oltp\":%s,\"goal\":%.9g,"
      "\"measured_raw\":%.9g,\"measured_smoothed\":%.9g,"
      "\"goal_ratio\":%.9g,\"completed_in_interval\":%d,"
      "\"queue_depth\":%d,\"running\":%d,\"running_cost\":%.9g,"
      "\"arrival_rate\":%.9g,\"predicted_rate\":%.9g,"
      "\"change_detected\":%s,\"target_limit\":%.9g,"
      "\"enforced_limit\":%.9g}",
      c.class_id, c.is_oltp ? "true" : "false", c.goal, c.measured_raw,
      c.measured_smoothed, c.goal_ratio, c.completed_in_interval,
      c.queue_depth, c.running, c.running_cost, c.arrival_rate,
      c.predicted_rate, c.change_detected ? "true" : "false",
      c.target_limit, c.enforced_limit);
}

/// Locates `"key":` in `json` starting at `from`; returns the index of
/// the first value character or npos.
size_t ValuePos(const std::string& json, const std::string& key,
                size_t from = 0) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

bool ReadNumber(const std::string& json, const std::string& key,
                double* out, size_t from = 0) {
  size_t at = ValuePos(json, key, from);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at;
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end == begin) return false;
  *out = value;
  return true;
}

bool ReadBool(const std::string& json, const std::string& key, bool* out,
              size_t from = 0) {
  size_t at = ValuePos(json, key, from);
  if (at == std::string::npos) return false;
  *out = json.compare(at, 4, "true") == 0;
  return true;
}

bool ReadString(const std::string& json, const std::string& key,
                std::string* out, size_t from = 0) {
  size_t at = ValuePos(json, key, from);
  if (at == std::string::npos || at >= json.size() || json[at] != '"') {
    return false;
  }
  size_t close = json.find('"', at + 1);
  if (close == std::string::npos) return false;
  *out = json.substr(at + 1, close - at - 1);
  return true;
}

bool ParseClass(const std::string& obj, PlannerAuditClass* c) {
  double value = 0.0;
  if (!ReadNumber(obj, "class_id", &value)) return false;
  c->class_id = static_cast<int>(value);
  if (!ReadBool(obj, "is_oltp", &c->is_oltp)) return false;
  if (!ReadNumber(obj, "goal", &c->goal)) return false;
  if (!ReadNumber(obj, "measured_raw", &c->measured_raw)) return false;
  if (!ReadNumber(obj, "measured_smoothed", &c->measured_smoothed)) {
    return false;
  }
  if (!ReadNumber(obj, "goal_ratio", &c->goal_ratio)) return false;
  if (!ReadNumber(obj, "completed_in_interval", &value)) return false;
  c->completed_in_interval = static_cast<int>(value);
  if (!ReadNumber(obj, "queue_depth", &value)) return false;
  c->queue_depth = static_cast<int>(value);
  if (!ReadNumber(obj, "running", &value)) return false;
  c->running = static_cast<int>(value);
  if (!ReadNumber(obj, "running_cost", &c->running_cost)) return false;
  if (!ReadNumber(obj, "arrival_rate", &c->arrival_rate)) return false;
  if (!ReadNumber(obj, "predicted_rate", &c->predicted_rate)) return false;
  if (!ReadBool(obj, "change_detected", &c->change_detected)) return false;
  if (!ReadNumber(obj, "target_limit", &c->target_limit)) return false;
  if (!ReadNumber(obj, "enforced_limit", &c->enforced_limit)) return false;
  return true;
}

}  // namespace

std::string ToJson(const PlannerAuditRecord& record) {
  std::string json = StrPrintf(
      "{\"interval\":%llu,\"sim_time\":%.9g,\"system_cost_limit\":%.9g,"
      "\"oltp_response\":%.9g,\"solver_utility\":%.9g,"
      "\"allocator\":\"%s\",\"classes\":[",
      static_cast<unsigned long long>(record.interval), record.sim_time,
      record.system_cost_limit, record.oltp_response, record.solver_utility,
      record.allocator.c_str());
  for (size_t i = 0; i < record.classes.size(); ++i) {
    if (i > 0) json += ",";
    json += ClassToJson(record.classes[i]);
  }
  json += "]}";
  return json;
}

bool ParsePlannerAuditRecord(const std::string& json,
                             PlannerAuditRecord* out) {
  *out = PlannerAuditRecord();
  double value = 0.0;
  if (!ReadNumber(json, "interval", &value)) return false;
  out->interval = static_cast<uint64_t>(value);
  if (!ReadNumber(json, "sim_time", &out->sim_time)) return false;
  if (!ReadNumber(json, "system_cost_limit", &out->system_cost_limit)) {
    return false;
  }
  if (!ReadNumber(json, "oltp_response", &out->oltp_response)) return false;
  if (!ReadNumber(json, "solver_utility", &out->solver_utility)) {
    return false;
  }
  if (!ReadString(json, "allocator", &out->allocator)) return false;

  size_t at = ValuePos(json, "classes");
  if (at == std::string::npos || json[at] != '[') return false;
  size_t cursor = at + 1;
  while (cursor < json.size() && json[cursor] != ']') {
    size_t open = json.find('{', cursor);
    if (open == std::string::npos) break;
    // Class objects are flat: the next '}' closes the object.
    size_t close = json.find('}', open);
    if (close == std::string::npos) return false;
    PlannerAuditClass c;
    if (!ParseClass(json.substr(open, close - open + 1), &c)) return false;
    out->classes.push_back(c);
    cursor = close + 1;
    while (cursor < json.size() &&
           (json[cursor] == ',' || json[cursor] == ' ')) {
      ++cursor;
    }
  }
  return true;
}

PlannerAuditLog::PlannerAuditLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void PlannerAuditLog::Add(PlannerAuditRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

void PlannerAuditLog::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (records_.size() > capacity_) {
    records_.pop_front();
    ++dropped_;
  }
}

size_t PlannerAuditLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t PlannerAuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void PlannerAuditLog::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PlannerAuditRecord& record : records_) {
    out << ToJson(record) << "\n";
  }
}

}  // namespace qsched::obs
