#include "qp/control_table.h"

#include "common/strings.h"

namespace qsched::qp {

Status ControlTable::Insert(const QueryInfoRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = rows_.emplace(record.query_id, record);
  if (!inserted) {
    return Status::AlreadyExists(
        StrPrintf("query %llu already in control table",
                  static_cast<unsigned long long>(record.query_id)));
  }
  return Status::OK();
}

Status ControlTable::MarkReleased(uint64_t query_id, sim::SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rows_.find(query_id);
  if (it == rows_.end()) {
    return Status::NotFound("query not in control table");
  }
  if (it->second.state != QueryState::kQueued) {
    return Status::FailedPrecondition("query not queued");
  }
  it->second.state = QueryState::kRunning;
  it->second.release_time = now;
  return Status::OK();
}

Result<QueryInfoRecord> ControlTable::MarkDone(uint64_t query_id,
                                               sim::SimTime now) {
  return Finish(query_id, QueryState::kRunning, QueryState::kDone, now,
                "query not running");
}

Result<QueryInfoRecord> ControlTable::MarkCancelled(uint64_t query_id,
                                                    sim::SimTime now) {
  return Finish(query_id, QueryState::kQueued, QueryState::kCancelled, now,
                "only queued queries can cancel");
}

Result<QueryInfoRecord> ControlTable::Finish(uint64_t query_id,
                                             QueryState from, QueryState to,
                                             sim::SimTime now,
                                             const char* wrong_state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rows_.find(query_id);
  if (it == rows_.end()) {
    return Status::NotFound("query not in control table");
  }
  if (it->second.state != from) {
    return Status::FailedPrecondition(wrong_state);
  }
  QueryInfoRecord row = it->second;
  rows_.erase(it);
  row.state = to;
  row.end_time = now;
  return row;
}

std::optional<QueryInfoRecord> ControlTable::Find(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rows_.find(query_id);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

void ControlTable::ForEachQueued(
    const std::function<void(const QueryInfoRecord&)>& visit) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, row] : rows_) {
    if (row.state == QueryState::kQueued) visit(row);
  }
}

size_t ControlTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

}  // namespace qsched::qp
