#ifndef QSCHED_QP_CONTROL_TABLE_H_
#define QSCHED_QP_CONTROL_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>

#include "common/status.h"
#include "sim/clock.h"

namespace qsched::qp {

/// Lifecycle of an intercepted query inside Query Patroller.
enum class QueryState {
  kQueued,     // intercepted, agent blocked, waiting for Release
  kRunning,    // released to the engine
  kDone,       // finished; only on the row MarkDone hands back
  kCancelled,  // cancelled while queued; only on the row MarkCancelled
               // hands back
};

/// One row of the Query Patroller control tables: the query information
/// the paper's Monitor reads (identification, optimizer cost, execution
/// state and times).
struct QueryInfoRecord {
  uint64_t query_id = 0;
  int class_id = 0;
  double cost_timerons = 0.0;
  /// True when the query belongs to the OLTP workload type.
  bool is_oltp = false;
  QueryState state = QueryState::kQueued;
  sim::SimTime intercept_time = 0.0;
  sim::SimTime release_time = 0.0;
  sim::SimTime end_time = 0.0;
};

/// In-memory stand-in for the DB2 QP control tables. Keyed by query id;
/// the Governor scans its queued rows. A row lives only while its query
/// is queued or running: MarkDone and MarkCancelled remove it and hand it
/// back, so the table's size follows the queries in flight, not the
/// queries served.
///
/// Thread-safety contract: every method takes an internal mutex, so rows
/// may be inserted, transitioned and scanned from concurrent threads (the
/// real-time runtime's gateway workers and clock thread both touch the
/// table). Find() returns a copy — never a pointer into the map — so a
/// concurrent MarkDone/MarkCancelled cannot invalidate what a reader
/// holds. ForEachQueued holds the lock while visiting: visitors must be
/// short and must not call back into the same ControlTable
/// (self-deadlock). Compound check-then-act sequences across calls (e.g.
/// Find then MarkReleased) still need external serialization — in the rt
/// runtime that is the core lock; the DES is single-threaded.
class ControlTable {
 public:
  Status Insert(const QueryInfoRecord& record);
  Status MarkReleased(uint64_t query_id, sim::SimTime now);
  /// Finishes a *running* query: removes its row and returns it with
  /// state kDone and end_time `now`.
  Result<QueryInfoRecord> MarkDone(uint64_t query_id, sim::SimTime now);
  /// Cancels a *queued* query (the QP admin "cancel" action): removes its
  /// row and returns it with state kCancelled and end_time `now`.
  Result<QueryInfoRecord> MarkCancelled(uint64_t query_id,
                                        sim::SimTime now);

  /// Returns a copy of the row, or nullopt when absent.
  std::optional<QueryInfoRecord> Find(uint64_t query_id) const;

  /// Visits every queued row (the Governor's sweep) under the table lock;
  /// see the class contract for visitor restrictions.
  void ForEachQueued(
      const std::function<void(const QueryInfoRecord&)>& visit) const;

  /// Rows held: the queries queued or running.
  size_t size() const;

 private:
  /// Removes the row of a query in state `from`, stamped `to` at `now`.
  Result<QueryInfoRecord> Finish(uint64_t query_id, QueryState from,
                                 QueryState to, sim::SimTime now,
                                 const char* wrong_state);

  mutable std::mutex mu_;
  std::map<uint64_t, QueryInfoRecord> rows_;
};

}  // namespace qsched::qp

#endif  // QSCHED_QP_CONTROL_TABLE_H_
