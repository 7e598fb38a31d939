// Open-loop wire driver: replays a pre-generated arrival schedule over a
// few pipelined connections and records, for every request, when it was
// due, when it was sent, when its verdict and its COMPLETED arrived.
//
// Latencies are taken from the DUE time, never the send time, so a
// stalled driver or server shows up as latency on every request it
// delays; late arrivals are sent as soon as possible and never dropped or
// re-based. `send_ns - due_ns` is the driver's own lateness, reported so
// a run whose generator could not keep its schedule is recognizable.
//
// net::Client is not used on purpose: its poll() waits have 1 ms
// granularity (a due arrival could wait that long on an idle socket) and
// it hides when each verdict arrived. This driver talks the same wire
// protocol through net::EncodeFrame / net::DecodeFrame with nonblocking
// sockets, waits with ppoll() to the microsecond, and stamps every frame
// with the time of the recv() that delivered it.
#ifndef QSCHED_BENCH_E2E_DRIVER_H_
#define QSCHED_BENCH_E2E_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/query.h"

namespace qsched_e2e {

/// Queries drawn from the TPC-H / TPC-C generators, grouped by class,
/// each also pre-encoded as a SUBMIT frame (request id 0, patched per
/// send).
struct QueryPool {
  std::vector<qsched::workload::Query> queries;
  std::vector<std::vector<uint8_t>> frames;
  std::vector<int> class_of;
  /// Per mix entry: [begin, end) into `frames`.
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<double> weights;
};

/// The wire workloads' queries: c1:c2:c3 = 3:3:94, TPC-H SF 0.01.
QueryPool WireQueryPool(uint64_t seed);
/// mixed_slo's queries (and the what-if trace synthesized from its
/// arrival process): c1:c2:c3 = 15:15:70, TPC-H SF 0.1.
QueryPool MixedQueryPool(uint64_t seed);
/// TPC-H scale factor of MixedQueryPool, which a replay of its trace
/// must regenerate demands with.
inline constexpr double kMixedTpchScale = 0.1;

/// One scheduled request: due time relative to the phase start, and the
/// pool frame it sends.
struct Arrival {
  int64_t due_ns = 0;
  uint32_t query = 0;
};

/// Poisson arrivals at `qps` for `seconds`, dealt round-robin over
/// `connections` schedules. Deterministic in `seed`.
std::vector<std::vector<Arrival>> MakeArrivals(const QueryPool& pool,
                                               double qps, double seconds,
                                               uint64_t seed,
                                               int connections);

struct RequestRecord {
  int64_t due_ns = 0;  // absolute, CLOCK_MONOTONIC
  int64_t send_ns = 0;
  int64_t verdict_ns = 0;
  int64_t complete_ns = 0;
  uint64_t trace_id = 0;
  /// Model seconds, from the COMPLETED frame.
  double response_s = 0.0;
  double exec_s = 0.0;
  /// Server wall-clock stages (v2 trace context), seconds.
  double stage_queue_s = 0.0;
  double stage_dispatch_s = 0.0;
  double stage_execute_s = 0.0;
  int class_id = 0;
  bool accepted = false;
  bool rejected = false;
  bool completed = false;
  bool has_trace = false;
};

struct ConnectionResult {
  std::vector<RequestRecord> records;
  /// COMPLETED frames for unknown, rejected or already-completed ids.
  uint64_t unmatched = 0;
  /// DRAINED received: every accepted query's COMPLETED preceded it.
  bool drained = false;
  double cpu_us = 0.0;
  std::string error;
};

/// Runs one connection per schedule, each on its own thread, starting
/// at absolute time `start_ns`; every thread DRAINs after its last
/// arrival and returns once DRAINED arrives (or `drain_timeout_s`).
std::vector<ConnectionResult> RunOpenLoop(
    const std::string& host, uint16_t port, const QueryPool& pool,
    const std::vector<std::vector<Arrival>>& schedules, int64_t start_ns,
    double drain_timeout_s);

/// Connects, sends one PING and waits for its PONG (true) or gives up
/// after `timeout_s`; retries refused connects while the server starts.
bool PingOnce(const std::string& host, uint16_t port, double timeout_s);

}  // namespace qsched_e2e

#endif  // QSCHED_BENCH_E2E_DRIVER_H_
