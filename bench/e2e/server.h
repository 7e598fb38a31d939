// Server role of qsched_e2e: builds one serving stack in this (child)
// process, prints "READY <port> <http_port>", then follows commands on
// stdin, one per line:
//
//   MARK   record this process's CPU usage (sent at every slice boundary
//          of the measured window)
//   STOP   drain, shut down, print "RESULT <json>" and the SPAN lines
//
// End of input counts as STOP, so a child never outlives its driver.
#ifndef QSCHED_BENCH_E2E_SERVER_H_
#define QSCHED_BENCH_E2E_SERVER_H_

#include <cstdint>
#include <string>

namespace qsched_e2e {

/// The stacks the live workloads run (see README.md, "Workloads").
enum class Stack {
  /// rt::Runtime + net::Server: time scale 6000, control interval 60.
  kDirect,
  /// cluster::Router over two kDirect-style backends (one reactor each),
  /// with a TraceRecorder on the offer hook and an obs::HttpServer.
  kRouted,
  /// rt::Runtime + net::Server: time scale 60, control interval 15.
  kMixed,
};

bool StackFromString(const std::string& name, Stack* stack);

/// The kMixed stack's model clock: time scale (model seconds per wall
/// second) and control interval (model seconds).
inline constexpr double kMixedTimeScale = 60.0;
inline constexpr double kMixedControlIntervalSeconds = 15.0;
/// mixed_slo's open-loop rate, which whatif_des's synthesized arrival
/// process shares. At 700 QPS the seed decides whether the planner gives
/// up c1 (README.md, "Why 800 QPS").
inline constexpr double kMixedQps = 800.0;

struct ServeOptions {
  Stack stack = Stack::kDirect;
  uint64_t seed = 42;
  /// Attach the timing decorator, the 1 kHz core-lock / timer probes and
  /// span capture.
  bool trace = false;
  /// Wall seconds the stack must stay up; sizes the runtime horizon.
  double horizon_wall_seconds = 60.0;
  /// Directory for the routed stack's captured replay trace.
  std::string out_dir = ".";
};

/// Runs the server role to completion; returns the process exit code.
int RunServe(const ServeOptions& options);

}  // namespace qsched_e2e

#endif  // QSCHED_BENCH_E2E_SERVER_H_
