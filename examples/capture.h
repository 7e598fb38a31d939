// --capture-trace support shared by the serving CLIs (rt_cli serve-style
// runs, net_cli --mode=serve, cluster_cli --mode=route): builds a
// replay::TraceRecorder from flags, and stops it with the live-run summary
// segment (replay::MakeCaptureSummary) at shutdown.
//
// Flags:
//   --capture-trace=PATH    record every offered query to PATH
//   --capture-rotate-mb=N   rotate to PATH.1, PATH.2, ... above N MB (0)
//   --capture-buffer=N      per-producer-thread buffer records (8192)
#ifndef QSCHED_EXAMPLES_CAPTURE_H_
#define QSCHED_EXAMPLES_CAPTURE_H_

#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.h"
#include "obs/telemetry.h"
#include "replay/recorder.h"

namespace qsched_examples {

/// Builds and starts a trace recorder when --capture-trace=PATH is set;
/// returns nullptr otherwise (and on open failure, which is reported).
/// `time_scale` and `seed` are stamped into the trace header.
inline std::unique_ptr<qsched::replay::TraceRecorder> MaybeStartCapture(
    const qsched::FlagParser& flags, double time_scale, uint64_t seed,
    qsched::obs::Telemetry* telemetry) {
  const std::string path = flags.GetString("capture-trace", "");
  if (path.empty()) return nullptr;
  qsched::replay::RecorderOptions options;
  options.writer.path = path;
  options.writer.rotate_bytes = static_cast<uint64_t>(
      flags.GetDouble("capture-rotate-mb", 0.0) * 1e6);
  options.writer.header.time_scale = time_scale;
  options.writer.header.seed = seed;
  options.buffer_records =
      static_cast<size_t>(flags.GetInt("capture-buffer", 8192));
  auto recorder = std::make_unique<qsched::replay::TraceRecorder>(
      options, telemetry);
  qsched::Status started = recorder->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "trace capture disabled: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  std::printf("capturing trace to %s\n", path.c_str());
  return recorder;
}

/// Stops the recorder (no-op on nullptr), writes `summary` when given,
/// and prints the capture accounting line.
inline void StopCapture(qsched::replay::TraceRecorder* recorder,
                        const qsched::replay::TraceSummary* summary) {
  if (recorder == nullptr) return;
  qsched::Status stopped = recorder->Stop(summary);
  if (!stopped.ok()) {
    std::fprintf(stderr, "trace capture stop: %s\n",
                 stopped.ToString().c_str());
  }
  std::printf("CAPTURE captured=%llu dropped=%llu segments=%llu "
              "bytes=%llu\n",
              static_cast<unsigned long long>(recorder->captured()),
              static_cast<unsigned long long>(recorder->dropped()),
              static_cast<unsigned long long>(
                  recorder->writer() != nullptr
                      ? recorder->writer()->segments_written()
                      : 0),
              static_cast<unsigned long long>(
                  recorder->writer() != nullptr
                      ? recorder->writer()->bytes_written()
                      : 0));
}

}  // namespace qsched_examples

#endif  // QSCHED_EXAMPLES_CAPTURE_H_
