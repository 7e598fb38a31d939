#ifndef QSCHED_HARNESS_STATUS_PAGE_H_
#define QSCHED_HARNESS_STATUS_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/svg.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"

namespace qsched::harness {

/// Per-stage latency breakdown chart from the interval recorder: for
/// each control interval, the completion-weighted mean of the per-class
/// stage columns, as three series (gateway queue / dispatch / execute)
/// meant for obs::RenderStackedAreaChart — stacked they read as mean
/// end-to-end latency. Returns a spec with no series when the rows carry
/// no stage data (pure DES runs).
obs::SvgChartSpec BuildLatencyBreakdownSpec(
    const std::vector<obs::IntervalRow>& rows);

/// Most points /statusz draws per chart series. A server that keeps its
/// full planner history would otherwise render every interval on every
/// scrape; longer series are drawn as this many bucket means.
inline constexpr size_t kStatusPagePointsPerSeries = 256;

/// Header facts for the live status page, read from the serving runtime
/// at request time.
struct StatusPageInfo {
  std::string title = "qsched live status";
  /// Gateway lifecycle: "accepting" / "draining" / "stopped".
  std::string health = "accepting";
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t queue_depth = 0;
  double uptime_seconds = 0.0;
};

/// Renders the GET /statusz document: a fully self-contained HTML
/// snapshot of the live run — serving state and intake tiles, the SLO
/// attainment chart, the stacked per-stage latency breakdown, and the
/// full metric table — styled identically to the offline run report
/// (same stylesheet, inline SVG, no scripts, no external assets). Each
/// chart series carries at most kStatusPagePointsPerSeries points.
/// `telemetry` may be nullptr; the page then carries the tiles only.
std::string RenderStatusPage(const StatusPageInfo& info,
                             const obs::Telemetry* telemetry);

}  // namespace qsched::harness

#endif  // QSCHED_HARNESS_STATUS_PAGE_H_
