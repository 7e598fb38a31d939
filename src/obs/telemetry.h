#ifndef QSCHED_OBS_TELEMETRY_H_
#define QSCHED_OBS_TELEMETRY_H_

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prediction.h"
#include "obs/slo_monitor.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace qsched::obs {

/// The observability pillars bundled as one injectable unit: the raw
/// plumbing (metrics registry, opt-in per-query spans, planner audit
/// log) plus the derived analytics layer (per-interval time-series
/// table, prediction-vs-actual ledger, SLO attainment monitor). Components
/// accept a `Telemetry*` (nullptr by default = telemetry off;
/// instrumented call sites guard on the pointer, so a disabled run pays
/// nothing but the branch). The owner — typically the experiment driver —
/// outlives every component it hands the pointer to.
///
/// Thread-safety: registry, audit, recorder, ledger and slo accept
/// concurrent writers (replication workers may share one sink); spans
/// remain single-writer.
struct Telemetry {
  Registry registry;
  SpanLog spans;
  PlannerAuditLog audit;
  TimeSeriesRecorder recorder;
  PredictionLedger ledger;
  SloMonitor slo;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_TELEMETRY_H_
