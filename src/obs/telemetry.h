#ifndef QSCHED_OBS_TELEMETRY_H_
#define QSCHED_OBS_TELEMETRY_H_

#include "obs/audit.h"
#include "obs/history.h"
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
/// History: the four per-interval stores keep the last
/// kLiveHistoryIntervals intervals each (audit records, recorder rows,
/// ledger predictions — one per class per interval — and per-class SLO
/// attainment points and closed events), so a live server's memory does
/// not grow with uptime; their exact counters (dropped(),
/// SloMonitor::EventCount, intervals_observed) still cover every
/// interval. A reader that exports the whole run calls KeepFullHistory()
/// first: harness::RunExperiment and RunReplicated do, and so do the live
/// CLIs when given --audit-out or --report-html.
///
/// Thread-safety: registry, audit, recorder, ledger and slo accept
/// concurrent writers (replication workers may share one sink); spans
/// remain single-writer. Call KeepFullHistory() before handing the sink
/// to the components that write it (an rt::Runtime reads the choice once,
/// at construction).
struct Telemetry {
  /// Keeps up to kFullHistoryIntervals intervals in each store instead
  /// of the live window. Intervals already dropped stay dropped.
  void KeepFullHistory() {
    full_history_ = true;
    audit.set_capacity(kFullHistoryIntervals);
    recorder.set_capacity(kFullHistoryIntervals);
    ledger.set_capacity(kFullHistoryIntervals);
    slo.set_capacity(kFullHistoryIntervals);
  }
  bool keeps_full_history() const { return full_history_; }

  Registry registry;
  SpanLog spans;
  PlannerAuditLog audit{kLiveHistoryIntervals};
  TimeSeriesRecorder recorder{kLiveHistoryIntervals};
  PredictionLedger ledger{kLiveHistoryIntervals};
  SloMonitor slo{SloMonitor::Options(), kLiveHistoryIntervals};

 private:
  bool full_history_ = false;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_TELEMETRY_H_
