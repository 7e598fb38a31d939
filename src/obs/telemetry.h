#ifndef QSCHED_OBS_TELEMETRY_H_
#define QSCHED_OBS_TELEMETRY_H_

#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/prediction.h"
#include "obs/slo_monitor.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace qsched::obs {

/// The observability stores bundled as one injectable unit: the raw
/// plumbing (metrics registry, opt-in per-query spans) plus the
/// per-interval planner record (the time-series recorder: one row per
/// Scheduling Planner cycle, exported as the audit JSONL, the CSV and
/// the charts) and the analytics derived from it (prediction-vs-actual
/// ledger, SLO attainment monitor). Components accept a `Telemetry*`
/// (nullptr by default = telemetry off; instrumented call sites guard on
/// the pointer, so a disabled run pays nothing but the branch). The
/// owner — typically the experiment driver — outlives every component it
/// hands the pointer to.
///
/// History: the three per-interval stores keep the last
/// kLiveHistoryIntervals intervals each (recorder rows, ledger
/// predictions — one per class per interval — and per-class SLO
/// attainment points and closed events), so a live server's memory does
/// not grow with uptime; their exact counters (dropped(),
/// SloMonitor::EventCount, intervals_observed) still cover every
/// interval. A reader that exports the whole run calls KeepFullHistory()
/// first: harness::RunExperiment and RunReplicated do, and so do the live
/// CLIs when given --audit-out or --report-html.
///
/// Thread-safety: registry, recorder, ledger and slo accept concurrent
/// writers (replication workers may share one sink); spans remain
/// single-writer. Call KeepFullHistory() before handing the sink to the
/// components that write it (an rt::Runtime reads the choice once, at
/// construction).
struct Telemetry {
  /// Keeps up to kFullHistoryIntervals intervals in each store instead
  /// of the live window. Intervals already dropped stay dropped.
  void KeepFullHistory() {
    full_history_ = true;
    recorder.set_capacity(kFullHistoryIntervals);
    ledger.set_capacity(kFullHistoryIntervals);
    slo.set_capacity(kFullHistoryIntervals);
  }
  bool keeps_full_history() const { return full_history_; }

  Registry registry;
  SpanLog spans;
  TimeSeriesRecorder recorder{kLiveHistoryIntervals};
  PredictionLedger ledger{kLiveHistoryIntervals};
  SloMonitor slo{SloMonitor::Options(), kLiveHistoryIntervals};

 private:
  bool full_history_ = false;
};

}  // namespace qsched::obs

#endif  // QSCHED_OBS_TELEMETRY_H_
