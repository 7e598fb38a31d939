#ifndef QSCHED_OBS_HISTORY_H_
#define QSCHED_OBS_HISTORY_H_

#include <cstddef>

namespace qsched::obs {

/// Control intervals of planner history a live server keeps in each
/// per-interval store of an obs::Telemetry (audit log, time-series
/// recorder, prediction ledger, SLO attainment series and events): about
/// one model hour at the paper's 60 s control interval. The planner
/// itself reads none of these stores; it acts on each interval's
/// measurements only.
inline constexpr size_t kLiveHistoryIntervals = 64;

/// The per-store cap once Telemetry::KeepFullHistory() was called, and
/// the default capacity of a store built on its own: the DES harness
/// and the CLIs that export the history keep all of it up to here.
inline constexpr size_t kFullHistoryIntervals = size_t{1} << 16;

}  // namespace qsched::obs

#endif  // QSCHED_OBS_HISTORY_H_
