#ifndef QSCHED_COMMON_DEADLINE_H_
#define QSCHED_COMMON_DEADLINE_H_

#include <chrono>

namespace qsched {

using SteadyTime = std::chrono::steady_clock::time_point;

/// The steady-clock instant `seconds` after `now`, saturating instead of
/// overflowing the clock's integer ticks: +inf, or any span past the
/// clock's range, gives SteadyTime::max() ("wait without bound"); zero,
/// a negative value or NaN gives `now` ("check once"). Both extremes are
/// safe to hand to condition_variable::wait_until.
SteadyTime DeadlineAfter(double seconds,
                         SteadyTime now = std::chrono::steady_clock::now());

/// poll() timeout in whole milliseconds until `deadline`, rounded up so
/// a poll that times out has reached it: -1 (block) for
/// SteadyTime::max(), 0 once it has passed, at most INT_MAX otherwise.
int PollTimeoutMs(SteadyTime deadline,
                  SteadyTime now = std::chrono::steady_clock::now());

}  // namespace qsched

#endif  // QSCHED_COMMON_DEADLINE_H_
