#include "common/deadline.h"

#include <climits>
#include <cmath>

namespace qsched {

SteadyTime DeadlineAfter(double seconds, SteadyTime now) {
  using Ticks = SteadyTime::duration;
  if (!(seconds > 0.0)) return now;
  const double ticks =
      std::ceil(seconds * Ticks::period::den / Ticks::period::num);
  // Doubles this large are spaced wider than one tick, so a value below
  // the rounded headroom still converts to a count that fits.
  const double headroom =
      static_cast<double>((SteadyTime::max() - now).count());
  if (ticks >= headroom) return SteadyTime::max();
  return now + Ticks(static_cast<Ticks::rep>(ticks));
}

int PollTimeoutMs(SteadyTime deadline, SteadyTime now) {
  if (deadline == SteadyTime::max()) return -1;
  if (deadline <= now) return 0;
  const double ms = std::ceil(
      std::chrono::duration<double, std::milli>(deadline - now).count());
  return ms >= static_cast<double>(INT_MAX) ? INT_MAX : static_cast<int>(ms);
}

}  // namespace qsched
