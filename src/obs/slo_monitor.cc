#include "obs/slo_monitor.h"

#include <algorithm>

#include "common/strings.h"

namespace qsched::obs {

std::string ToJson(const SloViolationEvent& event) {
  return StrPrintf(
      "{\"type\":\"slo_violation\",\"class_id\":%d,"
      "\"start_interval\":%llu,\"start_time\":%.9g,"
      "\"end_interval\":%llu,\"end_time\":%.9g,\"intervals\":%d,"
      "\"worst_ratio\":%.9g,\"duration\":%.9g,\"open\":%s}",
      event.class_id,
      static_cast<unsigned long long>(event.start_interval),
      event.start_time,
      static_cast<unsigned long long>(event.end_interval), event.end_time,
      event.intervals, event.worst_ratio, event.duration,
      event.open ? "true" : "false");
}

SloMonitor::SloMonitor(Options options) : options_(options) {
  if (options_.window < 1) options_.window = 1;
}

void SloMonitor::Observe(int class_id, uint64_t interval, double sim_time,
                         double goal_ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassState& state = classes_[class_id];
  bool met = goal_ratio >= 1.0;
  ++state.observed;
  if (met) ++state.met;
  state.recent_met.push_back(met);
  while (state.recent_met.size() >
         static_cast<size_t>(options_.window)) {
    state.recent_met.pop_front();
  }
  size_t met_in_window = 0;
  for (bool m : state.recent_met) {
    if (m) ++met_in_window;
  }
  if (state.attainment_series.size() >= kSeriesCapacity) {
    state.attainment_series.pop_front();
  }
  state.attainment_series.emplace_back(
      sim_time, static_cast<double>(met_in_window) /
                    static_cast<double>(state.recent_met.size()));

  if (!met) {
    if (!state.violating) {
      state.violating = true;
      state.current = SloViolationEvent();
      state.current.class_id = class_id;
      state.current.start_interval = interval;
      state.current.start_time = sim_time;
      state.current.worst_ratio = goal_ratio;
    }
    state.current.end_interval = interval;
    state.current.end_time = sim_time;
    state.current.duration =
        state.current.end_time - state.current.start_time;
    state.current.worst_ratio =
        std::min(state.current.worst_ratio, goal_ratio);
    ++state.current.intervals;
  } else if (state.violating) {
    state.violating = false;
    state.current.open = false;
    ++state.closed_events;
    if (closed_.size() >= kSeriesCapacity) {
      closed_.pop_front();
      ++events_dropped_;
    }
    closed_.push_back(state.current);
  }
}

double SloMonitor::RollingAttainment(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  if (it == classes_.end() || it->second.attainment_series.empty()) {
    return 0.0;
  }
  return it->second.attainment_series.back().second;
}

double SloMonitor::OverallAttainment(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  if (it == classes_.end() || it->second.observed == 0) return 0.0;
  return static_cast<double>(it->second.met) /
         static_cast<double>(it->second.observed);
}

uint64_t SloMonitor::intervals_observed(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  return it == classes_.end() ? 0 : it->second.observed;
}

std::vector<int> SloMonitor::ObservedClasses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  ids.reserve(classes_.size());
  for (const auto& [class_id, state] : classes_) {
    if (state.observed > 0) ids.push_back(class_id);
  }
  return ids;
}

uint64_t SloMonitor::EventCount(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  if (it == classes_.end()) return 0;
  return it->second.closed_events + (it->second.violating ? 1 : 0);
}

uint64_t SloMonitor::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_dropped_;
}

std::vector<SloViolationEvent> SloMonitor::EventsLocked() const {
  std::vector<SloViolationEvent> events(closed_.begin(), closed_.end());
  for (const auto& [class_id, state] : classes_) {
    if (state.violating) {
      SloViolationEvent open_event = state.current;
      open_event.open = true;
      events.push_back(open_event);
    }
  }
  // Closed events accumulate across classes in time order already;
  // re-sort so per-class open events interleave deterministically.
  std::stable_sort(events.begin(), events.end(),
                   [](const SloViolationEvent& a,
                      const SloViolationEvent& b) {
                     if (a.start_interval != b.start_interval) {
                       return a.start_interval < b.start_interval;
                     }
                     return a.class_id < b.class_id;
                   });
  return events;
}

std::vector<SloViolationEvent> SloMonitor::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EventsLocked();
}

std::vector<SloViolationEvent> SloMonitor::EventsFor(int class_id) const {
  std::vector<SloViolationEvent> all = Events();
  std::vector<SloViolationEvent> mine;
  for (const SloViolationEvent& event : all) {
    if (event.class_id == class_id) mine.push_back(event);
  }
  return mine;
}

std::vector<std::pair<double, double>> SloMonitor::AttainmentSeries(
    int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  if (it == classes_.end()) return {};
  return {it->second.attainment_series.begin(),
          it->second.attainment_series.end()};
}

void SloMonitor::WriteEventsJsonl(std::ostream& out) const {
  std::vector<SloViolationEvent> events = Events();
  for (const SloViolationEvent& event : events) {
    out << ToJson(event) << "\n";
  }
}

}  // namespace qsched::obs
