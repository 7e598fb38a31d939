#include "replay/shadow_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "harness/parallel.h"
#include "metrics/class_outcome.h"
#include "replay/template_codec.h"
#include "scheduler/utility.h"
#include "sim/simulator.h"
#include "workload/client.h"

namespace qsched::replay {

namespace {

/// Report names must stay key=value parseable in WHATIF lines, so the
/// '=' and ',' of candidate specs become ':' and ';'.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '=') c = ':';
    if (c == ',') c = ';';
    if (c == ' ') c = '_';
  }
  return out.empty() ? std::string("unnamed") : out;
}

/// Scores one class's measured outcome under the default utility
/// function, the one the planner optimizes. A class with no completions
/// scores at goal ratio 0: a silent class must read as a violated one,
/// not a free one.
ShadowClassOutcome ScoreClass(const sched::ServiceClassSpec& spec,
                              double measured, bool has_data) {
  const sched::UtilityFunction utility;
  ShadowClassOutcome cls;
  cls.class_id = spec.class_id;
  cls.measured = measured;
  if (has_data) {
    cls.goal_ratio = spec.GoalRatio(measured);
    cls.utility = utility.Evaluate(spec, measured);
  } else {
    cls.utility = utility.FromGoalRatio(spec, 0.0);
  }
  return cls;
}

/// Scores every class from a tally's run means and bucket attainment.
ShadowOutcome ScoreTally(const metrics::OutcomeTally& tally,
                         const sched::ServiceClassSet& classes) {
  ShadowOutcome out;
  for (const sched::ServiceClassSpec& spec : classes.classes()) {
    const metrics::ClassOutcome& total = tally.Total(spec.class_id);
    ShadowClassOutcome cls =
        ScoreClass(spec, total.Measured(spec), total.completed > 0);
    cls.completed = total.completed;
    cls.attainment = tally.Attainment(spec.class_id);
    out.completed += total.completed;
    out.cancelled += total.cancelled;
    out.total_utility += cls.utility;
    out.classes.push_back(cls);
  }
  return out;
}

/// A fully private DES world for one candidate: same seed everywhere, so
/// two candidates differ only by the plan they run under.
///
/// Memory follows the queries in flight, not the trace. Arrivals are
/// chained: one FIFO rank is reserved per record up front, and arrival i
/// first schedules arrival i+1 under that record's (time, rank) key, then
/// materializes and submits its own query. So exactly one arrival is ever
/// pending, and since that next arrival always sits in the heap before any
/// later pop, the fire order — and with it the codec's stateful
/// Materialize sequence and every floating-point sum below — is the one
/// scheduling all arrivals up front would give. Completions fold straight
/// into an OutcomeTally bucketed by the report interval.
class ShadowWorld {
 public:
  ShadowWorld(const ShadowPlannerOptions& options,
              const sched::ServiceClassSet& classes,
              const PlanCandidate& candidate,
              const std::vector<TraceRecord>& records, double time_scale)
      : classes_(classes),
        records_(records),
        time_scale_(time_scale),
        base_ns_(records.empty() ? 0 : records.front().arrival_ns),
        config_(WithoutTelemetry(candidate.config)),
        frozen_plan_(candidate.frozen_plan),
        engine_(&sim_, options.engine, Rng(options.seed).Fork(1)),
        scheduler_(&sim_, &engine_, &classes, config_),
        codec_(options.tpch, options.tpcc, options.seed + 1),
        tally_(classes, options.report_interval_seconds > 0.0
                            ? options.report_interval_seconds
                            : config_.control_interval_seconds) {
    if (frozen_plan_) {
      sched::SchedulingPlan plan;
      plan.cost_limits = candidate.frozen_limits;
      scheduler_.dispatcher().SetPlan(plan);
    }
  }

  ShadowWorld(const ShadowWorld&) = delete;
  ShadowWorld& operator=(const ShadowWorld&) = delete;

  /// Replays the whole trace and scores the outcome (name left empty).
  ShadowOutcome Run() {
    double last_arrival = 0.0;
    if (!records_.empty()) {
      first_rank_ = sim_.ReserveSequence(records_.size());
      ScheduleArrival(0);
      last_arrival = ArrivalTime(records_.size() - 1);
    }
    if (!frozen_plan_) {
      // Keep planning a couple of intervals past the last arrival so the
      // tail of the workload still gets replanned.
      scheduler_.Start(last_arrival + 2.0 * config_.control_interval_seconds);
    }
    sim_.RunToCompletion();
    ShadowOutcome out = ScoreTally(tally_, classes_);
    out.planning_cycles = scheduler_.planning_cycles();
    out.peak_pending_events = sim_.slot_capacity();
    return out;
  }

 private:
  static sched::QuerySchedulerConfig WithoutTelemetry(
      sched::QuerySchedulerConfig config) {
    config.telemetry = nullptr;
    return config;
  }

  /// The captured wall offset, mapped onto the model clock the live
  /// scheduler planned against.
  double ArrivalTime(size_t i) const {
    return static_cast<double>(records_[i].arrival_ns - base_ns_) / 1e9 *
           time_scale_;
  }

  void ScheduleArrival(size_t i) {
    sim_.ScheduleAtSequence(ArrivalTime(i), first_rank_ + i,
                            [this, i] { Arrive(i); });
  }

  void Arrive(size_t i) {
    if (i + 1 < records_.size()) ScheduleArrival(i + 1);
    const TraceRecord& record = records_[i];
    workload::Query query = codec_.Materialize(record);
    query.id = record.trace_id;
    scheduler_.Submit(query, [this](const workload::QueryRecord& r) {
      tally_.Add(r);
    });
  }

  const sched::ServiceClassSet& classes_;
  /// Sorted by arrival_ns; shared read-only with every other world.
  const std::vector<TraceRecord>& records_;
  const double time_scale_;
  const uint64_t base_ns_;
  const sched::QuerySchedulerConfig config_;
  const bool frozen_plan_;
  sim::Simulator sim_;
  engine::ExecutionEngine engine_;
  sched::QueryScheduler scheduler_;
  TemplateCodec codec_;
  /// Rank reserved for records_[0]; records_[i] fires under rank + i.
  uint64_t first_rank_ = 0;
  /// Buckets completions by the report interval for attainment.
  metrics::OutcomeTally tally_;
};

}  // namespace

ShadowPlanner::ShadowPlanner(const TraceReadResult& trace,
                             const ShadowPlannerOptions& options)
    : time_scale_(trace.header.time_scale > 0.0 ? trace.header.time_scale
                                                : 1.0),
      has_live_(trace.has_summary),
      live_summary_(trace.summary),
      options_(options),
      classes_(sched::MakePaperClasses()),
      sorted_(trace.records) {
  const auto by_arrival = [](const TraceRecord& a, const TraceRecord& b) {
    return a.arrival_ns < b.arrival_ns;
  };
  // Captures are almost always in arrival order already, and a stable
  // sort of sorted input is the identity.
  if (!std::is_sorted(sorted_.begin(), sorted_.end(), by_arrival)) {
    std::stable_sort(sorted_.begin(), sorted_.end(), by_arrival);
  }
}

ShadowOutcome ShadowPlanner::EvaluateOne(
    const PlanCandidate& candidate) const {
  ShadowWorld world(options_, classes_, candidate, sorted_, time_scale_);
  ShadowOutcome out = world.Run();
  out.name = SanitizeName(candidate.name);
  return out;
}

std::vector<ShadowOutcome> ShadowPlanner::Evaluate(
    const std::vector<PlanCandidate>& candidates, int jobs) const {
  std::vector<ShadowOutcome> results(candidates.size());
  harness::ParallelFor(
      static_cast<int>(candidates.size()), jobs, [&](int i) {
        results[static_cast<size_t>(i)] =
            EvaluateOne(candidates[static_cast<size_t>(i)]);
      });
  return results;
}

ShadowOutcome ShadowPlanner::LiveOutcome() const {
  ShadowOutcome out;
  out.name = "live";
  for (const TraceSummaryClass& sc : live_summary_.classes) {
    ShadowClassOutcome cls;
    cls.class_id = static_cast<int>(sc.class_id);
    cls.measured = sc.measured;
    const sched::ServiceClassSpec* spec = classes_.Find(cls.class_id);
    if (spec != nullptr) {
      cls = ScoreClass(*spec, sc.measured, sc.measured > 0.0);
    }
    cls.attainment = sc.attainment;
    out.total_utility += cls.utility;
    out.classes.push_back(cls);
  }
  return out;
}

TraceSummary MakeCaptureSummary(const sched::QuerySchedulerConfig& config,
                                const sched::QueryScheduler& scheduler,
                                const sched::ServiceClassSet& classes) {
  const ShadowOutcome live = ScoreTally(scheduler.outcomes(), classes);
  TraceSummary summary;
  summary.control_interval_seconds = config.control_interval_seconds;
  summary.system_cost_limit = config.system_cost_limit;
  summary.total_utility = live.total_utility;
  summary.allocator =
      config.allocator == sched::QuerySchedulerConfig::Allocator::kGreedyAuction
          ? 1u
          : 0u;
  for (const ShadowClassOutcome& cls : live.classes) {
    summary.classes.push_back(
        {static_cast<uint32_t>(cls.class_id), cls.attainment, cls.measured,
         scheduler.current_plan().LimitFor(cls.class_id)});
  }
  return summary;
}

std::string ShadowPlanner::FormatReport(
    const ShadowOutcome* live, const std::vector<ShadowOutcome>& shadow) {
  std::string report;
  auto append_outcome = [&report](const ShadowOutcome& o, bool simulated) {
    report += StrPrintf("plan %-28s utility %10.4f", o.name.c_str(),
                        o.total_utility);
    if (simulated) {
      report += StrPrintf("  completed %6llu  cycles %4llu",
                          static_cast<unsigned long long>(o.completed),
                          static_cast<unsigned long long>(o.planning_cycles));
    } else {
      report += "  (measured live run)";
    }
    report += "\n";
    for (const ShadowClassOutcome& c : o.classes) {
      report += StrPrintf(
          "  class %d: measured=%.6f goal_ratio=%.4f attainment=%.4f "
          "utility=%.4f\n",
          c.class_id, c.measured, c.goal_ratio, c.attainment, c.utility);
    }
  };
  if (live != nullptr) append_outcome(*live, /*simulated=*/false);
  for (const ShadowOutcome& o : shadow) append_outcome(o, /*simulated=*/true);

  // Machine-parseable lines, one per outcome, live first.
  auto append_line = [&report](const ShadowOutcome& o) {
    report += StrPrintf("WHATIF plan=%s utility=%.6f completed=%llu "
                        "cycles=%llu",
                        o.name.c_str(), o.total_utility,
                        static_cast<unsigned long long>(o.completed),
                        static_cast<unsigned long long>(o.planning_cycles));
    for (const ShadowClassOutcome& c : o.classes) {
      report += StrPrintf(
          " c%d_measured=%.6f c%d_ratio=%.4f c%d_att=%.4f", c.class_id,
          c.measured, c.class_id, c.goal_ratio, c.class_id, c.attainment);
    }
    report += "\n";
  };
  if (live != nullptr) append_line(*live);
  for (const ShadowOutcome& o : shadow) append_line(o);
  return report;
}

Result<std::vector<PlanCandidate>> ParsePlanCandidates(
    const std::string& spec, const sched::QuerySchedulerConfig& base,
    const sched::ServiceClassSet& classes) {
  std::vector<PlanCandidate> candidates;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    std::string one = spec.substr(start, end - start);
    start = end + 1;
    if (one.empty()) continue;

    PlanCandidate candidate;
    candidate.name = one;
    candidate.config = base;
    size_t tstart = 0;
    while (tstart <= one.size()) {
      size_t tend = one.find('+', tstart);
      if (tend == std::string::npos) tend = one.size();
      const std::string token = one.substr(tstart, tend - tstart);
      tstart = tend + 1;
      if (token.empty()) continue;

      const size_t eq = token.find('=');
      const std::string key = token.substr(0, eq);
      double value = 0.0;
      if (eq != std::string::npos) {
        const std::string value_text = token.substr(eq + 1);
        char* parse_end = nullptr;
        value = std::strtod(value_text.c_str(), &parse_end);
        if (parse_end == value_text.c_str() || *parse_end != '\0' ||
            !std::isfinite(value)) {
          return Status::InvalidArgument(
              StrPrintf("bad plan token value: '%s'", token.c_str()));
        }
      }

      if (key == "base" || key == "live") {
        // The capture-side config unchanged.
      } else if (key == "greedy") {
        candidate.config.allocator =
            sched::QuerySchedulerConfig::Allocator::kGreedyAuction;
      } else if (key == "utility") {
        candidate.config.allocator =
            sched::QuerySchedulerConfig::Allocator::kUtilitySearch;
      } else if (eq == std::string::npos) {
        return Status::InvalidArgument(
            StrPrintf("unknown plan token: '%s'", token.c_str()));
      } else if (key == "interval") {
        if (value <= 0.0) {
          return Status::InvalidArgument("interval must be > 0");
        }
        candidate.config.control_interval_seconds = value;
      } else if (key == "step") {
        if (value <= 0.0 || value > 1.0) {
          return Status::InvalidArgument("step must be in (0, 1]");
        }
        candidate.config.plan_step_fraction = value;
      } else if (key == "limit") {
        if (value <= 0.0) {
          return Status::InvalidArgument("limit must be > 0");
        }
        candidate.config.system_cost_limit = value;
      } else if (key == "olap") {
        if (value <= 0.0) {
          return Status::InvalidArgument("olap must be > 0");
        }
        candidate.frozen_plan = true;
        const std::vector<int> olap = classes.OlapClassIds();
        const std::vector<int> oltp = classes.OltpClassIds();
        const double per_olap =
            olap.empty() ? 0.0 : value / static_cast<double>(olap.size());
        const double remainder =
            candidate.config.system_cost_limit > value
                ? candidate.config.system_cost_limit - value
                : 0.0;
        const double per_oltp =
            oltp.empty() ? 0.0
                         : remainder / static_cast<double>(oltp.size());
        for (int id : olap) candidate.frozen_limits[id] = per_olap;
        for (int id : oltp) candidate.frozen_limits[id] = per_oltp;
      } else {
        return Status::InvalidArgument(
            StrPrintf("unknown plan token: '%s'", token.c_str()));
      }
    }
    candidates.push_back(std::move(candidate));
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("no plan candidates given");
  }
  return candidates;
}

}  // namespace qsched::replay
