#ifndef QSCHED_REPLAY_SHADOW_PLANNER_H_
#define QSCHED_REPLAY_SHADOW_PLANNER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/execution_engine.h"
#include "replay/trace_format.h"
#include "scheduler/query_scheduler.h"
#include "scheduler/service_class.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::replay {

/// One candidate plan for a what-if evaluation: a full scheduler config
/// (solver variant, control interval, cost limits) or a frozen static
/// plan that never replans.
struct PlanCandidate {
  /// Display name; '=' is rendered as ':' in reports so WHATIF lines
  /// stay key=value parseable.
  std::string name;
  sched::QuerySchedulerConfig config;
  /// When set, the dispatcher runs the fixed `frozen_limits` plan and no
  /// planning cycle ever fires.
  bool frozen_plan = false;
  std::map<int, double> frozen_limits;
};

struct ShadowClassOutcome {
  int class_id = 0;
  /// Mean velocity (OLAP) or mean response seconds (OLTP) over every
  /// completion of the run (metrics::ClassOutcome::Measured).
  double measured = 0.0;
  /// ServiceClassSpec::GoalRatio of `measured` (>= 1 == goal met).
  double goal_ratio = 0.0;
  /// Fraction of report intervals (with >= 1 completion) meeting the goal.
  double attainment = 0.0;
  double utility = 0.0;
  uint64_t completed = 0;
};

struct ShadowOutcome {
  std::string name;
  double total_utility = 0.0;
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t planning_cycles = 0;
  /// High-water mark of the world's concurrently pending DES events
  /// (Simulator::slot_capacity at the end of the run). Tracks the queries
  /// in flight, not the trace length; not part of FormatReport.
  size_t peak_pending_events = 0;
  std::vector<ShadowClassOutcome> classes;
};

struct ShadowPlannerOptions {
  /// Seed for regenerating resource demands; every candidate world uses
  /// the same seed, so candidates differ only by plan.
  uint64_t seed = 42;
  workload::TpchWorkloadParams tpch;
  workload::TpccWorkloadParams tpcc;
  engine::EngineConfig engine;
  /// Scheduler config candidates derive from (typically rebuilt from the
  /// trace summary: the capture-side control interval, cost limit and
  /// allocator).
  sched::QuerySchedulerConfig base;
  /// Attainment bucketing interval in model seconds; 0 = use
  /// base.control_interval_seconds.
  double report_interval_seconds = 0.0;
};

/// Feeds a captured trace interval into the DES-backed engine/scheduler
/// stack — the same model components the live runtime runs on the wall
/// clock — once per candidate plan, and scores each candidate with the
/// capture-side utility function. Arrival model time is the captured
/// wall offset scaled by the trace's time_scale, so the shadow run sees
/// the same model-time arrival process the live scheduler saw.
///
/// Every candidate world is fully self-contained (own Simulator, engine,
/// scheduler, generators, all seeded identically), so Evaluate() is
/// bit-identical at any `jobs` value: ParallelFor only changes which
/// host thread runs which world, never what a world computes. A world
/// streams the trace — queries are materialized as they arrive and
/// scored as they complete — so its memory follows the queries in
/// flight, not the trace length.
class ShadowPlanner {
 public:
  /// Copies what it needs from `trace`, which may be a temporary.
  ShadowPlanner(const TraceReadResult& trace,
                const ShadowPlannerOptions& options);

  ShadowPlanner(const ShadowPlanner&) = delete;
  ShadowPlanner& operator=(const ShadowPlanner&) = delete;

  /// Runs one isolated DES world under `candidate` and scores it.
  ShadowOutcome EvaluateOne(const PlanCandidate& candidate) const;

  /// Evaluates all candidates across `jobs` threads (0 = all cores,
  /// <= 1 = inline); results are in candidate order.
  std::vector<ShadowOutcome> Evaluate(
      const std::vector<PlanCandidate>& candidates, int jobs) const;

  /// Whether the trace carries a live-run summary to baseline against.
  bool has_live() const { return has_live_; }
  /// The live run's measured outcome, rebuilt from the trace summary and
  /// scored with the same utility function as the candidates.
  ShadowOutcome LiveOutcome() const;

  const sched::ServiceClassSet& classes() const { return classes_; }

  /// Deterministic what-if report: a human table plus one machine-
  /// parseable "WHATIF plan=... utility=..." line per outcome (live
  /// first when present). Byte-identical across --jobs values.
  static std::string FormatReport(const ShadowOutcome* live,
                                  const std::vector<ShadowOutcome>& shadow);

 private:
  /// The trace header's time scale (1 when unset).
  double time_scale_;
  bool has_live_;
  TraceSummary live_summary_;
  ShadowPlannerOptions options_;
  sched::ServiceClassSet classes_;
  /// Records sorted by arrival_ns (stable), shared by all worlds.
  std::vector<TraceRecord> sorted_;
};

/// The live-run summary a capturing server writes at shutdown: per class,
/// the run mean over every query `scheduler` handed back (velocity for
/// OLAP, response seconds for OLTP), its attainment over control-interval
/// buckets and the live plan's cost limit; plus the total utility of
/// those means, scored by the function LiveOutcome and the candidate
/// worlds use. So a WHATIF live line and a DES line measure the same
/// thing. Call it once completions have stopped (after the runtime's
/// Shutdown): the scheduler's tally is not synchronized.
TraceSummary MakeCaptureSummary(const sched::QuerySchedulerConfig& config,
                                const sched::QueryScheduler& scheduler,
                                const sched::ServiceClassSet& classes);

/// Parses a candidate list: candidates separated by ',', each a '+'-
/// joined set of overrides applied to `base`:
///   base            the capture-side config unchanged
///   interval=S      control interval (model seconds)
///   greedy          greedy-auction allocator
///   utility         utility-search allocator
///   step=F          plan step fraction
///   limit=X         system cost limit (timerons)
///   olap=X          frozen static plan: X split evenly over OLAP
///                   classes, remainder to OLTP; no replanning
/// Every value must be finite.
Result<std::vector<PlanCandidate>> ParsePlanCandidates(
    const std::string& spec, const sched::QuerySchedulerConfig& base,
    const sched::ServiceClassSet& classes);

}  // namespace qsched::replay

#endif  // QSCHED_REPLAY_SHADOW_PLANNER_H_
