#include "whatif.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "driver.h"
#include "harness/experiment.h"
#include "harness/parallel.h"
#include "replay/shadow_planner.h"
#include "replay/template_codec.h"
#include "replay/trace_format.h"
#include "server.h"

namespace qsched_e2e {

namespace {

namespace replay = qsched::replay;

/// Plan candidates every full repetition scores; `base` first (the
/// serial check evaluates it again).
constexpr char kCandidates[] =
    "base,interval=30,interval=60,step=1,step=0.25,greedy,limit=200000,"
    "limit=400000";

/// Writes mixed_slo's arrival process, synthesized from `seed`, as a
/// replay trace at `path` stamped with that workload's time scale.
qsched::Status WriteSyntheticTrace(const std::string& path, uint64_t seed,
                                   const WhatifOptions& options,
                                   size_t* records) {
  const QueryPool pool = MixedQueryPool(seed);
  const std::vector<Arrival> schedule =
      MakeArrivals(pool, kMixedQps, options.arrival_seconds, seed, 1)[0];
  qsched::workload::TpchWorkloadParams tpch;
  tpch.scale_factor = kMixedTpchScale;
  const replay::TemplateCodec codec(
      tpch, qsched::workload::TpccWorkloadParams{}, seed);
  replay::TraceWriterOptions writer_options;
  writer_options.path = path;
  writer_options.header.time_scale = kMixedTimeScale;
  writer_options.header.seed = seed;
  qsched::Result<std::unique_ptr<replay::TraceWriter>> opened =
      replay::TraceWriter::Open(writer_options);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<replay::TraceWriter> writer =
      std::move(opened).ValueOrDie();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const qsched::workload::Query& query = pool.queries[schedule[i].query];
    replay::TraceRecord record;
    record.arrival_ns = static_cast<uint64_t>(schedule[i].due_ns);
    record.trace_id = i + 1;
    record.cost_timerons = query.cost_timerons;
    record.class_id = static_cast<uint16_t>(query.class_id);
    record.template_id = codec.Encode(query);
    QSCHED_RETURN_NOT_OK(writer->Append(record));
  }
  *records = schedule.size();
  return writer->Close();
}

std::string Report(const std::vector<replay::ShadowOutcome>& outcomes) {
  return replay::ShadowPlanner::FormatReport(nullptr, outcomes);
}

int ThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

}  // namespace

JsonObject RunWhatif(const WhatifOptions& options, std::vector<Span>* spans) {
  JsonObject out;
  const std::string path = options.out_dir + "/whatif_" +
                           std::to_string(getpid()) + ".qsrt";
  std::vector<double> setup_s, whatif_s, read_ms, evaluate_cpu_us, world_ms;
  std::vector<double> speedup;
  std::string first_report;
  bool identical = true;
  bool base_matches = false;
  size_t records = 0;
  size_t candidate_count = 0;
  replay::ShadowOutcome base;
  std::string error;
  const int jobs = std::min(4, qsched::harness::DefaultJobs());

  // Every round sets up; the first `repetitions` rounds also evaluate.
  const int rounds = std::max(options.repetitions, options.setup_repetitions);
  for (int rep = 0; rep < rounds && error.empty(); ++rep) {
    const int64_t t0 = MonoNs();
    qsched::Status written =
        WriteSyntheticTrace(path, options.seed, options, &records);
    if (!written.ok()) {
      error = written.ToString();
      break;
    }
    const int64_t t1 = MonoNs();
    qsched::Result<replay::TraceReadResult> read =
        replay::ReadTraceChain(path);
    std::remove(path.c_str());
    if (!read.ok()) {
      error = read.status().ToString();
      break;
    }
    const replay::TraceReadResult& trace = read.ValueOrDie();
    const int64_t t2 = MonoNs();
    replay::ShadowPlannerOptions planner_options;
    planner_options.seed = options.seed;
    planner_options.tpch.scale_factor = kMixedTpchScale;
    planner_options.base.control_interval_seconds =
        kMixedControlIntervalSeconds;
    const replay::ShadowPlanner planner(trace, planner_options);
    const int64_t t3 = MonoNs();
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    read_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    if (rep >= options.repetitions) continue;

    qsched::Result<std::vector<replay::PlanCandidate>> parsed =
        replay::ParsePlanCandidates(kCandidates, planner_options.base,
                                    planner.classes());
    if (!parsed.ok()) {
      error = parsed.status().ToString();
      break;
    }
    const std::vector<replay::PlanCandidate>& candidates =
        parsed.ValueOrDie();
    candidate_count = candidates.size();

    const double cpu0 = CpuMicros(RUSAGE_SELF);
    std::vector<replay::ShadowOutcome> outcomes;
    if (options.trace) {
      outcomes.resize(candidates.size());
      std::mutex mu;
      double world_sum_ms = 0.0;
      const int64_t eval_start = MonoNs();
      qsched::harness::ParallelFor(
          static_cast<int>(candidates.size()), jobs, [&](int i) {
            const int64_t start = MonoNs();
            outcomes[static_cast<size_t>(i)] =
                planner.EvaluateOne(candidates[static_cast<size_t>(i)]);
            const int64_t end = MonoNs();
            std::lock_guard<std::mutex> lock(mu);
            world_ms.push_back(static_cast<double>(end - start) / 1e6);
            world_sum_ms += static_cast<double>(end - start) / 1e6;
            spans->push_back({"whatif.world", "whatif.evaluate",
                              static_cast<uint64_t>(rep), start, end,
                              getpid(), ThreadId()});
          });
      const int64_t eval_end = MonoNs();
      spans->push_back({"whatif.evaluate", "", static_cast<uint64_t>(rep),
                        eval_start, eval_end, getpid(), ThreadId()});
      speedup.push_back(world_sum_ms /
                        (static_cast<double>(eval_end - eval_start) / 1e6));
    } else {
      outcomes = planner.Evaluate(candidates, jobs);
    }
    const int64_t t4 = MonoNs();
    evaluate_cpu_us.push_back(CpuMicros(RUSAGE_SELF) - cpu0);
    whatif_s.push_back(static_cast<double>(t4 - t1) / 1e9);

    const std::string report = Report(outcomes);
    if (rep == 0) {
      first_report = report;
      base = outcomes.front();
    } else if (report != first_report) {
      identical = false;
    }
    if (rep == options.repetitions - 1) {
      // The first candidate is `base`: a serial, jobs-1 world must score
      // it bit-identically to the parallel evaluation.
      const replay::ShadowOutcome serial = planner.EvaluateOne(candidates[0]);
      base_matches = Report({serial}) == Report({outcomes.front()});
    }
  }

  out.Str("error", error)
      .Num("records", static_cast<double>(records))
      .Num("candidates", static_cast<double>(candidate_count))
      .Num("jobs", jobs)
      .Arr("setup_s", setup_s)
      .Arr("whatif_s", whatif_s)
      .Arr("read_ms", read_ms)
      .Arr("evaluate_cpu_us", evaluate_cpu_us)
      .Bool("identical_reps", identical)
      .Bool("base_matches_serial", base_matches)
      .Num("base_planning_cycles", static_cast<double>(base.planning_cycles));
  for (const replay::ShadowClassOutcome& cls : base.classes) {
    out.Num("base_c" + std::to_string(cls.class_id) + "_measured",
            cls.measured);
  }
  if (options.trace) {
    out.Num("world_ms_p50", Quantile(world_ms, 0.5))
        .Num("world_ms_p99", Quantile(world_ms, 0.99))
        .Num("parallel_speedup", Quantile(speedup, 0.5));
  }

  // One Figure 6 run on this thread.
  qsched::harness::ExperimentConfig config;
  config.seed = options.seed;
  config.period_seconds = options.fig6_period_seconds;
  qsched::obs::Telemetry telemetry;
  if (options.trace) config.telemetry = &telemetry;
  const qsched::harness::ExperimentResult result =
      qsched::harness::RunExperiment(
          config, qsched::harness::ControllerKind::kQueryScheduler);
  out.Num("sim_events", static_cast<double>(result.sim_events_processed))
      .Num("des_wall_s", result.wall_seconds)
      .Num("engine_cpu_util", result.cpu_utilization);
  if (options.trace) {
    std::vector<double> solver_us;
    for (const qsched::obs::IntervalRow& row : telemetry.recorder.Rows()) {
      solver_us.push_back(row.solver_wall_seconds * 1e6);
    }
    out.Num("solver_us_p50", Quantile(solver_us, 0.5))
        .Num("solver_us_p99", Quantile(solver_us, 0.99));
  }
  return out;
}

}  // namespace qsched_e2e
