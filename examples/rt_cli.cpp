// Real-time mode CLI: runs the paper's Query Scheduler stack on the wall
// clock — a live gateway fed by an open-loop load generator, concurrent
// gateway workers, and the planner on a model timer — instead of the DES.
//
// Usage:
//   rt_cli --mode=rt --qps=800 --duration=5 [options]
//
// Options:
//   --qps=N              mean offered load, queries per wall second (800)
//   --duration=SECONDS   wall-clock generation phase length (5)
//   --classes=SPEC       class_id:weight mix, e.g. 1:3,2:3,3:94 (default)
//                        over the paper classes (1, 2 = OLAP, 3 = OLTP)
//   --pattern=NAME       constant | bursty | diurnal (constant)
//   --time-scale=X       model seconds per wall second (60)
//   --control-interval=S control interval in model seconds (15)
//   --workers=N          gateway worker threads (2)
//   --queue-capacity=N   submission queue bound (4096)
//   --admit-batch=N      max queries admitted per core-lock entry
//                        (0 = default 32)
//   --tpch-scale=X       TPC-H scale factor for the OLAP classes (0.1;
//                        larger scans stretch the post-run drain)
//   --seed=N             RNG seed for the load draws (42)
//   --capture-trace=PATH record every offered query to a replay trace
//                        (see replay_cli); a summary of the live run's
//                        measured performance is appended at shutdown
//   --capture-rotate-mb=N  rotate the trace above N MB (0 = never)
//   --capture-buffer=N   per-producer capture buffer records (8192)
//   --metrics-out=PATH   Prometheus text exposition of the registry
//   --audit-out=PATH     planner decision audit trail as JSONL
//   --report-html=PATH   self-contained HTML run report
//   --http-port=N        embedded observability HTTP server: GET
//                        /metrics, /varz, /healthz, /statusz (0 =
//                        ephemeral, printed + --http-port-file; omit
//                        the flag to disable)
//   --http-port-file=PATH  write the bound HTTP port as a single line

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture.h"
#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/html_report.h"
#include "http_obs.h"
#include "obs/telemetry.h"
#include "rt/gateway.h"
#include "rt/loadgen.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace {

// Parses "1:3,2:3,3:94" into class_id -> weight.
bool ParseClassMix(const std::string& spec,
                   std::map<int, double>* weights) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t colon = item.find(':');
    if (colon == std::string::npos) return false;
    try {
      int class_id = std::stoi(item.substr(0, colon));
      double weight = std::stod(item.substr(colon + 1));
      if (weight < 0.0) return false;
      (*weights)[class_id] = weight;
    } catch (...) {
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !weights->empty();
}

}  // namespace

int main(int argc, char** argv) {
  qsched::FlagParser flags;
  qsched::Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.Has("help")) {
    std::printf(
        "usage: rt_cli --mode=rt [--qps=N] [--duration=SECONDS]\n"
        "       [--classes=1:3,2:3,3:94] "
        "[--pattern=constant|bursty|diurnal]\n"
        "       [--time-scale=X] [--control-interval=S] [--workers=N]\n"
        "       [--queue-capacity=N] [--admit-batch=N] [--seed=N]\n"
        "       [--metrics-out=PATH] [--audit-out=PATH] "
        "[--report-html=PATH]\n");
    return 0;
  }

  std::string mode = flags.GetString("mode", "rt");
  if (mode != "rt") {
    std::fprintf(stderr,
                 "unknown --mode=%s (this binary runs the real-time "
                 "gateway; use experiment_cli for DES runs)\n",
                 mode.c_str());
    return 1;
  }

  double qps = flags.GetDouble("qps", 800.0);
  double duration = flags.GetDouble("duration", 5.0);
  double time_scale = flags.GetDouble("time-scale", 60.0);
  std::string pattern_name = flags.GetString("pattern", "constant");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  qsched::rt::ArrivalPattern pattern;
  if (!qsched::rt::ArrivalPatternFromString(pattern_name, &pattern)) {
    std::fprintf(stderr, "unknown --pattern=%s\n", pattern_name.c_str());
    return 1;
  }
  std::map<int, double> mix = {{1, 3.0}, {2, 3.0}, {3, 94.0}};
  std::string classes_spec = flags.GetString("classes", "");
  if (!classes_spec.empty()) {
    mix.clear();
    if (!ParseClassMix(classes_spec, &mix)) {
      std::fprintf(stderr, "malformed --classes=%s\n",
                   classes_spec.c_str());
      return 1;
    }
  }

  qsched::obs::Telemetry telemetry;
  // The audit trail and the report cover the whole run; without them the
  // stores keep the live window only.
  if (!flags.GetString("audit-out", "").empty() ||
      !flags.GetString("report-html", "").empty()) {
    telemetry.KeepFullHistory();
  }
  qsched::rt::RuntimeOptions options;
  options.time_scale = time_scale;
  options.seed = seed;
  options.gateway.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 4096));
  options.gateway.workers = static_cast<int>(flags.GetInt("workers", 2));
  options.gateway.admit_batch_size =
      static_cast<size_t>(flags.GetInt("admit-batch", 0));
  options.scheduler.control_interval_seconds =
      flags.GetDouble("control-interval", 15.0);
  options.telemetry = &telemetry;

  qsched::sched::ServiceClassSet classes =
      qsched::sched::MakePaperClasses();
  for (const auto& [class_id, weight] : mix) {
    if (classes.Find(class_id) == nullptr) {
      std::fprintf(stderr, "--classes names unknown class %d\n", class_id);
      return 1;
    }
    (void)weight;
  }

  qsched::rt::Runtime runtime(classes, options);
  std::unique_ptr<qsched::replay::TraceRecorder> recorder =
      qsched_examples::MaybeStartCapture(flags, time_scale, seed,
                                         &telemetry);
  if (recorder != nullptr) {
    runtime.gateway().set_on_offer(
        [rec = recorder.get()](const qsched::workload::Query& query) {
          rec->Record(query);
        });
  }
  runtime.Start();
  std::unique_ptr<qsched::obs::HttpServer> http =
      qsched_examples::MaybeStartHttpObs(
          flags, &runtime.gateway(), &telemetry,
          "qsched live status: real-time gateway");

  // One generator instance per OLAP class (independent streams), one
  // TPC-C stream for OLTP.
  qsched::workload::TpchWorkloadParams tpch;
  tpch.scale_factor = flags.GetDouble("tpch-scale", 0.1);
  qsched::workload::TpccWorkloadParams tpcc;
  std::vector<std::unique_ptr<qsched::workload::QueryGenerator>> owned;
  std::vector<qsched::rt::LoadSource> sources;
  for (const auto& [class_id, weight] : mix) {
    if (weight <= 0.0) continue;
    const qsched::sched::ServiceClassSpec* spec = classes.Find(class_id);
    if (spec->type == qsched::workload::WorkloadType::kOlap) {
      owned.push_back(std::make_unique<qsched::workload::TpchWorkload>(
          tpch, seed + static_cast<uint64_t>(class_id)));
    } else {
      owned.push_back(std::make_unique<qsched::workload::TpccWorkload>(
          tpcc, seed + static_cast<uint64_t>(class_id)));
    }
    sources.push_back({owned.back().get(), class_id, weight});
  }

  qsched::rt::LoadGenOptions load;
  load.shape.pattern = pattern;
  load.qps = qps;
  load.duration_wall_seconds = duration;
  load.seed = seed;
  qsched::rt::LoadGenerator loadgen(&runtime.gateway(),
                                    std::move(sources), load, &telemetry);
  std::printf("rt mode: %.0f qps (%s) for %.1f s wall, time scale %.0fx, "
              "control interval %.0f model s\n",
              qps, pattern_name.c_str(), duration, time_scale,
              options.scheduler.control_interval_seconds);
  loadgen.Start();
  loadgen.Join();
  qsched::rt::Runtime::Stats stats = runtime.Shutdown();
  if (http != nullptr) http->Stop();
  if (recorder != nullptr) {
    const qsched::replay::TraceSummary summary =
        qsched_examples::MakeCaptureSummary(options.scheduler,
                                            &runtime.scheduler(), classes,
                                            &telemetry);
    qsched_examples::StopCapture(recorder.get(), &summary);
  }

  std::printf("seed %llu: offered %llu, shed %llu, completed %llu "
              "(%.0f completions/s wall), planning cycles %llu, "
              "model horizon %.1f s%s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(loadgen.offered()),
              static_cast<unsigned long long>(loadgen.shed()),
              static_cast<unsigned long long>(stats.completed),
              stats.model_seconds > 0.0
                  ? static_cast<double>(stats.completed) /
                        (stats.model_seconds / time_scale)
                  : 0.0,
              static_cast<unsigned long long>(stats.planning_cycles),
              stats.model_seconds,
              stats.drained ? "" : "  [drain timeout!]");
  for (const qsched::sched::ServiceClassSpec& spec : classes.classes()) {
    std::printf("  class %d (%s): attainment %.2f\n", spec.class_id,
                spec.name.c_str(),
                telemetry.slo.RollingAttainment(spec.class_id));
  }

  std::string metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    telemetry.registry.WritePrometheus(out);
    std::printf("wrote %s (%zu metrics)\n", metrics_out.c_str(),
                telemetry.registry.size());
  }
  std::string audit_out = flags.GetString("audit-out", "");
  if (!audit_out.empty()) {
    std::ofstream out(audit_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", audit_out.c_str());
      return 1;
    }
    telemetry.audit.WriteJsonl(out);
    telemetry.slo.WriteEventsJsonl(out);
    std::printf("wrote %s (%zu records)\n", audit_out.c_str(),
                telemetry.audit.size());
  }
  std::string report_html = flags.GetString("report-html", "");
  if (!report_html.empty()) {
    std::ofstream out(report_html);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", report_html.c_str());
      return 1;
    }
    // Live runs have no per-period DES series; the report's
    // control-interval charts come from the shared telemetry.
    qsched::harness::ExperimentResult result;
    result.controller = qsched::harness::ControllerKind::kQueryScheduler;
    result.period_seconds = options.scheduler.control_interval_seconds;
    result.total_completed = stats.completed;
    result.engine_queries_completed =
        runtime.engine().queries_completed();
    result.cpu_utilization = runtime.engine().cpu_pool().Utilization();
    result.disk_utilization = runtime.engine().disk_array().Utilization();
    result.limit_history = runtime.scheduler().limit_history();
    result.oltp_model_slope = runtime.scheduler().oltp_model().slope();
    for (const qsched::sched::ServiceClassSpec& spec : classes.classes()) {
      result.interval_attainment[spec.class_id] =
          telemetry.slo.RollingAttainment(spec.class_id);
    }
    qsched::harness::HtmlReportOptions report_options;
    report_options.title = "qsched run report: real-time gateway";
    qsched::harness::WriteHtmlRunReport(result, classes, &telemetry,
                                        report_options, out);
    std::printf("wrote %s\n", report_html.c_str());
  }
  return stats.drained ? 0 : 2;
}
