// Command-line experiment runner: the whole harness behind flags, with
// optional CSV export of the figure series and the raw query trace.
//
//   ./build/examples/experiment_cli --controller=query-scheduler
//       --seed=7 --period-seconds=600 --system-cost-limit=300000
//       --velocity-csv=/tmp/velocity.csv --summary
//
// Observability exports (each enables telemetry for the run):
//   --trace-out=PATH    Chrome trace_event JSON of per-query spans
//                       (load in Perfetto / chrome://tracing)
//   --metrics-out=PATH  Prometheus text exposition of the registry
//   --audit-out=PATH    planner decision audit trail as JSONL, followed
//                       by the SLO violation events ("type":"slo_violation")
//   --timeseries-csv=PATH  per-control-interval table (long-format CSV)
//   --predictions-csv=PATH prediction-vs-actual ledger records
//   --report-html=PATH  self-contained HTML run report with inline-SVG
//                       charts (cost limits, velocity/response vs. goals,
//                       SLO attainment, model residuals)
//
// Replicated mode: --replications=N repeats the run across derived
// seeds and prints mean +/- stddev per period; --jobs=J (0 = one per
// hardware thread) fans the replicas out across worker threads with
// byte-identical aggregates.
//
// Controllers: no-control | qp-static | qp-priority | query-scheduler |
//              mpl | qs-direct-oltp
#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/html_report.h"
#include "harness/replication.h"
#include "metrics/trace_writer.h"
#include "obs/telemetry.h"

namespace {

using qsched::harness::ControllerKind;

bool ParseController(const std::string& name, ControllerKind* kind) {
  if (name == "no-control") {
    *kind = ControllerKind::kNoControl;
  } else if (name == "qp-static") {
    *kind = ControllerKind::kQpNoPriority;
  } else if (name == "qp-priority") {
    *kind = ControllerKind::kQpPriority;
  } else if (name == "query-scheduler") {
    *kind = ControllerKind::kQueryScheduler;
  } else if (name == "mpl") {
    *kind = ControllerKind::kMpl;
  } else if (name == "qs-direct-oltp") {
    *kind = ControllerKind::kQsDirectOltp;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qsched::FlagParser flags;
  qsched::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (flags.Has("help")) {
    std::printf(
        "flags: --controller=NAME --seed=N --period-seconds=S\n"
        "       --system-cost-limit=T --control-interval=S\n"
        "       --proactive --velocity-csv=PATH --response-csv=PATH\n"
        "       --trace-csv=PATH --summary\n"
        "       --trace-out=PATH (Chrome trace JSON of query spans)\n"
        "       --metrics-out=PATH (Prometheus text exposition)\n"
        "       --audit-out=PATH (planner decision + SLO-violation JSONL)\n"
        "       --timeseries-csv=PATH (per-control-interval table)\n"
        "       --predictions-csv=PATH (prediction-vs-actual ledger)\n"
        "       --report-html=PATH (self-contained HTML run report)\n"
        "       --replications=N (repeat across seeds, mean +/- stddev)\n"
        "       --jobs=J (worker threads for replicas; 0 = hardware)\n");
    return 0;
  }

  ControllerKind kind = ControllerKind::kQueryScheduler;
  std::string controller =
      flags.GetString("controller", "query-scheduler");
  if (!ParseController(controller, &kind)) {
    std::fprintf(stderr, "unknown controller: %s\n", controller.c_str());
    return 2;
  }

  qsched::harness::ExperimentConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.period_seconds = flags.GetDouble("period-seconds", 600.0);
  config.system_cost_limit =
      flags.GetDouble("system-cost-limit", 300000.0);
  config.qs.control_interval_seconds =
      flags.GetDouble("control-interval", 60.0);
  config.qs.proactive_planning = flags.GetBool("proactive", false);
  std::string trace_csv = flags.GetString("trace-csv", "");
  config.capture_trace = !trace_csv.empty();

  std::string trace_out = flags.GetString("trace-out", "");
  std::string metrics_out = flags.GetString("metrics-out", "");
  std::string audit_out = flags.GetString("audit-out", "");
  std::string timeseries_csv = flags.GetString("timeseries-csv", "");
  std::string predictions_csv = flags.GetString("predictions-csv", "");
  std::string report_html = flags.GetString("report-html", "");
  qsched::obs::Telemetry telemetry;
  bool telemetry_on = !trace_out.empty() || !metrics_out.empty() ||
                      !audit_out.empty() || !timeseries_csv.empty() ||
                      !predictions_csv.empty() || !report_html.empty();
  if (telemetry_on) config.telemetry = &telemetry;
  // Per-query spans cost a table entry per query in flight and a log
  // entry per query served; record them only for the trace export.
  if (!trace_out.empty()) telemetry.spans.Enable();

  int replications = static_cast<int>(flags.GetInt("replications", 1));
  int jobs = static_cast<int>(flags.GetInt("jobs", 1));
  if (replications > 1) {
    // Replicated mode: aggregate figure series across seeds. Replicas
    // run with telemetry off (see ReplicationOptions); the registry
    // still receives per-replica wall-clock / events-per-second gauges.
    qsched::harness::ReplicationOptions options;
    options.jobs = jobs;
    if (telemetry_on) options.telemetry = &telemetry;
    if (!report_html.empty() || !timeseries_csv.empty() ||
        !predictions_csv.empty()) {
      // Replicas run with control-loop telemetry off, so there is no
      // per-interval record to export in this mode.
      std::fprintf(stderr,
                   "--report-html/--timeseries-csv/--predictions-csv "
                   "need a single run; ignored with --replications>1\n");
    }
    qsched::harness::ReplicatedResult replicated =
        qsched::harness::RunReplicated(config, kind, replications,
                                       options);
    std::printf("controller=%s periods=%d seed=%llu replications=%d "
                "jobs=%d\n",
                ControllerKindToString(kind), replicated.num_periods,
                static_cast<unsigned long long>(config.seed), replications,
                jobs);
    std::printf("period  v1                v2                t3\n");
    for (int p = 0; p < replicated.num_periods; ++p) {
      std::printf(
          "%6d  %5.3f +/- %5.3f  %5.3f +/- %5.3f  %5.3f +/- %5.3f\n",
          p + 1, replicated.velocity.at(1).mean[p],
          replicated.velocity.at(1).stddev[p],
          replicated.velocity.at(2).mean[p],
          replicated.velocity.at(2).stddev[p],
          replicated.response.at(3).mean[p],
          replicated.response.at(3).stddev[p]);
    }
    if (flags.Has("summary")) {
      for (const auto& [cls, mean] : replicated.goal_periods_mean) {
        std::printf("class %d: %.1f +/- %.1f of %d periods met\n", cls,
                    mean, replicated.goal_periods_stddev.at(cls),
                    replicated.num_periods);
      }
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     metrics_out.c_str());
        return 1;
      }
      telemetry.registry.WritePrometheus(out);
      std::printf("wrote %s (%zu metrics)\n", metrics_out.c_str(),
                  telemetry.registry.size());
    }
    return 0;
  }

  qsched::harness::ExperimentResult result =
      qsched::harness::RunExperiment(config, kind);

  std::printf("controller=%s periods=%d seed=%llu\n",
              ControllerKindToString(kind), result.num_periods,
              static_cast<unsigned long long>(config.seed));
  std::printf("period  v1     v2     t3\n");
  for (int p = 0; p < result.num_periods; ++p) {
    std::printf("%6d  %.3f  %.3f  %.3f\n", p + 1,
                result.velocity_series.at(1)[p],
                result.velocity_series.at(2)[p],
                result.response_series.at(3)[p]);
  }
  if (flags.Has("summary")) {
    for (const auto& [cls, met] : result.periods_meeting_goal) {
      std::printf("class %d: %d/%d periods met\n", cls, met,
                  result.num_periods);
    }
    std::printf("cpu_util=%.2f disk_util=%.2f completed=%llu\n",
                result.cpu_utilization, result.disk_utilization,
                static_cast<unsigned long long>(result.total_completed));
  }

  std::string velocity_csv = flags.GetString("velocity-csv", "");
  if (!velocity_csv.empty()) {
    std::ofstream out(velocity_csv);
    qsched::metrics::WriteSeriesCsv(result.velocity_series, "velocity",
                                    out);
    std::printf("wrote %s\n", velocity_csv.c_str());
  }
  std::string response_csv = flags.GetString("response-csv", "");
  if (!response_csv.empty()) {
    std::ofstream out(response_csv);
    qsched::metrics::WriteSeriesCsv(result.response_series, "response",
                                    out);
    std::printf("wrote %s\n", response_csv.c_str());
  }
  if (!trace_csv.empty() && result.trace != nullptr) {
    std::ofstream out(trace_csv);
    qsched::metrics::WriteQueryRecordsCsv(*result.trace, out);
    std::printf("wrote %s (%zu records, %llu dropped)\n",
                trace_csv.c_str(), result.trace->size(),
                static_cast<unsigned long long>(result.trace->dropped()));
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   trace_out.c_str());
      return 1;
    }
    telemetry.spans.WriteChromeTrace(out);
    std::printf("wrote %s (%llu spans, %llu dropped)\n", trace_out.c_str(),
                static_cast<unsigned long long>(
                    telemetry.spans.closed_total()),
                static_cast<unsigned long long>(
                    telemetry.spans.dropped()));
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   metrics_out.c_str());
      return 1;
    }
    telemetry.registry.WritePrometheus(out);
    std::printf("wrote %s (%zu metrics)\n", metrics_out.c_str(),
                telemetry.registry.size());
  }
  if (!audit_out.empty()) {
    std::ofstream out(audit_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   audit_out.c_str());
      return 1;
    }
    telemetry.recorder.WriteJsonl(out);
    // SLO violation events share the stream, tagged
    // "type":"slo_violation" so audit readers can filter them.
    telemetry.slo.WriteEventsJsonl(out);
    std::printf("wrote %s (%zu records, %zu violation events, "
                "%llu dropped)\n",
                audit_out.c_str(), telemetry.recorder.size(),
                telemetry.slo.Events().size(),
                static_cast<unsigned long long>(
                    telemetry.recorder.dropped()));
  }
  if (!timeseries_csv.empty()) {
    std::ofstream out(timeseries_csv);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   timeseries_csv.c_str());
      return 1;
    }
    telemetry.recorder.WriteCsv(out);
    std::printf("wrote %s (%zu intervals, %llu dropped)\n",
                timeseries_csv.c_str(), telemetry.recorder.size(),
                static_cast<unsigned long long>(
                    telemetry.recorder.dropped()));
  }
  if (!predictions_csv.empty()) {
    std::ofstream out(predictions_csv);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   predictions_csv.c_str());
      return 1;
    }
    telemetry.ledger.WriteCsv(out);
    std::printf("wrote %s (%zu predictions, %llu dropped)\n",
                predictions_csv.c_str(), telemetry.ledger.size(),
                static_cast<unsigned long long>(
                    telemetry.ledger.dropped()));
  }
  if (!report_html.empty()) {
    std::ofstream out(report_html);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   report_html.c_str());
      return 1;
    }
    qsched::harness::HtmlReportOptions report_options;
    report_options.title =
        std::string("qsched run report: ") +
        ControllerKindToString(kind);
    qsched::sched::ServiceClassSet classes =
        config.classes.has_value() ? *config.classes
                                   : qsched::sched::MakePaperClasses();
    qsched::harness::WriteHtmlRunReport(result, classes, &telemetry,
                                        report_options, out);
    std::printf("wrote %s\n", report_html.c_str());
  }
  return 0;
}
