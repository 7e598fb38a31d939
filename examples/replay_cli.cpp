// Workload capture & replay CLI: inspect captured traces, replay them
// against a live endpoint at a speed multiplier, and shadow-evaluate
// what-if plans over them on the DES stack.
//
// Capture-info: parse a trace (plus rotation continuations) and print
// its header, record accounting, per-template histogram and — when the
// capturing run shut down cleanly — the live-run summary.
//
//   replay_cli --mode=capture-info --trace=PATH
//
// Replay: play the trace against a live server through pipelined
// net::Clients, preserving the recorded inter-arrival gaps scaled by
// --speed, then drain and reconcile. Exits 2 when conservation is
// violated (a lost or duplicated query).
//
//   replay_cli --mode=replay --trace=PATH --target=HOST:PORT --speed=2
//
// Whatif: feed the captured interval into the DES-backed scheduler
// stack once per candidate plan and report predicted per-class
// attainment and total utility side by side with the live run's
// measured values. Bit-deterministic at any --jobs.
//
//   replay_cli --mode=whatif --trace=PATH
//       --plans=base,interval=5,limit=300000+interval=5 --jobs=4
//
// Shared options:
//   --trace=PATH         trace file written by --capture-trace (required)
//   --seed=N             seed for regenerating query resource demands
//                        from captured template ids (42)
//   --tpch-scale=X       TPC-H scale factor for OLAP regeneration (0.1)
//
// Replay options:
//   --target=HOST:PORT   server address (127.0.0.1:4750)
//   --speed=X            speed multiplier over recorded gaps (1.0)
//   --connections=N      client connections, one thread each (2)
//   --max-outstanding=N  pipeline depth bound per connection (256)
//   --metrics-out=PATH   Prometheus text exposition of the registry
//
// Whatif options:
//   --plans=SPEC         comma-separated candidates, each '+'-joined
//                        tokens: base | interval=S | greedy | utility |
//                        step=F | limit=X | olap=X  ("base")
//   --jobs=N             candidate evaluation threads (0 = all cores)
//   --control-interval=S base control interval when the trace has no
//                        summary (15)
//   --cost-limit=X       base system cost limit when the trace has no
//                        summary (300000)
//   --report-interval=S  attainment bucketing interval (0 = control
//                        interval)
//   --out=PATH           also write the report to PATH

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/flags.h"
#include "obs/telemetry.h"
#include "replay/replayer.h"
#include "replay/shadow_planner.h"
#include "replay/template_codec.h"
#include "replay/trace_format.h"
#include "scheduler/query_scheduler.h"

namespace {

bool ParseTarget(const std::string& target, std::string* host,
                 uint16_t* port) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    return false;
  }
  *host = target.substr(0, colon);
  try {
    const int parsed = std::stoi(target.substr(colon + 1));
    if (parsed <= 0 || parsed > 65535) return false;
    *port = static_cast<uint16_t>(parsed);
  } catch (...) {
    return false;
  }
  return true;
}

qsched::Result<qsched::replay::TraceReadResult> LoadTrace(
    const qsched::FlagParser& flags) {
  const std::string path = flags.GetString("trace", "");
  if (path.empty()) {
    return qsched::Status::InvalidArgument("--trace=PATH is required");
  }
  return qsched::replay::ReadTraceChain(path);
}

int RunCaptureInfo(const qsched::FlagParser& flags) {
  qsched::Result<qsched::replay::TraceReadResult> loaded =
      LoadTrace(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const qsched::replay::TraceReadResult& trace = loaded.ValueOrDie();
  std::printf("trace %s\n", flags.GetString("trace", "").c_str());
  std::printf(
      "  version %u, time_scale %.1f, capture seed %llu\n",
      trace.header.version, trace.header.time_scale,
      static_cast<unsigned long long>(trace.header.seed));
  double span_s = 0.0;
  uint64_t lo = 0, hi = 0;
  if (!trace.records.empty()) {
    lo = trace.records.front().arrival_ns;
    hi = lo;
    for (const qsched::replay::TraceRecord& r : trace.records) {
      if (r.arrival_ns < lo) lo = r.arrival_ns;
      if (r.arrival_ns > hi) hi = r.arrival_ns;
    }
    span_s = static_cast<double>(hi - lo) / 1e9;
  }
  std::printf(
      "  records %zu over %.2f wall s (%.1f/s), segments ok %llu "
      "corrupt %llu, bytes %llu\n",
      trace.records.size(), span_s,
      span_s > 0.0 ? static_cast<double>(trace.records.size()) / span_s
                   : 0.0,
      static_cast<unsigned long long>(trace.segments_ok),
      static_cast<unsigned long long>(trace.segments_corrupt),
      static_cast<unsigned long long>(trace.bytes_read));

  qsched::workload::TpchWorkloadParams tpch;
  tpch.scale_factor = flags.GetDouble("tpch-scale", 0.1);
  qsched::replay::TemplateCodec codec(
      tpch, qsched::workload::TpccWorkloadParams(),
      static_cast<uint64_t>(flags.GetInt("seed", 42)));
  std::map<uint16_t, uint64_t> by_template;
  std::map<uint16_t, uint64_t> by_class;
  for (const qsched::replay::TraceRecord& r : trace.records) {
    ++by_template[r.template_id];
    ++by_class[r.class_id];
  }
  for (const auto& [class_id, count] : by_class) {
    std::printf("  class %u: %llu records\n",
                static_cast<unsigned>(class_id),
                static_cast<unsigned long long>(count));
  }
  for (const auto& [template_id, count] : by_template) {
    std::printf("  template %-12s (%#06x): %llu\n",
                codec.TemplateName(template_id).c_str(),
                static_cast<unsigned>(template_id),
                static_cast<unsigned long long>(count));
  }
  if (trace.has_summary) {
    const qsched::replay::TraceSummary& s = trace.summary;
    std::printf(
        "  live summary: interval %.1f s, cost limit %.0f, allocator %s, "
        "total utility %.4f\n",
        s.control_interval_seconds, s.system_cost_limit,
        s.allocator == 1 ? "greedy" : "utility-search", s.total_utility);
    for (const qsched::replay::TraceSummaryClass& c : s.classes) {
      std::printf(
          "    class %u: measured %.4f, attainment %.2f, limit %.0f\n",
          c.class_id, c.measured, c.attainment, c.cost_limit);
    }
  } else {
    std::printf("  no live summary (capture did not shut down cleanly)\n");
  }
  return 0;
}

int RunReplay(const qsched::FlagParser& flags) {
  qsched::Result<qsched::replay::TraceReadResult> loaded =
      LoadTrace(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const qsched::replay::TraceReadResult& trace = loaded.ValueOrDie();
  if (trace.records.empty()) {
    std::fprintf(stderr, "trace has no records\n");
    return 1;
  }

  qsched::replay::ReplayOptions options;
  const std::string target =
      flags.GetString("target", "127.0.0.1:4750");
  if (!ParseTarget(target, &options.host, &options.port)) {
    std::fprintf(stderr, "malformed --target=%s\n", target.c_str());
    return 1;
  }
  options.speed = flags.GetDouble("speed", 1.0);
  options.connections = static_cast<int>(flags.GetInt("connections", 2));
  options.max_outstanding =
      static_cast<int>(flags.GetInt("max-outstanding", 256));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.tpch.scale_factor = flags.GetDouble("tpch-scale", 0.1);

  qsched::obs::Telemetry telemetry;
  qsched::replay::Replayer replayer(trace, options, &telemetry);
  std::printf("replaying %zu records to %s at %.2fx over %d connections\n",
              trace.records.size(), target.c_str(), options.speed,
              options.connections);
  qsched::Result<qsched::net::LoadReport> ran = replayer.Run();
  if (!ran.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 ran.status().ToString().c_str());
    return 1;
  }
  const qsched::net::LoadReport& report = ran.ValueOrDie();
  const qsched::obs::Histogram* rtt =
      telemetry.registry.GetHistogram("qsched_replay_rtt_seconds");
  std::printf(
      "REPLAY seed=%llu speed=%.2f offered=%llu accepted=%llu "
      "rejected=%llu completed=%llu lost=%llu unmatched=%llu "
      "feed=%.2f drain=%.2f lag_ms=%.2f rtt_p50_us=%.0f rtt_p99_us=%.0f\n",
      static_cast<unsigned long long>(options.seed), options.speed,
      static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.accepted),
      static_cast<unsigned long long>(report.rejected()),
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.lost),
      static_cast<unsigned long long>(report.unmatched),
      report.feed_seconds, report.drain_seconds,
      report.mean_lag_seconds * 1e3, rtt->Quantile(0.5) * 1e6,
      rtt->Quantile(0.99) * 1e6);

  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (out) {
      telemetry.registry.WritePrometheus(out);
      std::printf("wrote %s (%zu metrics)\n", metrics_out.c_str(),
                  telemetry.registry.size());
    } else {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
    }
  }

  if (!report.conserved()) {
    std::fprintf(stderr, "CONSERVATION VIOLATION (see REPLAY line)\n");
    return 2;
  }
  return 0;
}

int RunWhatif(const qsched::FlagParser& flags) {
  qsched::Result<qsched::replay::TraceReadResult> loaded =
      LoadTrace(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const qsched::replay::TraceReadResult& trace = loaded.ValueOrDie();
  if (trace.records.empty()) {
    std::fprintf(stderr, "trace has no records\n");
    return 1;
  }

  qsched::replay::ShadowPlannerOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.tpch.scale_factor = flags.GetDouble("tpch-scale", 0.1);
  options.report_interval_seconds =
      flags.GetDouble("report-interval", 0.0);
  // The base config mirrors the capture-side scheduler so "base"
  // candidates reproduce the live setup; a summary-less trace falls back
  // to the flags.
  if (trace.has_summary) {
    options.base.control_interval_seconds =
        trace.summary.control_interval_seconds;
    options.base.system_cost_limit = trace.summary.system_cost_limit;
    options.base.allocator =
        trace.summary.allocator == 1
            ? qsched::sched::QuerySchedulerConfig::Allocator::kGreedyAuction
            : qsched::sched::QuerySchedulerConfig::Allocator::kUtilitySearch;
  } else {
    options.base.control_interval_seconds =
        flags.GetDouble("control-interval", 15.0);
    options.base.system_cost_limit =
        flags.GetDouble("cost-limit", 300000.0);
  }

  qsched::replay::ShadowPlanner planner(trace, options);
  qsched::Result<std::vector<qsched::replay::PlanCandidate>> parsed =
      qsched::replay::ParsePlanCandidates(
          flags.GetString("plans", "base"), options.base,
          planner.classes());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const std::vector<qsched::replay::PlanCandidate>& candidates =
      parsed.ValueOrDie();
  const int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  std::printf("whatif: %zu records, %zu candidate plans, jobs=%d\n",
              trace.records.size(), candidates.size(), jobs);
  std::fflush(stdout);

  const std::vector<qsched::replay::ShadowOutcome> outcomes =
      planner.Evaluate(candidates, jobs);
  qsched::replay::ShadowOutcome live;
  const bool has_live = planner.has_live();
  if (has_live) live = planner.LiveOutcome();
  const std::string report = qsched::replay::ShadowPlanner::FormatReport(
      has_live ? &live : nullptr, outcomes);
  std::fputs(report.c_str(), stdout);

  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << report;
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
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
        "usage: replay_cli --mode=capture-info --trace=PATH\n"
        "       replay_cli --mode=replay --trace=PATH "
        "--target=HOST:PORT [--speed=X]\n"
        "       replay_cli --mode=whatif --trace=PATH "
        "[--plans=SPEC] [--jobs=N]\n");
    return 0;
  }
  const std::string mode = flags.GetString("mode", "capture-info");
  if (mode == "capture-info") return RunCaptureInfo(flags);
  if (mode == "replay") return RunReplay(flags);
  if (mode == "whatif") return RunWhatif(flags);
  std::fprintf(stderr,
               "unknown --mode=%s (capture-info | replay | whatif)\n",
               mode.c_str());
  return 1;
}
