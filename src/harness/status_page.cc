#include "harness/status_page.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "harness/html_report.h"
#include "obs/metrics.h"

namespace qsched::harness {

namespace {

using obs::HtmlEscape;

void WriteTile(std::ostream& out, const std::string& value,
               const std::string& label) {
  out << "<div class=\"tile\"><div class=\"value\">" << HtmlEscape(value)
      << "</div><div class=\"label\">" << HtmlEscape(label)
      << "</div></div>\n";
}

std::string UptimeText(double seconds) {
  if (seconds >= 3600.0) return StrPrintf("%.1fh", seconds / 3600.0);
  if (seconds >= 60.0) return StrPrintf("%.1fm", seconds / 60.0);
  return StrPrintf("%.1fs", seconds);
}

/// Replaces a series longer than kStatusPagePointsPerSeries by the x and
/// y means of that many runs of consecutive points. Equal-length series
/// get equal runs, so stacked bands stay aligned.
void CapPoints(obs::SvgSeries* series) {
  const size_t n = series->xs.size();
  const size_t m = kStatusPagePointsPerSeries;
  if (n <= m) return;
  std::vector<double> xs(m);
  std::vector<double> ys(m);
  for (size_t b = 0; b < m; ++b) {
    const size_t begin = b * n / m;
    const size_t end = (b + 1) * n / m;
    double x_sum = 0.0;
    double y_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
      x_sum += series->xs[i];
      y_sum += series->ys[i];
    }
    xs[b] = x_sum / static_cast<double>(end - begin);
    ys[b] = y_sum / static_cast<double>(end - begin);
  }
  series->xs = std::move(xs);
  series->ys = std::move(ys);
}

}  // namespace

obs::SvgChartSpec BuildLatencyBreakdownSpec(
    const std::vector<obs::IntervalRow>& rows) {
  obs::SvgChartSpec spec;
  spec.x_label = "sim time (min)";
  spec.y_label = "mean latency (s)";
  const char* labels[3] = {"gateway queue", "dispatch", "execute"};
  obs::SvgSeries stages[3];
  for (int k = 0; k < 3; ++k) {
    stages[k].label = labels[k];
    stages[k].color_slot = k + 1;
  }
  bool any_stage_data = false;
  for (const obs::IntervalRow& row : rows) {
    double weight = 0.0;
    double sums[3] = {0.0, 0.0, 0.0};
    for (const obs::IntervalClassSample& cls : row.classes) {
      double w = static_cast<double>(std::max(cls.completed_in_interval, 0));
      weight += w;
      sums[0] += w * cls.stage_gateway_queue_seconds;
      sums[1] += w * cls.stage_dispatch_seconds;
      sums[2] += w * cls.stage_execute_seconds;
    }
    if (weight <= 0.0) continue;
    for (int k = 0; k < 3; ++k) {
      double mean = sums[k] / weight;
      if (mean > 0.0) any_stage_data = true;
      stages[k].xs.push_back(row.sim_time / 60.0);
      stages[k].ys.push_back(mean);
    }
  }
  if (!any_stage_data) return spec;
  for (int k = 0; k < 3; ++k) spec.series.push_back(std::move(stages[k]));
  return spec;
}

std::string RenderStatusPage(const StatusPageInfo& info,
                             const obs::Telemetry* telemetry) {
  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n"
      << "<title>" << HtmlEscape(info.title) << "</title>\n<style>"
      << HtmlReportStyle() << "</style>\n</head>\n<body>\n";
  out << "<h1>" << HtmlEscape(info.title) << "</h1>\n";
  out << "<p class=\"subtitle\">state: " << HtmlEscape(info.health)
      << " &middot; uptime " << UptimeText(info.uptime_seconds)
      << " &middot; point-in-time snapshot, reload for a fresh one</p>\n";

  out << "<div class=\"tiles\">\n";
  WriteTile(out,
            StrPrintf("%llu",
                      static_cast<unsigned long long>(info.accepted)),
            "queries accepted");
  WriteTile(out,
            StrPrintf("%llu",
                      static_cast<unsigned long long>(info.completed)),
            "queries completed");
  WriteTile(out,
            StrPrintf("%llu",
                      static_cast<unsigned long long>(info.rejected)),
            "queries rejected");
  WriteTile(out,
            StrPrintf("%llu",
                      static_cast<unsigned long long>(info.queue_depth)),
            "gateway queue depth");
  out << "</div>\n";

  if (telemetry == nullptr) {
    out << "<p class=\"note\">No telemetry attached to this runtime — "
           "tiles only.</p>\n</body>\n</html>\n";
    return out.str();
  }

  // ---- SLO attainment (live rolling windows) --------------------------
  {
    obs::SvgChartSpec spec;
    spec.x_label = "sim time (min)";
    spec.y_label = "attainment";
    spec.y_min = 0.0;
    spec.y_max = 1.05;
    std::vector<int> class_ids = telemetry->slo.ObservedClasses();
    for (size_t i = 0; i < class_ids.size(); ++i) {
      obs::SvgSeries series;
      series.label = StrPrintf("class %d", class_ids[i]);
      series.color_slot = static_cast<int>(std::min<size_t>(i, 7)) + 1;
      for (const auto& [time, ratio] :
           telemetry->slo.AttainmentSeries(class_ids[i])) {
        series.xs.push_back(time / 60.0);
        series.ys.push_back(ratio);
      }
      CapPoints(&series);
      if (!series.xs.empty()) spec.series.push_back(std::move(series));
    }
    if (!spec.series.empty()) {
      out << "<h2>SLO attainment</h2>\n<figure>\n"
          << obs::RenderLineChart(spec)
          << "\n<figcaption>Rolling fraction of recent control intervals "
             "in which each class met its goal.</figcaption>\n"
             "</figure>\n";
    }
  }

  // ---- Latency breakdown (stacked stages) -----------------------------
  {
    obs::SvgChartSpec spec =
        BuildLatencyBreakdownSpec(telemetry->recorder.Rows());
    for (obs::SvgSeries& series : spec.series) CapPoints(&series);
    if (!spec.series.empty()) {
      out << "<h2>Latency breakdown by stage</h2>\n<figure>\n"
          << obs::RenderStackedAreaChart(spec)
          << "\n<figcaption>Completion-weighted mean wall-clock time per "
             "stage each control interval; the stacked height is the "
             "mean end-to-end latency.</figcaption>\n</figure>\n";
    }
  }

  // ---- Full metric table ----------------------------------------------
  std::vector<obs::MetricSnapshot> snaps = telemetry->registry.Snapshot();
  if (!snaps.empty()) {
    out << "<h2>Metrics</h2>\n<table>\n"
        << "<tr><th>metric</th><th>value / count</th><th>p50</th>"
        << "<th>p95</th><th>p99</th></tr>\n";
    for (const obs::MetricSnapshot& snap : snaps) {
      std::string name = snap.labels.empty()
                             ? snap.name
                             : snap.name + "{" + snap.labels + "}";
      out << "<tr><td>" << HtmlEscape(name) << "</td>";
      if (snap.kind == obs::MetricKind::kHistogram) {
        out << "<td>"
            << StrPrintf("%llu",
                         static_cast<unsigned long long>(snap.count))
            << "</td><td>" << StrPrintf("%.4g", snap.p50) << "</td><td>"
            << StrPrintf("%.4g", snap.p95) << "</td><td>"
            << StrPrintf("%.4g", snap.p99) << "</td>";
      } else {
        out << "<td>" << StrPrintf("%.9g", snap.value)
            << "</td><td></td><td></td><td></td>";
      }
      out << "</tr>\n";
    }
    out << "</table>\n";
  }

  out << "</body>\n</html>\n";
  return out.str();
}

}  // namespace qsched::harness
