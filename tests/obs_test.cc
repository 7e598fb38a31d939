// Tests for the observability subsystem: metrics registry (histogram
// buckets, quantiles, Prometheus exposition), per-query span lifecycle
// (including cancellation and the Chrome trace export), and the planner
// decision audit log (JSONL round-trip plus the end-to-end guarantee
// that audited cost limits are exactly the limits the dispatcher
// enforced).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/execution_engine.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/svg.h"
#include "obs/telemetry.h"
#include "scheduler/query_scheduler.h"
#include "sim/simulator.h"

namespace qsched::obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
}

TEST(HistogramTest, BucketIndexEdges) {
  // At or below the minimum -> underflow bucket, including junk values.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinValue), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
  // One octave above the minimum spans kBucketsPerOctave buckets.
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinValue * 1.01), 1);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinValue * 2.01),
            1 + Histogram::kBucketsPerOctave);
  // Far beyond the range -> clamped into the top (overflow) bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketEdgesBracketTheValue) {
  for (double value : {1e-5, 0.003, 0.5, 7.0, 123.0, 99999.0}) {
    int index = Histogram::BucketIndex(value);
    EXPECT_GT(value, Histogram::BucketLowerEdge(index))
        << "value " << value;
    EXPECT_LE(value, Histogram::BucketUpperEdge(index))
        << "value " << value;
  }
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram hist;
  hist.Record(2.0);
  hist.Record(4.0);
  hist.Record(6.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 12.0);
  EXPECT_DOUBLE_EQ(hist.min(), 2.0);
  EXPECT_DOUBLE_EQ(hist.max(), 6.0);
  EXPECT_DOUBLE_EQ(hist.Mean(), 4.0);
}

TEST(HistogramTest, QuantileWithinBucketResolution) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.Record(static_cast<double>(i) / 1000.0);  // 0.001 .. 1.0
  }
  // Buckets are < 19% wide, so estimates land within 19% of truth.
  EXPECT_NEAR(hist.Quantile(0.5), 0.5, 0.5 * 0.19);
  EXPECT_NEAR(hist.Quantile(0.95), 0.95, 0.95 * 0.19);
  EXPECT_NEAR(hist.Quantile(0.99), 0.99, 0.99 * 0.19);
}

TEST(HistogramTest, QuantileClampedToObservedRange) {
  Histogram hist;
  hist.Record(0.2);
  hist.Record(0.3);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 0.2);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 0.3);
  EXPECT_GE(hist.Quantile(0.5), 0.2);
  EXPECT_LE(hist.Quantile(0.5), 0.3);
}

TEST(HistogramTest, SingleValueQuantilesCollapse) {
  Histogram hist;
  hist.Record(0.125);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hist.Quantile(q), 0.125) << "q=" << q;
  }
}

// ---------------------------------------------------------------------
// Registry

TEST(RegistryTest, HandlesAreStableAndShared) {
  Registry reg;
  Counter* a = reg.GetCounter("events_total");
  Counter* b = reg.GetCounter("events_total");
  EXPECT_EQ(a, b);
  Counter* labeled = reg.GetCounter("events_total", "class=\"1\"");
  EXPECT_NE(a, labeled);
  a->Inc();
  a->Inc(2);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(labeled->value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryTest, SnapshotCarriesAllKinds) {
  Registry reg;
  reg.GetCounter("c_total")->Inc(5);
  reg.GetGauge("g")->Set(2.5);
  Histogram* hist = reg.GetHistogram("h_seconds");
  hist->Record(1.0);
  hist->Record(3.0);

  std::vector<MetricSnapshot> snapshot = reg.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // std::map ordering: c_total, g, h_seconds.
  EXPECT_EQ(snapshot[0].name, "c_total");
  EXPECT_EQ(snapshot[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 5.0);
  EXPECT_EQ(snapshot[1].name, "g");
  EXPECT_EQ(snapshot[1].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[1].value, 2.5);
  EXPECT_EQ(snapshot[2].name, "h_seconds");
  EXPECT_EQ(snapshot[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot[2].count, 2u);
  EXPECT_DOUBLE_EQ(snapshot[2].sum, 4.0);
  EXPECT_DOUBLE_EQ(snapshot[2].min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot[2].max, 3.0);
}

TEST(RegistryTest, PrometheusExpositionFormat) {
  Registry reg;
  reg.GetCounter("qsched_queries_total", "class=\"1\"")->Inc(7);
  reg.GetCounter("qsched_queries_total", "class=\"2\"")->Inc(9);
  reg.GetGauge("qsched_queue_depth", "class=\"1\"")->Set(4.0);
  reg.GetHistogram("qsched_wait_seconds")->Record(0.5);

  std::ostringstream out;
  reg.WritePrometheus(out);
  std::string text = out.str();

  // One # TYPE line per family even with several label sets.
  size_t first = text.find("# TYPE qsched_queries_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE qsched_queries_total counter", first + 1),
            std::string::npos);
  EXPECT_TRUE(Contains(text, "qsched_queries_total{class=\"1\"} 7"));
  EXPECT_TRUE(Contains(text, "qsched_queries_total{class=\"2\"} 9"));
  EXPECT_TRUE(Contains(text, "# TYPE qsched_queue_depth gauge"));
  EXPECT_TRUE(Contains(text, "qsched_queue_depth{class=\"1\"} 4"));
  // Histograms render as summaries with quantile labels + _sum/_count.
  EXPECT_TRUE(Contains(text, "# TYPE qsched_wait_seconds summary"));
  EXPECT_TRUE(Contains(text, "qsched_wait_seconds{quantile=\"0.5\"}"));
  EXPECT_TRUE(Contains(text, "qsched_wait_seconds{quantile=\"0.99\"}"));
  EXPECT_TRUE(Contains(text, "qsched_wait_seconds_sum"));
  EXPECT_TRUE(Contains(text, "qsched_wait_seconds_count 1"));
}

// ---------------------------------------------------------------------
// SpanLog

TEST(SpanLogTest, FullLifecycleStampsEveryTransition) {
  SpanLog spans;
  spans.Enable();
  spans.OnSubmit(42, 1, false, 10.0);
  spans.OnClassify(42, 10.0);
  spans.OnEnqueue(42, 10.35);
  EXPECT_EQ(spans.open_count(), 1u);
  ASSERT_NE(spans.FindOpen(42), nullptr);
  EXPECT_DOUBLE_EQ(spans.FindOpen(42)->enqueue_time, 10.35);

  spans.OnDispatch(42, 12.0);
  spans.OnComplete(42, 12.0, 20.0);
  EXPECT_EQ(spans.open_count(), 0u);
  EXPECT_EQ(spans.closed_total(), 1u);
  ASSERT_EQ(spans.closed().size(), 1u);
  const QuerySpan& span = spans.closed().front();
  EXPECT_EQ(span.query_id, 42u);
  EXPECT_EQ(span.class_id, 1);
  EXPECT_FALSE(span.is_oltp);
  EXPECT_DOUBLE_EQ(span.submit_time, 10.0);
  EXPECT_DOUBLE_EQ(span.classify_time, 10.0);
  EXPECT_DOUBLE_EQ(span.enqueue_time, 10.35);
  EXPECT_DOUBLE_EQ(span.dispatch_time, 12.0);
  EXPECT_DOUBLE_EQ(span.exec_start_time, 12.0);
  EXPECT_DOUBLE_EQ(span.end_time, 20.0);
  EXPECT_FALSE(span.cancelled);
  EXPECT_TRUE(span.Closed());
}

TEST(SpanLogTest, CancelledSpanIsFlagged) {
  SpanLog spans;
  spans.Enable();
  spans.OnSubmit(7, 2, false, 1.0);
  spans.OnEnqueue(7, 1.35);
  spans.OnCancel(7, 5.0);
  ASSERT_EQ(spans.closed().size(), 1u);
  const QuerySpan& span = spans.closed().front();
  EXPECT_TRUE(span.cancelled);
  EXPECT_DOUBLE_EQ(span.end_time, 5.0);
  // Never dispatched or executed.
  EXPECT_DOUBLE_EQ(span.dispatch_time, -1.0);
  EXPECT_DOUBLE_EQ(span.exec_start_time, -1.0);
}

TEST(SpanLogTest, UnknownIdTransitionsAreNoOps) {
  SpanLog spans;
  spans.Enable();
  spans.OnClassify(99, 1.0);
  spans.OnEnqueue(99, 1.0);
  spans.OnDispatch(99, 1.0);
  spans.OnComplete(99, 1.0, 2.0);
  spans.OnCancel(99, 2.0);
  EXPECT_EQ(spans.open_count(), 0u);
  EXPECT_EQ(spans.closed_total(), 0u);
  EXPECT_EQ(spans.dropped(), 0u);
}

TEST(SpanLogTest, RecordsNothingUntilEnabled) {
  SpanLog spans;
  spans.OnSubmit(1, 1, false, 1.0);
  spans.OnClassify(1, 1.0);
  spans.OnEnqueue(1, 1.35);
  EXPECT_EQ(spans.open_count(), 0u);
  EXPECT_EQ(spans.FindOpen(1), nullptr);
  spans.OnDispatch(1, 2.0);
  spans.OnComplete(1, 2.0, 3.0);
  spans.OnSubmit(2, 3, true, 1.5);
  spans.OnCancel(2, 1.6);
  EXPECT_EQ(spans.open_count(), 0u);
  EXPECT_EQ(spans.closed_total(), 0u);
  EXPECT_TRUE(spans.closed().empty());
  EXPECT_EQ(spans.dropped(), 0u);

  // A query submitted before Enable() stays unknown afterwards; the
  // next one is recorded.
  spans.OnSubmit(3, 1, false, 4.0);
  spans.Enable();
  spans.OnComplete(3, 4.0, 5.0);
  spans.OnSubmit(4, 1, false, 6.0);
  spans.OnComplete(4, 6.0, 7.0);
  EXPECT_EQ(spans.closed_total(), 1u);
  ASSERT_EQ(spans.closed().size(), 1u);
  EXPECT_EQ(spans.closed().front().query_id, 4u);
}

TEST(SpanLogTest, DropOldestAtCapacity) {
  SpanLog spans(2);
  spans.Enable();
  for (uint64_t id = 1; id <= 3; ++id) {
    spans.OnSubmit(id, 1, false, 1.0);
    spans.OnComplete(id, 1.0, 2.0);
  }
  EXPECT_EQ(spans.closed().size(), 2u);
  EXPECT_EQ(spans.closed_total(), 3u);
  EXPECT_EQ(spans.dropped(), 1u);
  EXPECT_EQ(spans.closed().front().query_id, 2u);
  EXPECT_EQ(spans.closed().back().query_id, 3u);
}

TEST(SpanLogTest, ChromeTraceHasTracksSlicesAndMicroseconds) {
  SpanLog spans;
  spans.Enable();
  // Intercepted OLAP query on class 1.
  spans.OnSubmit(1, 1, false, 1.0);
  spans.OnEnqueue(1, 1.35);
  spans.OnDispatch(1, 2.0);
  spans.OnComplete(1, 2.0, 4.0);
  // Bypassed OLTP query on class 3 (no enqueue/dispatch).
  spans.OnSubmit(2, 3, true, 1.5);
  spans.OnComplete(2, 1.5, 1.6);
  // Cancelled query on class 2.
  spans.OnSubmit(3, 2, false, 2.0);
  spans.OnEnqueue(3, 2.35);
  spans.OnCancel(3, 3.0);

  std::ostringstream out;
  spans.WriteChromeTrace(out);
  std::string json = out.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\"traceEvents\""));
  // One named track per class, OLAP/OLTP tagged.
  EXPECT_TRUE(Contains(json, "class 1 (OLAP)"));
  EXPECT_TRUE(Contains(json, "class 2 (OLAP)"));
  EXPECT_TRUE(Contains(json, "class 3 (OLTP)"));
  // Lifecycle slices; the cancelled query gets a `cancelled` slice.
  EXPECT_TRUE(Contains(json, "\"intercept\""));
  EXPECT_TRUE(Contains(json, "\"queued\""));
  EXPECT_TRUE(Contains(json, "\"exec\""));
  EXPECT_TRUE(Contains(json, "\"cancelled\""));
  // Sim seconds export as microseconds: 1.5 s -> ts 1500000.
  EXPECT_TRUE(Contains(json, "1500000.000"));
}

// ---------------------------------------------------------------------
// Planner audit log

PlannerAuditRecord MakeAuditRecord(uint64_t interval) {
  PlannerAuditRecord record;
  record.interval = interval;
  record.sim_time = 60.0 * static_cast<double>(interval);
  record.system_cost_limit = 300000.0;
  record.oltp_response = 0.1875;
  record.solver_utility = 5.5;
  record.allocator = "utility-search";

  PlannerAuditClass olap;
  olap.class_id = 1;
  olap.is_oltp = false;
  olap.goal = 0.4;
  olap.measured_raw = 0.5;
  olap.measured_smoothed = 0.4375;
  olap.goal_ratio = 1.09375;
  olap.completed_in_interval = 12;
  olap.queue_depth = 3;
  olap.running = 2;
  olap.running_cost = 65536.0;
  olap.arrival_rate = 0.25;
  olap.predicted_rate = 0.3125;
  olap.change_detected = true;
  olap.target_limit = 120000.0;
  olap.enforced_limit = 110000.0;
  record.classes.push_back(olap);

  PlannerAuditClass oltp;
  oltp.class_id = 3;
  oltp.is_oltp = true;
  oltp.goal = 0.25;
  oltp.measured_raw = -1.0;  // no snapshot landed
  oltp.measured_smoothed = 0.1875;
  oltp.goal_ratio = 1.33333333;
  oltp.queue_depth = 0;
  oltp.target_limit = 180000.0;
  oltp.enforced_limit = 190000.0;
  record.classes.push_back(oltp);
  return record;
}

TEST(PlannerAuditTest, JsonRoundTripPreservesEveryField) {
  PlannerAuditRecord record = MakeAuditRecord(4);
  std::string json = ToJson(record);
  EXPECT_EQ(json.find('\n'), std::string::npos);

  PlannerAuditRecord parsed;
  ASSERT_TRUE(ParsePlannerAuditRecord(json, &parsed));
  EXPECT_EQ(parsed.interval, 4u);
  EXPECT_DOUBLE_EQ(parsed.sim_time, 240.0);
  EXPECT_DOUBLE_EQ(parsed.system_cost_limit, 300000.0);
  EXPECT_DOUBLE_EQ(parsed.oltp_response, 0.1875);
  EXPECT_DOUBLE_EQ(parsed.solver_utility, 5.5);
  EXPECT_EQ(parsed.allocator, "utility-search");
  ASSERT_EQ(parsed.classes.size(), 2u);

  const PlannerAuditClass& olap = parsed.classes[0];
  EXPECT_EQ(olap.class_id, 1);
  EXPECT_FALSE(olap.is_oltp);
  EXPECT_DOUBLE_EQ(olap.goal, 0.4);
  EXPECT_DOUBLE_EQ(olap.measured_raw, 0.5);
  EXPECT_DOUBLE_EQ(olap.measured_smoothed, 0.4375);
  EXPECT_DOUBLE_EQ(olap.goal_ratio, 1.09375);
  EXPECT_EQ(olap.completed_in_interval, 12);
  EXPECT_EQ(olap.queue_depth, 3);
  EXPECT_EQ(olap.running, 2);
  EXPECT_DOUBLE_EQ(olap.running_cost, 65536.0);
  EXPECT_DOUBLE_EQ(olap.arrival_rate, 0.25);
  EXPECT_DOUBLE_EQ(olap.predicted_rate, 0.3125);
  EXPECT_TRUE(olap.change_detected);
  EXPECT_DOUBLE_EQ(olap.target_limit, 120000.0);
  EXPECT_DOUBLE_EQ(olap.enforced_limit, 110000.0);

  const PlannerAuditClass& oltp = parsed.classes[1];
  EXPECT_EQ(oltp.class_id, 3);
  EXPECT_TRUE(oltp.is_oltp);
  EXPECT_DOUBLE_EQ(oltp.measured_raw, -1.0);
  EXPECT_FALSE(oltp.change_detected);
  EXPECT_DOUBLE_EQ(oltp.enforced_limit, 190000.0);
}

TEST(PlannerAuditTest, ParseRejectsMalformedInput) {
  PlannerAuditRecord out;
  EXPECT_FALSE(ParsePlannerAuditRecord("", &out));
  EXPECT_FALSE(ParsePlannerAuditRecord("not json", &out));
  EXPECT_FALSE(ParsePlannerAuditRecord("{\"interval\":}", &out));
}

TEST(PlannerAuditTest, WriteJsonlEmitsOneParsableLinePerRecord) {
  PlannerAuditLog log;
  log.Add(MakeAuditRecord(1));
  log.Add(MakeAuditRecord(2));
  std::ostringstream out;
  log.WriteJsonl(out);

  std::istringstream in(out.str());
  std::string line;
  uint64_t expected_interval = 1;
  while (std::getline(in, line)) {
    PlannerAuditRecord parsed;
    ASSERT_TRUE(ParsePlannerAuditRecord(line, &parsed)) << line;
    EXPECT_EQ(parsed.interval, expected_interval);
    ++expected_interval;
  }
  EXPECT_EQ(expected_interval, 3u);
}

TEST(PlannerAuditTest, DropOldestAtCapacity) {
  PlannerAuditLog log(2);
  log.Add(MakeAuditRecord(1));
  log.Add(MakeAuditRecord(2));
  log.Add(MakeAuditRecord(3));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.records().front().interval, 2u);
  EXPECT_EQ(log.records().back().interval, 3u);
}

// ---------------------------------------------------------------------
// TimeSeriesRecorder

IntervalRow MakeIntervalRow(uint64_t interval) {
  IntervalRow row;
  row.interval = interval;
  row.sim_time = 60.0 * static_cast<double>(interval);
  row.solver_wall_seconds = 1e-4;
  row.solver_utility = 2.5;
  IntervalClassSample olap;
  olap.class_id = 1;
  olap.cost_limit = 150000.0;
  olap.measured = 0.75;
  olap.goal_ratio = 1.07142857;
  olap.queue_depth = 3;
  olap.admitted_cost = 42000.0;
  olap.completed_in_interval = 2;
  IntervalClassSample oltp;
  oltp.class_id = 3;
  oltp.is_oltp = true;
  oltp.cost_limit = 50000.0;
  oltp.measured = 1.8;
  oltp.goal_ratio = 1.11;
  row.classes = {olap, oltp};
  return row;
}

TEST(TimeSeriesRecorderTest, AppendAndReadBack) {
  TimeSeriesRecorder recorder;
  recorder.Append(MakeIntervalRow(1));
  recorder.Append(MakeIntervalRow(2));
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<IntervalRow> rows = recorder.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].interval, 1u);
  EXPECT_EQ(rows[1].interval, 2u);
  ASSERT_EQ(rows[0].classes.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].classes[0].cost_limit, 150000.0);
  EXPECT_TRUE(rows[0].classes[1].is_oltp);
}

TEST(TimeSeriesRecorderTest, CsvIsLongFormatOneLinePerClass) {
  TimeSeriesRecorder recorder;
  recorder.Append(MakeIntervalRow(1));
  std::ostringstream out;
  recorder.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_TRUE(Contains(
      csv,
      "interval,sim_time,class_id,is_oltp,cost_limit,measured,"
      "goal_ratio,queue_depth,admitted_cost,completed_in_interval,"
      "solver_wall_seconds,solver_utility"));
  // One interval with two classes -> header + two data lines.
  int lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_TRUE(Contains(csv, "1,60,1,0,150000,0.75,"));
  EXPECT_TRUE(Contains(csv, "1,60,3,1,50000,1.8,"));
}

TEST(TimeSeriesRecorderTest, JsonCarriesIntervalAndClassColumns) {
  TimeSeriesRecorder recorder;
  recorder.Append(MakeIntervalRow(4));
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(Contains(json, "\"interval\":4"));
  EXPECT_TRUE(Contains(json, "\"sim_time\":240"));
  EXPECT_TRUE(Contains(json, "\"solver_utility\":2.5"));
  EXPECT_TRUE(Contains(json, "\"is_oltp\":true"));
  EXPECT_TRUE(Contains(json, "\"admitted_cost\":42000"));
  // Valid JSON array delimiters.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(TimeSeriesRecorderTest, DropOldestAtCapacity) {
  TimeSeriesRecorder recorder(2);
  recorder.Append(MakeIntervalRow(1));
  recorder.Append(MakeIntervalRow(2));
  recorder.Append(MakeIntervalRow(3));
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);
  std::vector<IntervalRow> rows = recorder.Rows();
  EXPECT_EQ(rows.front().interval, 2u);
  EXPECT_EQ(rows.back().interval, 3u);
}

// ---------------------------------------------------------------------
// PredictionLedger

TEST(PredictionLedgerTest, PredictionResolvesAgainstNextInterval) {
  PredictionLedger ledger;
  ledger.Predict(1, 1, false, 0.8, 0.0);
  // Wrong interval: the pending record targets 2, so 3 is a no-op.
  ledger.Observe(3, 1, 0.7);
  EXPECT_EQ(ledger.StatsFor(1).count, 0u);
  ledger.Observe(2, 1, 0.7);
  std::vector<PredictionRecord> records = ledger.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].resolved);
  EXPECT_EQ(records[0].predicted_at, 1u);
  EXPECT_EQ(records[0].target_interval, 2u);
  EXPECT_DOUBLE_EQ(records[0].observed, 0.7);
  const ResidualStats stats = ledger.StatsFor(1);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_NEAR(stats.mean_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(stats.bias, -0.1, 1e-12);
}

TEST(PredictionLedgerTest, ObserveWithoutPendingIsNoOp) {
  PredictionLedger ledger;
  ledger.Observe(1, 1, 0.5);  // first interval: nothing predicted yet
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.StatsFor(1).count, 0u);
}

TEST(PredictionLedgerTest, ResidualStatsExactP95) {
  PredictionLedger ledger;
  // 20 resolved predictions for class 7 with |error| = 0.01 .. 0.20.
  for (int i = 1; i <= 20; ++i) {
    ledger.Predict(static_cast<uint64_t>(i), 7, true, 1.0, 1e-5);
    ledger.Observe(static_cast<uint64_t>(i) + 1, 7, 1.0 + 0.01 * i);
  }
  const ResidualStats stats = ledger.StatsFor(7);
  EXPECT_EQ(stats.count, 20u);
  EXPECT_NEAR(stats.mean_abs_error, 0.105, 1e-9);
  EXPECT_NEAR(stats.bias, 0.105, 1e-9);  // model underpredicts
  // Exact sorted p95 of {0.01..0.20} with linear interpolation between
  // order statistics: rank 0.95*19 = 18.05 -> 0.19 + 0.05*0.01.
  EXPECT_NEAR(stats.p95_abs_error, 0.1905, 1e-9);
  // All 20 OLTP predictions logged their slope.
  EXPECT_EQ(ledger.SlopeTrajectory().size(), 20u);
}

TEST(PredictionLedgerTest, DropOldestKeepsPendingPointerSafe) {
  PredictionLedger ledger(2);
  ledger.Predict(1, 1, false, 0.5, 0.0);
  ledger.Predict(1, 2, false, 0.6, 0.0);
  // Capacity reached: this drops class 1's pending record.
  ledger.Predict(1, 3, false, 0.7, 0.0);
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.dropped(), 1u);
  // Resolving the dropped class must not touch freed memory or record
  // a residual.
  ledger.Observe(2, 1, 0.4);
  EXPECT_EQ(ledger.StatsFor(1).count, 0u);
  // The surviving classes still resolve normally.
  ledger.Observe(2, 2, 0.6);
  ledger.Observe(2, 3, 0.7);
  EXPECT_EQ(ledger.StatsFor(2).count, 1u);
  EXPECT_EQ(ledger.StatsFor(3).count, 1u);
}

TEST(PredictionLedgerTest, ResidualErrorsKeepTheLatestCapacity) {
  constexpr size_t kCapacity = 4;
  constexpr int kExtra = 3;
  PredictionLedger ledger(kCapacity);
  // Error i is i (observed 1 + i against predicted 1), so the oldest
  // kExtra errors {1, 2, 3} must go and {4, 5, 6, 7} stay.
  for (int i = 1; i <= static_cast<int>(kCapacity) + kExtra; ++i) {
    ledger.Predict(static_cast<uint64_t>(i), 7, false, 1.0, 0.0);
    ledger.Observe(static_cast<uint64_t>(i) + 1, 7, 1.0 + i);
  }
  EXPECT_EQ(ledger.size(), kCapacity);
  const ResidualStats stats = ledger.StatsFor(7);
  EXPECT_EQ(stats.count, kCapacity);
  EXPECT_DOUBLE_EQ(stats.mean_abs_error, 5.5);
  EXPECT_DOUBLE_EQ(stats.bias, 5.5);
  // rank 0.95*3 = 2.85 -> 6 + 0.85*(7-6).
  EXPECT_NEAR(stats.p95_abs_error, 6.85, 1e-12);
}

TEST(PredictionLedgerTest, CsvAndJsonlCarryResolution) {
  PredictionLedger ledger;
  ledger.Predict(5, 1, false, 0.75, 0.0);
  ledger.Observe(6, 1, 0.5);
  ledger.Predict(6, 1, false, 0.8, 0.0);  // still pending
  std::ostringstream csv;
  ledger.WriteCsv(csv);
  EXPECT_TRUE(Contains(csv.str(),
                       "predicted_at,target_interval,class_id,is_oltp,"
                       "predicted,observed,resolved,residual,model_slope"));
  EXPECT_TRUE(Contains(csv.str(), "5,6,1,0,0.75,0.5,1,-0.25,0"));
  EXPECT_TRUE(Contains(csv.str(), "6,7,1,0,0.8,-1,0,0,0"));
  std::ostringstream jsonl;
  ledger.WriteJsonl(jsonl);
  EXPECT_TRUE(Contains(jsonl.str(), "\"resolved\":true"));
  EXPECT_TRUE(Contains(jsonl.str(), "\"resolved\":false"));
  EXPECT_TRUE(Contains(jsonl.str(), "\"predicted\":0.75"));
}

// ---------------------------------------------------------------------
// SloMonitor

TEST(SloMonitorTest, RollingAndOverallAttainment) {
  SloMonitor::Options options;
  options.window = 4;
  SloMonitor slo(options);
  EXPECT_DOUBLE_EQ(slo.RollingAttainment(1), 0.0);
  // 6 intervals: miss, miss, meet, meet, meet, meet.
  const double ratios[] = {0.8, 0.9, 1.0, 1.2, 1.1, 1.0};
  for (int i = 0; i < 6; ++i) {
    slo.Observe(1, static_cast<uint64_t>(i + 1), 60.0 * (i + 1),
                ratios[i]);
  }
  EXPECT_EQ(slo.intervals_observed(1), 6u);
  // Overall: 4 of 6 met.
  EXPECT_NEAR(slo.OverallAttainment(1), 4.0 / 6.0, 1e-12);
  // Rolling window of 4: the last four all met.
  EXPECT_DOUBLE_EQ(slo.RollingAttainment(1), 1.0);
  // The attainment series has one point per observation.
  EXPECT_EQ(slo.AttainmentSeries(1).size(), 6u);
}

TEST(SloMonitorTest, AttainmentSeriesKeepsTheLatestCapacity) {
  constexpr size_t kExtra = 5;
  SloMonitor slo;
  const size_t total = SloMonitor::kSeriesCapacity + kExtra;
  for (size_t i = 0; i < total; ++i) {
    slo.Observe(1, i + 1, 60.0 * static_cast<double>(i + 1),
                i % 2 == 0 ? 1.0 : 0.5);
  }
  const std::vector<std::pair<double, double>> series =
      slo.AttainmentSeries(1);
  ASSERT_EQ(series.size(), SloMonitor::kSeriesCapacity);
  // The oldest kExtra points were dropped; the newest is the last one.
  EXPECT_DOUBLE_EQ(series.front().first, 60.0 * (kExtra + 1));
  EXPECT_DOUBLE_EQ(series.back().first, 60.0 * static_cast<double>(total));
  // Counts and the rolling value still cover every observation.
  EXPECT_EQ(slo.intervals_observed(1), total);
  EXPECT_DOUBLE_EQ(slo.RollingAttainment(1), series.back().second);
}

TEST(SloMonitorTest, ViolationEventsTrackRunsAndDepth) {
  SloMonitor slo;
  // meet, miss, miss(worse), meet, miss -> one closed 2-interval event
  // and one open single-interval event.
  slo.Observe(1, 1, 60.0, 1.1);
  slo.Observe(1, 2, 120.0, 0.9);
  slo.Observe(1, 3, 180.0, 0.7);
  slo.Observe(1, 4, 240.0, 1.0);
  slo.Observe(1, 5, 300.0, 0.95);
  std::vector<SloViolationEvent> events = slo.EventsFor(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_interval, 2u);
  EXPECT_EQ(events[0].end_interval, 3u);
  EXPECT_EQ(events[0].intervals, 2);
  EXPECT_DOUBLE_EQ(events[0].worst_ratio, 0.7);
  EXPECT_DOUBLE_EQ(events[0].duration, 60.0);
  EXPECT_FALSE(events[0].open);
  EXPECT_TRUE(events[1].open);
  EXPECT_EQ(events[1].intervals, 1);
  // Events are per class: class 2 has none.
  EXPECT_TRUE(slo.EventsFor(2).empty());
}

TEST(SloMonitorTest, ClosedEventsKeepTheLatestCapacity) {
  constexpr size_t kExtra = 3;
  SloMonitor slo;
  // miss, meet pairs: one closed single-interval event per pair, then a
  // final miss leaves one open event.
  const size_t closed = SloMonitor::kSeriesCapacity + kExtra;
  uint64_t interval = 0;
  auto observe = [&](double ratio) {
    ++interval;
    slo.Observe(1, interval, 60.0 * static_cast<double>(interval), ratio);
  };
  for (size_t i = 0; i < closed; ++i) {
    observe(0.5);
    observe(1.0);
  }
  observe(0.5);

  const std::vector<SloViolationEvent> events = slo.Events();
  ASSERT_EQ(events.size(), SloMonitor::kSeriesCapacity + 1);
  // The oldest kExtra closed events were dropped.
  EXPECT_EQ(events.front().start_interval, 2 * kExtra + 1);
  EXPECT_TRUE(events.back().open);
  EXPECT_EQ(events.back().start_interval, interval);
  EXPECT_EQ(slo.events_dropped(), kExtra);
  // The per-class total still counts every event.
  EXPECT_EQ(slo.EventCount(1), closed + 1);
  EXPECT_EQ(slo.EventCount(2), 0u);
}

TEST(SloMonitorTest, EventJsonCarriesTypeTag) {
  SloMonitor slo;
  slo.Observe(4, 1, 60.0, 0.5);
  slo.Observe(4, 2, 120.0, 1.5);
  std::ostringstream out;
  slo.WriteEventsJsonl(out);
  const std::string line = out.str();
  EXPECT_TRUE(Contains(line, "\"type\":\"slo_violation\""));
  EXPECT_TRUE(Contains(line, "\"class_id\":4"));
  EXPECT_TRUE(Contains(line, "\"worst_ratio\":0.5"));
  EXPECT_TRUE(Contains(line, "\"open\":false"));
}

// ---------------------------------------------------------------------
// Telemetry history: the live window vs. KeepFullHistory()

/// The four per-interval stores at their stand-alone default capacity,
/// kFullHistoryIntervals.
struct StandaloneStores {
  PlannerAuditLog audit;
  TimeSeriesRecorder recorder;
  PredictionLedger ledger;
  SloMonitor slo;
};

/// Writes `intervals` planner cycles for classes 1 (OLAP) and 3 (OLTP)
/// in RecordPlanAudit's order: resolve last cycle's prediction, observe
/// attainment, audit, time-series row, predict the next cycle. Odd
/// intervals miss the SLO and even ones meet it, so each class closes
/// one violation event per two intervals.
template <typename Stores>
void FeedIntervals(Stores* stores, uint64_t intervals) {
  for (uint64_t k = 1; k <= intervals; ++k) {
    const double t = 60.0 * static_cast<double>(k);
    const double ratio = k % 2 == 1 ? 0.8 : 1.2;
    for (int class_id : {1, 3}) {
      const double measured = 0.5 + 0.001 * static_cast<double>(k);
      stores->ledger.Observe(k, class_id, measured);
      stores->slo.Observe(class_id, k, t, ratio);
    }
    stores->audit.Add(MakeAuditRecord(k));
    stores->recorder.Append(MakeIntervalRow(k));
    for (int class_id : {1, 3}) {
      stores->ledger.Predict(k, class_id, class_id == 3,
                             0.5 + 0.0011 * static_cast<double>(k + 1),
                             1e-6 * static_cast<double>(k));
    }
  }
}

template <typename Stores>
std::string AuditJsonl(const Stores& stores) {
  std::ostringstream out;
  stores.audit.WriteJsonl(out);
  return out.str();
}

constexpr uint64_t kHistoryTestIntervals = 1000;

TEST(TelemetryHistoryTest, LiveWindowKeepsLatestIntervalsWithExactCounters) {
  constexpr uint64_t kIntervals = kHistoryTestIntervals;
  constexpr size_t kWindow = kLiveHistoryIntervals;
  Telemetry telemetry;
  EXPECT_FALSE(telemetry.keeps_full_history());
  FeedIntervals(&telemetry, kIntervals);

  EXPECT_EQ(telemetry.audit.size(), kWindow);
  EXPECT_EQ(telemetry.audit.dropped(), kIntervals - kWindow);
  EXPECT_EQ(telemetry.audit.records().front().interval,
            kIntervals - kWindow + 1);
  EXPECT_EQ(telemetry.audit.records().back().interval, kIntervals);

  EXPECT_EQ(telemetry.recorder.size(), kWindow);
  EXPECT_EQ(telemetry.recorder.dropped(), kIntervals - kWindow);
  EXPECT_EQ(telemetry.recorder.Rows().back().interval, kIntervals);

  // Two predictions per interval; the window counts predictions.
  EXPECT_EQ(telemetry.ledger.size(), kWindow);
  EXPECT_EQ(telemetry.ledger.dropped(), 2 * kIntervals - kWindow);
  EXPECT_EQ(telemetry.ledger.Records().back().predicted_at, kIntervals);

  for (int class_id : {1, 3}) {
    EXPECT_EQ(telemetry.ledger.StatsFor(class_id).count, kWindow);
    EXPECT_EQ(telemetry.slo.AttainmentSeries(class_id).size(), kWindow);
    // Exact over every interval, not just the kept ones.
    EXPECT_EQ(telemetry.slo.intervals_observed(class_id), kIntervals);
    EXPECT_DOUBLE_EQ(telemetry.slo.OverallAttainment(class_id), 0.5);
    EXPECT_EQ(telemetry.slo.EventCount(class_id), kIntervals / 2);
  }
  // Both classes close kIntervals / 2 events; the window keeps the last.
  EXPECT_EQ(telemetry.slo.Events().size(), kWindow);
  EXPECT_EQ(telemetry.slo.events_dropped(), kIntervals - kWindow);
  EXPECT_EQ(telemetry.slo.Events().back().end_interval, kIntervals - 1);
}

TEST(TelemetryHistoryTest, FullHistoryMatchesStandaloneStores) {
  constexpr uint64_t kIntervals = kHistoryTestIntervals;
  Telemetry telemetry;
  telemetry.KeepFullHistory();
  EXPECT_TRUE(telemetry.keeps_full_history());
  FeedIntervals(&telemetry, kIntervals);
  StandaloneStores before;
  FeedIntervals(&before, kIntervals);

  EXPECT_EQ(telemetry.audit.size(), kIntervals);
  EXPECT_EQ(telemetry.audit.dropped(), 0u);
  EXPECT_EQ(telemetry.recorder.size(), kIntervals);
  EXPECT_EQ(telemetry.recorder.dropped(), 0u);
  EXPECT_EQ(telemetry.ledger.size(), 2 * kIntervals);
  EXPECT_EQ(telemetry.ledger.dropped(), 0u);
  EXPECT_EQ(telemetry.slo.Events().size(), kIntervals);
  EXPECT_EQ(telemetry.slo.events_dropped(), 0u);

  // Every export is byte-identical to the stand-alone stores'.
  EXPECT_EQ(AuditJsonl(telemetry), AuditJsonl(before));
  std::ostringstream rows;
  std::ostringstream rows_before;
  telemetry.recorder.WriteCsv(rows);
  before.recorder.WriteCsv(rows_before);
  EXPECT_EQ(rows.str(), rows_before.str());
  std::ostringstream predictions;
  std::ostringstream predictions_before;
  telemetry.ledger.WriteCsv(predictions);
  before.ledger.WriteCsv(predictions_before);
  EXPECT_EQ(predictions.str(), predictions_before.str());
  std::ostringstream events;
  std::ostringstream events_before;
  telemetry.slo.WriteEventsJsonl(events);
  before.slo.WriteEventsJsonl(events_before);
  EXPECT_EQ(events.str(), events_before.str());
  for (int class_id : {1, 3}) {
    EXPECT_EQ(telemetry.slo.AttainmentSeries(class_id),
              before.slo.AttainmentSeries(class_id));
    const ResidualStats stats = telemetry.ledger.StatsFor(class_id);
    const ResidualStats stats_before = before.ledger.StatsFor(class_id);
    EXPECT_EQ(stats.count, kIntervals - 1);
    EXPECT_EQ(stats.count, stats_before.count);
    EXPECT_EQ(stats.mean_abs_error, stats_before.mean_abs_error);
    EXPECT_EQ(stats.p95_abs_error, stats_before.p95_abs_error);
    EXPECT_EQ(stats.bias, stats_before.bias);
  }

  // The live window is the tail of the full history.
  Telemetry live;
  FeedIntervals(&live, kIntervals);
  const std::string full = AuditJsonl(telemetry);
  size_t tail = full.size();
  for (size_t line = 0; line <= kLiveHistoryIntervals; ++line) {
    tail = full.rfind('\n', tail - 1);
  }
  EXPECT_EQ(AuditJsonl(live), full.substr(tail + 1));
}

TEST(TelemetryHistoryTest, ShrinkingCapacityCountsTheDroppedEntries) {
  StandaloneStores stores;
  FeedIntervals(&stores, 10);
  stores.audit.set_capacity(4);
  stores.recorder.set_capacity(4);
  stores.ledger.set_capacity(4);
  stores.slo.set_capacity(4);
  EXPECT_EQ(stores.audit.size(), 4u);
  EXPECT_EQ(stores.audit.dropped(), 6u);
  EXPECT_EQ(stores.audit.records().front().interval, 7u);
  EXPECT_EQ(stores.recorder.size(), 4u);
  EXPECT_EQ(stores.recorder.dropped(), 6u);
  EXPECT_EQ(stores.ledger.size(), 4u);
  EXPECT_EQ(stores.ledger.dropped(), 16u);
  EXPECT_EQ(stores.ledger.StatsFor(1).count, 4u);
  EXPECT_EQ(stores.slo.AttainmentSeries(1).size(), 4u);
  EXPECT_EQ(stores.slo.Events().size(), 4u);
  EXPECT_EQ(stores.slo.events_dropped(), 6u);
  EXPECT_EQ(stores.slo.EventCount(1), 5u);
  // The newest pending predictions survived and still resolve.
  stores.ledger.Observe(11, 1, 0.5);
  stores.ledger.Observe(11, 3, 0.5);
  EXPECT_EQ(stores.ledger.StatsFor(3).count, 4u);
  EXPECT_TRUE(stores.ledger.Records().back().resolved);
}

// ---------------------------------------------------------------------
// SVG chart rendering

TEST(SvgTest, HtmlEscapeCoversMarkupCharacters) {
  EXPECT_EQ(HtmlEscape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(HtmlEscape("plain"), "plain");
}

TEST(SvgTest, RenderLineChartEmitsSeriesAndReferenceLines) {
  SvgChartSpec spec;
  spec.x_label = "time (min)";
  spec.y_label = "velocity";
  SvgSeries series;
  series.label = "class 1";
  series.xs = {0.0, 1.0, 2.0, 3.0};
  series.ys = {0.2, 0.4, 0.6, 0.8};
  series.color_slot = 1;
  spec.series.push_back(series);
  SvgReferenceLine goal;
  goal.label = "goal";
  goal.y = 0.7;
  goal.color_slot = 1;
  spec.reference_lines.push_back(goal);
  const std::string svg = RenderLineChart(spec);
  EXPECT_TRUE(Contains(svg, "<svg"));
  EXPECT_TRUE(Contains(svg, "</svg>"));
  EXPECT_TRUE(Contains(svg, "<polyline"));
  EXPECT_TRUE(Contains(svg, "var(--series-1)"));
  EXPECT_TRUE(Contains(svg, "class 1"));
  EXPECT_TRUE(Contains(svg, "velocity"));
  // The goal reference line renders dashed.
  EXPECT_TRUE(Contains(svg, "stroke-dasharray"));
  // Sparse series get hoverable circle markers with native tooltips.
  EXPECT_TRUE(Contains(svg, "<circle"));
  EXPECT_TRUE(Contains(svg, "<title>"));
}

TEST(SvgTest, EmptySpecStillRendersAValidFrame) {
  SvgChartSpec spec;
  const std::string svg = RenderLineChart(spec);
  EXPECT_TRUE(Contains(svg, "<svg"));
  EXPECT_TRUE(Contains(svg, "</svg>"));
}

TEST(SvgTest, DenseSeriesSkipsMarkers) {
  SvgChartSpec spec;
  SvgSeries series;
  series.label = "dense";
  for (int i = 0; i < 200; ++i) {
    series.xs.push_back(static_cast<double>(i));
    series.ys.push_back(std::sin(0.1 * i));
  }
  spec.series.push_back(series);
  spec.max_marker_points = 96;
  const std::string svg = RenderLineChart(spec);
  EXPECT_TRUE(Contains(svg, "<polyline"));
  EXPECT_FALSE(Contains(svg, "<circle"));
}

// ---------------------------------------------------------------------
// End-to-end: the scheduler's audit trail vs. the live control loop

workload::Query MakeOlapQuery(uint64_t id, int class_id, double cost) {
  workload::Query query;
  query.id = id;
  query.class_id = class_id;
  query.type = workload::WorkloadType::kOlap;
  query.cost_timerons = cost;
  query.job.query_id = id;
  query.job.cpu_seconds = 0.1;
  query.job.logical_pages = 2000.0;
  query.job.hit_ratio = 0.3;
  return query;
}

workload::Query MakeOltpQuery(uint64_t id, int client_id) {
  workload::Query query;
  query.id = id;
  query.class_id = 3;
  query.client_id = client_id;
  query.type = workload::WorkloadType::kOltp;
  query.cost_timerons = 20.0;
  query.job.query_id = id;
  query.job.database = engine::DatabaseId::kOltp;
  query.job.cpu_seconds = 0.01;
  query.job.logical_pages = 50.0;
  query.job.hit_ratio = 0.9;
  return query;
}

class SchedulerAuditTest : public ::testing::Test {
 protected:
  SchedulerAuditTest()
      : engine_(&simulator_, engine::EngineConfig(), Rng(5)),
        classes_(sched::MakePaperClasses()) {}

  sim::Simulator simulator_;
  engine::ExecutionEngine engine_;
  sched::ServiceClassSet classes_;
};

TEST_F(SchedulerAuditTest, AuditLimitsExactlyMatchDispatcherEnforcement) {
  Telemetry telemetry;
  sched::QuerySchedulerConfig config;
  config.system_cost_limit = 300000.0;
  config.control_interval_seconds = 50.0;
  config.telemetry = &telemetry;
  sched::QueryScheduler qs(&simulator_, &engine_, &classes_, config);
  qs.Start(400.0);
  for (int i = 0; i < 8; ++i) {
    qs.Submit(MakeOlapQuery(100 + i, 1 + i % 2, 30000.0),
              [](const workload::QueryRecord&) {});
    qs.Submit(MakeOltpQuery(200 + i, i), [](const workload::QueryRecord&) {});
  }
  simulator_.RunUntil(400.0);

  // Exactly one audit record per planning cycle, numbered sequentially.
  ASSERT_EQ(telemetry.audit.size(), qs.planning_cycles());
  ASSERT_EQ(telemetry.audit.size(), 8u);
  uint64_t expected = 1;
  for (const PlannerAuditRecord& record : telemetry.audit.records()) {
    EXPECT_EQ(record.interval, expected);
    ++expected;
  }

  // Every audited enforced_limit is bit-for-bit the limit appended to
  // the scheduler's history and handed to the Dispatcher that interval.
  for (const sched::ServiceClassSpec& spec : classes_.classes()) {
    const sim::TimeSeries& history = qs.limit_history().at(spec.class_id);
    ASSERT_EQ(history.size(), telemetry.audit.size());
    size_t i = 0;
    for (const PlannerAuditRecord& record : telemetry.audit.records()) {
      const PlannerAuditClass* cls = nullptr;
      for (const PlannerAuditClass& candidate : record.classes) {
        if (candidate.class_id == spec.class_id) cls = &candidate;
      }
      ASSERT_NE(cls, nullptr);
      EXPECT_EQ(cls->enforced_limit, history.at(i).value);
      EXPECT_EQ(record.sim_time, history.at(i).time);
      ++i;
    }
    // The final record is the plan the dispatcher is running right now.
    const PlannerAuditRecord& last = telemetry.audit.records().back();
    for (const PlannerAuditClass& cls : last.classes) {
      if (cls.class_id != spec.class_id) continue;
      EXPECT_EQ(cls.enforced_limit,
                qs.dispatcher().plan().LimitFor(spec.class_id));
    }
  }

  // Each interval's enforced limits sum to the system cost limit.
  for (const PlannerAuditRecord& record : telemetry.audit.records()) {
    double sum = 0.0;
    for (const PlannerAuditClass& cls : record.classes) {
      sum += cls.enforced_limit;
    }
    EXPECT_NEAR(sum, 300000.0, 1.0);
  }

  // The cost-limit gauges track the final plan too.
  for (const sched::ServiceClassSpec& spec : classes_.classes()) {
    Gauge* gauge = telemetry.registry.GetGauge(
        "qsched_cost_limit_timerons",
        "class=\"" + std::to_string(spec.class_id) + "\"");
    EXPECT_EQ(gauge->value(),
              qs.dispatcher().plan().LimitFor(spec.class_id));
  }
}

TEST_F(SchedulerAuditTest, DerivedAnalyticsStayConsistentWithAudit) {
  Telemetry telemetry;
  sched::QuerySchedulerConfig config;
  config.system_cost_limit = 300000.0;
  config.control_interval_seconds = 50.0;
  config.telemetry = &telemetry;
  sched::QueryScheduler qs(&simulator_, &engine_, &classes_, config);
  qs.Start(400.0);
  for (int i = 0; i < 8; ++i) {
    qs.Submit(MakeOlapQuery(100 + i, 1 + i % 2, 30000.0),
              [](const workload::QueryRecord&) {});
    qs.Submit(MakeOltpQuery(200 + i, i), [](const workload::QueryRecord&) {});
  }
  simulator_.RunUntil(400.0);

  const size_t cycles = telemetry.audit.size();
  ASSERT_GT(cycles, 2u);
  const size_t num_classes = classes_.classes().size();

  // One recorder row per audit record, and every recorder column is
  // bit-for-bit the value the matching audit record carries.
  ASSERT_EQ(telemetry.recorder.size(), cycles);
  std::vector<IntervalRow> rows = telemetry.recorder.Rows();
  size_t i = 0;
  for (const PlannerAuditRecord& record : telemetry.audit.records()) {
    const IntervalRow& row = rows[i++];
    EXPECT_EQ(row.interval, record.interval);
    EXPECT_EQ(row.sim_time, record.sim_time);
    ASSERT_EQ(row.classes.size(), record.classes.size());
    for (size_t c = 0; c < row.classes.size(); ++c) {
      EXPECT_EQ(row.classes[c].class_id, record.classes[c].class_id);
      EXPECT_EQ(row.classes[c].cost_limit,
                record.classes[c].enforced_limit);
      EXPECT_EQ(row.classes[c].measured,
                record.classes[c].measured_smoothed);
      EXPECT_EQ(row.classes[c].goal_ratio, record.classes[c].goal_ratio);
    }
  }

  // One prediction per class per cycle; the final cycle's are pending.
  ASSERT_EQ(telemetry.ledger.size(), cycles * num_classes);
  for (const PredictionRecord& pred : telemetry.ledger.Records()) {
    if (!pred.resolved) {
      EXPECT_EQ(pred.predicted_at, static_cast<uint64_t>(cycles));
      continue;
    }
    // The resolved observation is bit-identical to the smoothed
    // measurement the audit recorded at the target interval — and so
    // the %.9g JSONL renderings of the two artifacts agree exactly.
    const PlannerAuditRecord& target =
        telemetry.audit.records()[pred.target_interval - 1];
    ASSERT_EQ(target.interval, pred.target_interval);
    const PlannerAuditClass* cls = nullptr;
    for (const PlannerAuditClass& candidate : target.classes) {
      if (candidate.class_id == pred.class_id) cls = &candidate;
    }
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(pred.observed, cls->measured_smoothed);
    EXPECT_EQ(StrPrintf("%.9g", pred.observed),
              StrPrintf("%.9g", cls->measured_smoothed));
  }

  // The SLO monitor saw every (class, interval) pair the planner ran.
  for (const sched::ServiceClassSpec& spec : classes_.classes()) {
    EXPECT_EQ(telemetry.slo.intervals_observed(spec.class_id),
              static_cast<uint64_t>(cycles));
    const double rolling = telemetry.slo.RollingAttainment(spec.class_id);
    EXPECT_GE(rolling, 0.0);
    EXPECT_LE(rolling, 1.0);
    // The attainment gauge published the monitor's rolling value.
    Gauge* gauge = telemetry.registry.GetGauge(
        "qsched_slo_attainment",
        "class=\"" + std::to_string(spec.class_id) + "\"");
    EXPECT_EQ(gauge->value(), rolling);
  }

  // Solver wall time is host wall clock: positive, sub-second sane.
  for (const IntervalRow& row : rows) {
    EXPECT_GT(row.solver_wall_seconds, 0.0);
    EXPECT_LT(row.solver_wall_seconds, 10.0);
  }
}

TEST_F(SchedulerAuditTest, SpansCoverInterceptedAndBypassedQueries) {
  Telemetry telemetry;
  telemetry.spans.Enable();
  // The engine is shared infrastructure: the harness (not the
  // scheduler) owns its telemetry wiring.
  engine_.set_telemetry(&telemetry);
  sched::QuerySchedulerConfig config;
  config.telemetry = &telemetry;
  sched::QueryScheduler qs(&simulator_, &engine_, &classes_, config);

  qs.Submit(MakeOlapQuery(1, 1, 1000.0), [](const workload::QueryRecord&) {});
  qs.Submit(MakeOltpQuery(2, 0), [](const workload::QueryRecord&) {});
  simulator_.RunToCompletion();

  EXPECT_EQ(telemetry.spans.closed_total(), 2u);
  EXPECT_EQ(telemetry.spans.open_count(), 0u);
  const QuerySpan* olap = nullptr;
  const QuerySpan* oltp = nullptr;
  for (const QuerySpan& span : telemetry.spans.closed()) {
    if (span.query_id == 1) olap = &span;
    if (span.query_id == 2) oltp = &span;
  }
  ASSERT_NE(olap, nullptr);
  ASSERT_NE(oltp, nullptr);
  // The OLAP query went through the full intercept pipeline.
  EXPECT_FALSE(olap->is_oltp);
  EXPECT_GE(olap->enqueue_time, 0.35);  // after interception delay
  EXPECT_GE(olap->dispatch_time, olap->enqueue_time);
  EXPECT_GE(olap->end_time, olap->exec_start_time);
  // The OLTP query bypassed interception: no enqueue/dispatch stamps.
  EXPECT_TRUE(oltp->is_oltp);
  EXPECT_DOUBLE_EQ(oltp->enqueue_time, -1.0);
  EXPECT_DOUBLE_EQ(oltp->dispatch_time, -1.0);
  EXPECT_TRUE(oltp->Closed());
  EXPECT_FALSE(oltp->cancelled);

  // The registry saw both paths.
  EXPECT_EQ(
      telemetry.registry.GetCounter("qsched_qp_intercepted_total")->value(),
      1u);
  EXPECT_EQ(
      telemetry.registry.GetCounter("qsched_qp_bypassed_total")->value(),
      1u);
  EXPECT_EQ(
      telemetry.registry.GetCounter("qsched_engine_queries_completed_total")
          ->value(),
      2u);
}

TEST_F(SchedulerAuditTest, CancelledQueryClosesSpanAsCancelled) {
  Telemetry telemetry;
  telemetry.spans.Enable();
  sched::QuerySchedulerConfig config;
  config.telemetry = &telemetry;
  sched::QueryScheduler qs(&simulator_, &engine_, &classes_, config);

  // Saturate class 1 so a second query stays queued, then cancel it.
  qs.Submit(MakeOlapQuery(1, 1, 90000.0), [](const workload::QueryRecord&) {});
  qs.Submit(MakeOlapQuery(2, 1, 90000.0), [](const workload::QueryRecord&) {});
  simulator_.RunUntil(1.0);  // past the interception delay
  if (qs.dispatcher().QueuedFor(1) > 0) {
    qs.interceptor().CancelQueued(2);
  }
  simulator_.RunToCompletion();

  bool found_cancelled = false;
  for (const QuerySpan& span : telemetry.spans.closed()) {
    if (span.query_id == 2 && span.cancelled) found_cancelled = true;
  }
  // Whichever way the race went, every span must be closed.
  EXPECT_EQ(telemetry.spans.open_count(), 0u);
  if (qs.interceptor().cancelled_total() > 0) {
    EXPECT_TRUE(found_cancelled);
  }
}

// The planner reads nothing back from the telemetry stores: over 1 000
// control intervals of a steady OLAP + OLTP trickle, the plans are the
// same with no telemetry, with the live window and with full history,
// while the windowed stores stay at kLiveHistoryIntervals.
TEST(SchedulerHistoryTest, LiveWindowLeavesThePlansUnchanged) {
  constexpr uint64_t kCycles = 1000;
  constexpr double kInterval = 10.0;
  const double horizon = kInterval * static_cast<double>(kCycles);
  auto run = [&](Telemetry* telemetry, uint64_t* cycles) {
    sim::Simulator simulator;
    engine::ExecutionEngine engine(&simulator, engine::EngineConfig(),
                                   Rng(5));
    sched::ServiceClassSet classes = sched::MakePaperClasses();
    sched::QuerySchedulerConfig config;
    config.control_interval_seconds = kInterval;
    config.telemetry = telemetry;
    sched::QueryScheduler qs(&simulator, &engine, &classes, config);
    qs.Start(horizon);
    uint64_t id = 0;
    for (double t = 1.0; t < horizon; t += 2.0) {
      const bool olap = id % 10 == 0;
      workload::Query query =
          olap ? MakeOlapQuery(id, 1 + static_cast<int>(id / 10) % 2,
                               30000.0)
               : MakeOltpQuery(id, static_cast<int>(id % 8));
      ++id;
      simulator.ScheduleAt(t, [&qs, query] {
        qs.Submit(query, [](const workload::QueryRecord&) {});
      });
    }
    simulator.RunUntil(horizon);
    *cycles = qs.planning_cycles();
    return qs.limit_history();
  };

  uint64_t cycles_off = 0;
  uint64_t cycles_live = 0;
  uint64_t cycles_full = 0;
  Telemetry live;
  Telemetry full;
  full.KeepFullHistory();
  const auto history_off = run(nullptr, &cycles_off);
  const auto history_live = run(&live, &cycles_live);
  const auto history_full = run(&full, &cycles_full);

  EXPECT_EQ(cycles_off, kCycles);
  EXPECT_EQ(cycles_live, kCycles);
  EXPECT_EQ(cycles_full, kCycles);
  ASSERT_EQ(history_live.size(), history_off.size());
  ASSERT_EQ(history_full.size(), history_off.size());
  for (const auto& [class_id, series] : history_off) {
    ASSERT_EQ(series.size(), kCycles);
    const sim::TimeSeries& with_live = history_live.at(class_id);
    const sim::TimeSeries& with_full = history_full.at(class_id);
    ASSERT_EQ(with_live.size(), kCycles);
    ASSERT_EQ(with_full.size(), kCycles);
    for (size_t i = 0; i < kCycles; ++i) {
      EXPECT_EQ(with_live.at(i).value, series.at(i).value) << i;
      EXPECT_EQ(with_full.at(i).value, series.at(i).value) << i;
    }
  }

  EXPECT_EQ(live.audit.size(), kLiveHistoryIntervals);
  EXPECT_EQ(live.audit.size() + live.audit.dropped(), kCycles);
  EXPECT_EQ(live.recorder.size(), kLiveHistoryIntervals);
  EXPECT_LE(live.ledger.size(), kLiveHistoryIntervals);
  EXPECT_EQ(full.audit.size(), kCycles);
  EXPECT_EQ(full.recorder.size(), kCycles);
  for (int class_id : {1, 2, 3}) {
    EXPECT_EQ(live.slo.AttainmentSeries(class_id).size(),
              kLiveHistoryIntervals);
    EXPECT_EQ(live.slo.intervals_observed(class_id), kCycles);
    EXPECT_EQ(live.slo.EventCount(class_id),
              full.slo.EventCount(class_id));
    EXPECT_EQ(live.slo.OverallAttainment(class_id),
              full.slo.OverallAttainment(class_id));
  }
  // The live window holds the last cycles' records, bit for bit.
  EXPECT_EQ(ToJson(live.audit.records().back()),
            ToJson(full.audit.records().back()));
}

}  // namespace
}  // namespace qsched::obs
