// Component micro-benchmarks (google-benchmark): the hot paths of the
// simulator, the control plane and the replay trace codec. These bound
// how much simulated load the harness can drive, how expensive one
// planning cycle is and how fast a what-if run can load its trace.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/resources.h"
#include "optimizer/cost_model.h"
#include "replay/trace_format.h"
#include "scheduler/solver.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace {

using namespace qsched;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.ScheduleAt(static_cast<double>(i % 97), [&fired] {
        ++fired;
      });
    }
    simulator.RunToCompletion();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_ProcessorSharing(benchmark::State& state) {
  int64_t jobs = state.range(0);
  for (auto _ : state) {
    sim::Simulator simulator;
    engine::ProcessorSharingPool pool(&simulator, 2);
    for (int64_t i = 0; i < jobs; ++i) {
      pool.Submit(0.01 * (1 + i % 7), [] {});
    }
    simulator.RunToCompletion();
    benchmark::DoNotOptimize(pool.busy_core_seconds());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_ProcessorSharing)->Arg(16)->Arg(64)->Arg(256);

void BM_TpchCostEstimate(benchmark::State& state) {
  workload::TpchWorkloadParams params;
  workload::TpchWorkload workload(params, 7);
  for (auto _ : state) {
    workload::Query q = workload.Next();
    benchmark::DoNotOptimize(q.cost_timerons);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpchCostEstimate);

void BM_TpccCostEstimate(benchmark::State& state) {
  workload::TpccWorkloadParams params;
  workload::TpccWorkload workload(params, 9);
  for (auto _ : state) {
    workload::Query q = workload.Next();
    benchmark::DoNotOptimize(q.cost_timerons);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccCostEstimate);

void BM_SolverSolve(benchmark::State& state) {
  sched::ServiceClassSet classes = sched::MakePaperClasses();
  sched::OltpResponseModel model;
  sched::SolverInput input;
  input.total_cost_limit = 300000;
  input.oltp_model = &model;
  input.classes = {
      {classes.Find(1), 0.35, 90000, false},
      {classes.Find(2), 0.55, 120000, false},
      {classes.Find(3), 0.28, 90000, false},
  };
  sched::PerformanceSolver solver;
  for (auto _ : state) {
    sched::SchedulingPlan plan = solver.Solve(input);
    benchmark::DoNotOptimize(plan.predicted_utility);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverSolve);

void BM_RngDraws(benchmark::State& state) {
  Rng rng(1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.BoundedPareto(1.2, 1.0, 1e6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

void BM_HistogramQuantile(benchmark::State& state) {
  sim::Histogram histogram(0.001, 1000.0);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    histogram.Add(rng.LogNormal(0.0, 2.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.Quantile(0.95));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> buffer(64 * 1024);
  Rng rng(3);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextU32());
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay::Crc32(buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32);

/// Writes 48k records (the whatif_des trace size) through TraceWriter and
/// reads them back with ReadTraceFile.
void BM_TraceWriteRead(benchmark::State& state) {
  constexpr size_t kRecords = 48000;
  std::vector<replay::TraceRecord> records(kRecords);
  Rng rng(4);
  uint64_t arrival = 0;
  for (size_t i = 0; i < kRecords; ++i) {
    arrival += rng.NextU32() % 2000000;
    records[i].arrival_ns = arrival;
    records[i].trace_id = i + 1;
    records[i].cost_timerons = static_cast<double>(rng.NextU32() % 100000);
    records[i].class_id = static_cast<uint16_t>(1 + rng.NextU32() % 3);
    records[i].template_id = static_cast<uint16_t>(rng.NextU32() % 18);
  }
  replay::TraceWriterOptions options;
  options.path = (std::filesystem::temp_directory_path() /
                  "qsched_micro_trace.qsrt")
                     .string();
  for (auto _ : state) {
    auto writer = replay::TraceWriter::Open(options).ValueOrDie();
    for (const replay::TraceRecord& record : records) {
      if (!writer->Append(record).ok()) state.SkipWithError("append");
    }
    if (!writer->Close().ok()) state.SkipWithError("close");
    Result<replay::TraceReadResult> read = replay::ReadTraceFile(options.path);
    if (!read.ok() || read.ValueOrDie().records.size() != kRecords) {
      state.SkipWithError("read back");
    }
    benchmark::DoNotOptimize(read);
  }
  std::remove(options.path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRecords));
}
BENCHMARK(BM_TraceWriteRead)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
