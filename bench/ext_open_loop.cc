// Extension: open-loop (Poisson) arrivals vs. the paper's closed-loop
// clients, under no-control admission. Closed loops self-throttle — each
// client has one query in flight — so overload shows up as response
// inflation bounded by the population. Open loops keep arriving; past
// saturation the queue (and response) grows without bound. The contrast
// matters when interpreting any admission-control result.
#include <cstdio>
#include <memory>

#include "harness/experiment.h"
#include "metrics/period_collector.h"
#include "workload/client.h"
#include "workload/open_loop.h"

using namespace qsched;

namespace {

void RunOpenLoop(double per_client_rate) {
  harness::ExperimentConfig config;
  sim::Simulator simulator;
  Rng master(config.seed);
  engine::ExecutionEngine engine(&simulator, config.engine, master.Fork(1));

  workload::WorkloadSchedule schedule(600.0, {1, 3});
  schedule.AddPeriod({6, 20});
  qp::QpStaticConfig qp_config =
      qp::QpStaticConfig::NoControl(config.system_cost_limit);
  qp::QpController controller(&simulator, &engine, config.interceptor,
                              qp_config);

  workload::TpchWorkload olap_gen(config.tpch, 31);
  workload::TpccWorkload oltp_gen(config.tpcc, 32);
  metrics::PeriodCollector collector(&schedule);
  auto sink = [&collector](const workload::QueryRecord& r) {
    collector.Add(r);
  };

  // OLAP arrives open-loop; OLTP stays closed-loop (interactive users).
  workload::OpenLoopSource olap(&simulator, &schedule, 1, &olap_gen,
                                &controller, sink, per_client_rate, 33);
  workload::ClientPool oltp(&simulator, &schedule, 3, &oltp_gen,
                            &controller, sink);
  olap.Start();
  oltp.Start();
  simulator.RunUntil(schedule.total_seconds());

  const metrics::ClassOutcome& olap_cell = collector.Get(0, 1);
  const metrics::ClassOutcome& oltp_cell = collector.Get(0, 3);
  std::printf("%15.4f  %9llu  %11llu  %9.3f  %12.3f  %10.3f\n",
              per_client_rate * 6.0,
              static_cast<unsigned long long>(olap.queries_submitted()),
              static_cast<unsigned long long>(olap.queries_outstanding()),
              olap_cell.MeanVelocity(), olap_cell.MeanResponse(),
              oltp_cell.MeanResponse());
}

}  // namespace

int main() {
  std::printf("=== Open-loop OLAP arrivals under no-control (600 s, 6 "
              "virtual clients, 20 OLTP clients) ===\n");
  std::printf("olap_arrivals/s  submitted  outstanding  olap_vel  "
              "olap_resp_s  oltp_resp\n");
  // Closed-loop equivalent throughput is ~0.1/s; sweep across it.
  for (double rate : {0.005, 0.01, 0.02, 0.03, 0.05}) {
    RunOpenLoop(rate);
  }
  std::printf("(past ~0.1 arrivals/s the backlog grows without bound — "
              "closed loops cannot show this)\n");
  return 0;
}
