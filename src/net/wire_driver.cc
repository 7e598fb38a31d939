#include "net/wire_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.h"

namespace qsched::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// A dead or blackholed endpoint fails the run instead of hanging in
/// the kernel's minutes-long connect.
constexpr double kConnectTimeoutSeconds = 5.0;

double SecondsBetween(SteadyClock::time_point from,
                      SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Status DriveConnection(const WireDriverOptions& options, int index,
                       const SourceFactory& make_source,
                       LoadReport* report) {
  Result<std::unique_ptr<Client>> connected =
      Client::Connect(options.host, options.port, kConnectTimeoutSeconds);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<Client> client = std::move(connected).ValueOrDie();
  std::unique_ptr<ArrivalSource> source = make_source(index);

  // request_id -> submit wall time, for RTT + conservation accounting. A
  // query is pending from its SubmitNoWait; a REJECTED takes it back out.
  std::unordered_map<uint64_t, SteadyClock::time_point> pending;
  auto absorb = [&](const ClientCompletion& completion) {
    auto it = pending.find(completion.request_id);
    if (it == pending.end()) {
      ++report->unmatched;
      return;
    }
    const double rtt = SecondsBetween(it->second, SteadyClock::now());
    pending.erase(it);
    ++report->completed;
    if (options.completed != nullptr) options.completed->Inc();
    if (options.rtt != nullptr) options.rtt->Record(rtt);
  };
  auto settle = [&](const Client::SubmitResult& verdict) {
    if (verdict.accepted) {
      ++report->accepted;
      return;
    }
    pending.erase(verdict.request_id);
    if (verdict.reject_reason == rt::RejectReason::kShuttingDown) {
      ++report->rejected_shutting_down;
    } else if (verdict.reject_reason ==
               rt::RejectReason::kBackendUnavailable) {
      ++report->rejected_backend_unavailable;
    } else {
      ++report->rejected_queue_full;
    }
  };
  // Waits at most `timeout` for a completion, then takes in everything
  // already received: verdicts settle, completions reconcile.
  auto pump = [&](double timeout) -> Status {
    for (;; timeout = 0.0) {
      Result<Client::PolledCompletion> polled =
          client->PollCompletion(timeout);
      if (!polled.ok()) return polled.status();
      Client::SubmitResult verdict;
      while (client->PopVerdict(&verdict)) settle(verdict);
      if (!polled.ValueOrDie().found) return Status::OK();
      absorb(polled.ValueOrDie().completion);
    }
  };
  auto resolve_owed_verdicts = [&]() -> Status {
    while (client->verdicts_pending() > 0) {
      Result<Client::SubmitResult> verdict = client->NextVerdict();
      if (!verdict.ok()) return verdict.status();
      settle(verdict.ValueOrDie());
    }
    return Status::OK();
  };

  const size_t depth_limit =
      options.pipeline
          ? static_cast<size_t>(std::max(options.max_outstanding, 1))
          : SIZE_MAX;
  double due_seconds = 0.0;
  workload::Query query;
  bool more = source->Next(&due_seconds, &query);
  const SteadyClock::time_point start = SteadyClock::now();
  auto elapsed = [&] { return SecondsBetween(start, SteadyClock::now()); };
  auto feeding = [&] {
    return more && (options.feed_deadline_seconds <= 0.0 ||
                    elapsed() < options.feed_deadline_seconds);
  };
  double lag_sum = 0.0;
  while (feeding()) {
    // Wait out the gap, absorbing whatever the server sends meanwhile.
    for (double wait = due_seconds - elapsed(); wait > 0.0;
         wait = due_seconds - elapsed()) {
      QSCHED_RETURN_NOT_OK(pump(wait));
    }
    // Queue every due arrival (one when blocking); one Flush() then
    // carries the whole burst in a single send().
    do {
      while (client->outstanding() + client->verdicts_pending() >=
             depth_limit) {
        QSCHED_RETURN_NOT_OK(client->Flush());
        QSCHED_RETURN_NOT_OK(pump(0.050));
      }
      const SteadyClock::time_point now = SteadyClock::now();
      lag_sum += SecondsBetween(start, now) - due_seconds;
      ++report->offered;
      if (options.offered != nullptr) options.offered->Inc();
      Result<uint64_t> request_id = client->SubmitNoWait(query);
      if (!request_id.ok()) return request_id.status();
      pending.emplace(request_id.ValueOrDie(), now);
      more = source->Next(&due_seconds, &query);
    } while (options.pipeline && feeding() && elapsed() >= due_seconds);
    QSCHED_RETURN_NOT_OK(client->Flush());
    if (!options.pipeline) QSCHED_RETURN_NOT_OK(resolve_owed_verdicts());
    QSCHED_RETURN_NOT_OK(pump(0.0));
  }

  // Every owed verdict first, so rejected queries are out of `pending`
  // and accepted ones counted; then DRAIN and reconcile.
  QSCHED_RETURN_NOT_OK(resolve_owed_verdicts());
  const SteadyClock::time_point feed_end = SteadyClock::now();
  QSCHED_RETURN_NOT_OK(client->Drain());
  QSCHED_RETURN_NOT_OK(pump(0.0));
  report->lost = pending.size();
  report->feed_seconds = SecondsBetween(start, feed_end);
  report->drain_seconds = SecondsBetween(feed_end, SteadyClock::now());
  report->mean_lag_seconds =
      report->offered > 0 ? lag_sum / static_cast<double>(report->offered)
                          : 0.0;
  return Status::OK();
}

}  // namespace

Result<LoadReport> DriveWire(const WireDriverOptions& options,
                             const SourceFactory& make_source) {
  const size_t n = static_cast<size_t>(std::max(options.connections, 1));
  std::vector<LoadReport> reports(n);
  std::vector<Status> statuses(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = DriveConnection(options, static_cast<int>(i),
                                    make_source, &reports[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadReport total;
  double lag_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    QSCHED_RETURN_NOT_OK(statuses[i]);
    const LoadReport& r = reports[i];
    total.offered += r.offered;
    total.accepted += r.accepted;
    total.rejected_queue_full += r.rejected_queue_full;
    total.rejected_shutting_down += r.rejected_shutting_down;
    total.rejected_backend_unavailable += r.rejected_backend_unavailable;
    total.completed += r.completed;
    total.lost += r.lost;
    total.unmatched += r.unmatched;
    total.feed_seconds = std::max(total.feed_seconds, r.feed_seconds);
    total.drain_seconds = std::max(total.drain_seconds, r.drain_seconds);
    lag_sum += r.mean_lag_seconds * static_cast<double>(r.offered);
  }
  if (total.offered > 0) {
    total.mean_lag_seconds = lag_sum / static_cast<double>(total.offered);
  }
  return total;
}

}  // namespace qsched::net
