#include "cluster/router.h"

#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "common/strings.h"

namespace qsched::cluster {

Router::Router(const std::vector<BackendAddress>& backends,
               const RouterOptions& options, obs::Telemetry* telemetry)
    : options_(options), telemetry_(telemetry) {
  pool_ = std::make_unique<BackendPool>(
      backends, options_.tuning,
      [this](RoutedQuery item, BackendChannel* from) {
        OnFailover(std::move(item), from);
      },
      telemetry_);
  if (telemetry_ != nullptr) {
    obs::Registry& reg = telemetry_->registry;
    failover_counter_ = reg.GetCounter("qsched_cluster_failover_total");
    retry_counter_ = reg.GetCounter("qsched_cluster_retries_total");
    unroutable_counter_ =
        reg.GetCounter("qsched_cluster_unroutable_total");
  }
}

Router::~Router() { Stop(); }

Status Router::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return Status::OK();
  return pool_->Start();
}

void Router::Stop() {
  if (!started_.load()) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  pool_->Stop();
  if (!ConservationHolds()) {
    const RouterAccounting acc = Accounting();
    fprintf(stderr,
            "cluster::Router conservation VIOLATED: offered=%llu != "
            "accepted=%llu + rejected_relayed=%llu + "
            "rejected_unroutable=%llu\n",
            static_cast<unsigned long long>(acc.offered),
            static_cast<unsigned long long>(acc.accepted),
            static_cast<unsigned long long>(acc.rejected_relayed),
            static_cast<unsigned long long>(acc.rejected_unroutable));
  }
}

net::SubmitDisposition Router::Submit(const workload::Query& query,
                                      bool want_trace, VerdictFn on_verdict,
                                      CompleteFn on_complete) {
  if (stopping_.load()) {
    return net::SubmitDisposition::Rejected(rt::RejectReason::kShuttingDown);
  }
  offered_.fetch_add(1);
  if (on_offer_) on_offer_(query);
  const int class_id = query.class_id;
  const SteadyClock::time_point submitted = SteadyClock::now();

  RoutedQuery item;
  item.query = query;
  item.want_trace = want_trace;
  item.attempts = 1;
  // Accounting wraps the caller's callbacks here, before any channel
  // sees them, so the conservation identity holds regardless of which
  // thread resolves the query (backend verdict, failover re-route, or
  // channel shutdown).
  item.on_verdict = [this, class_id, submitted,
                     verdict = std::move(on_verdict)](
                        bool accepted, rt::RejectReason reason) {
    if (accepted) {
      accepted_.fetch_add(1);
    } else if (reason == rt::RejectReason::kBackendUnavailable) {
      rejected_unroutable_.fetch_add(1);
      if (unroutable_counter_ != nullptr) unroutable_counter_->Inc();
    } else {
      rejected_relayed_.fetch_add(1);
    }
    obs::Histogram* hist = RouteStageHist(class_id);
    if (hist != nullptr) {
      hist->Record(
          std::chrono::duration<double>(SteadyClock::now() - submitted)
              .count());
    }
    verdict(accepted, reason);
  };
  item.on_complete = [this, complete = std::move(on_complete)](
                         const net::ServiceCompletion& completion) {
    completions_relayed_.fetch_add(1);
    if (completion.cancelled) cancelled_completions_.fetch_add(1);
    complete(completion);
  };

  Dispatch(std::move(item), nullptr);
  return net::SubmitDisposition::Deferred();
}

void Router::Dispatch(RoutedQuery item, const BackendChannel* exclude) {
  BackendChannel* target = pool_->Pick(item.query.class_id, exclude);
  if (target == nullptr && exclude != nullptr) {
    // Only the backend the query just failed over from is usable (or it
    // recovered first). Better there than a reject.
    target = pool_->Pick(item.query.class_id, nullptr);
  }
  if (target == nullptr) {
    item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
    return;
  }
  obs::Counter* routed = RoutedCounter(target, item.query.class_id);
  if (routed != nullptr) routed->Inc();
  target->Forward(std::move(item));
}

void Router::OnFailover(RoutedQuery item, BackendChannel* from) {
  failovers_.fetch_add(1);
  if (failover_counter_ != nullptr) failover_counter_->Inc();
  if (stopping_.load() || item.attempts >= options_.max_attempts) {
    item.on_verdict(false, rt::RejectReason::kBackendUnavailable);
    return;
  }
  ++item.attempts;
  retries_.fetch_add(1);
  if (retry_counter_ != nullptr) retry_counter_->Inc();
  Dispatch(std::move(item), from);
}

net::WireStats Router::Stats() {
  net::WireStats stats;
  stats.accepted = accepted_.load();
  stats.completed = completions_relayed_.load();
  // Approximation for the wire shape: backend rejections relayed map to
  // queue_full, router-generated kBackendUnavailable to shutting_down
  // (the wire stats body predates the cluster layer; exact per-reason
  // counts live in /varz).
  stats.rejected_queue_full = rejected_relayed_.load();
  stats.rejected_shutting_down = rejected_unroutable_.load();
  std::map<int, double> worst;
  for (const BackendSnapshot& snap : pool_->Snapshots()) {
    stats.queue_depth += snap.queue_depth + snap.router_in_flight;
    stats.admitted += snap.admitted;
    if (!snap.connected) continue;
    for (const auto& [class_id, attainment] : snap.attainment) {
      auto it = worst.find(class_id);
      if (it == worst.end() || attainment < it->second) {
        worst[class_id] = attainment;
      }
    }
  }
  for (const auto& [class_id, attainment] : worst) {
    stats.class_attainment.push_back({class_id, attainment});
  }
  return stats;
}

bool Router::shutting_down() { return stopping_.load(); }

RouterAccounting Router::Accounting() const {
  RouterAccounting acc;
  acc.offered = offered_.load();
  acc.accepted = accepted_.load();
  acc.rejected_relayed = rejected_relayed_.load();
  acc.rejected_unroutable = rejected_unroutable_.load();
  acc.completions_relayed = completions_relayed_.load();
  acc.cancelled_completions = cancelled_completions_.load();
  acc.failovers = failovers_.load();
  acc.retries = retries_.load();
  return acc;
}

bool Router::ConservationHolds() const {
  const RouterAccounting acc = Accounting();
  return acc.offered ==
         acc.accepted + acc.rejected_relayed + acc.rejected_unroutable;
}

std::string Router::StatuszTable() const {
  std::ostringstream out;
  out << "cluster backends\n";
  out << StrPrintf("%-4s %-21s %-8s %-9s %-9s %-6s %-9s %-9s %-6s %s\n",
                   "idx", "address", "health", "circuit", "inflight",
                   "depth", "forwarded", "failover", "recon", "attainment");
  for (const BackendSnapshot& snap : pool_->Snapshots()) {
    std::string attainment;
    for (const auto& [class_id, value] : snap.attainment) {
      attainment += StrPrintf("%d:%.2f ", class_id, value);
    }
    out << StrPrintf(
        "%-4d %-21s %-8s %-9s %-9llu %-6llu %-9llu %-9llu %-6llu %s\n",
        snap.index, snap.address.ToString().c_str(),
        BackendHealthToString(snap.health),
        CircuitStateToString(snap.circuit),
        static_cast<unsigned long long>(snap.router_in_flight),
        static_cast<unsigned long long>(snap.queue_depth),
        static_cast<unsigned long long>(snap.forwarded),
        static_cast<unsigned long long>(snap.failed_over_out),
        static_cast<unsigned long long>(snap.reconnects),
        attainment.c_str());
  }
  const RouterAccounting acc = Accounting();
  out << StrPrintf(
      "\nrouter offered=%llu accepted=%llu rejected_relayed=%llu "
      "rejected_unroutable=%llu completions=%llu cancelled=%llu "
      "failovers=%llu retries=%llu\n",
      static_cast<unsigned long long>(acc.offered),
      static_cast<unsigned long long>(acc.accepted),
      static_cast<unsigned long long>(acc.rejected_relayed),
      static_cast<unsigned long long>(acc.rejected_unroutable),
      static_cast<unsigned long long>(acc.completions_relayed),
      static_cast<unsigned long long>(acc.cancelled_completions),
      static_cast<unsigned long long>(acc.failovers),
      static_cast<unsigned long long>(acc.retries));
  return out.str();
}

obs::Histogram* Router::RouteStageHist(int class_id) {
  if (telemetry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(metric_mu_);
  auto it = route_stage_hists_.find(class_id);
  if (it != route_stage_hists_.end()) return it->second;
  obs::Histogram* hist = telemetry_->registry.GetHistogram(
      "qsched_stage_seconds",
      StrPrintf("class=\"%d\",stage=\"route\"", class_id));
  route_stage_hists_[class_id] = hist;
  return hist;
}

obs::Counter* Router::RoutedCounter(const BackendChannel* target,
                                    int class_id) {
  if (telemetry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(metric_mu_);
  const std::pair<int, int> key{target->index(), class_id};
  auto it = routed_counters_.find(key);
  if (it != routed_counters_.end()) return it->second;
  obs::Counter* counter = telemetry_->registry.GetCounter(
      "qsched_cluster_routed_total",
      StrPrintf("backend=\"%s\",class=\"%d\"",
                target->address().ToString().c_str(), class_id));
  routed_counters_[key] = counter;
  return counter;
}

}  // namespace qsched::cluster
