// qsched_e2e — the end-to-end SLO benchmark binary (see README.md).
//
//   qsched_e2e --workload=NAME --seed=N --seconds=S --out=DIR [--trace]
//              [--smoke]
//       runs one workload and prints "E2E <json>" with every raw
//       measurement; bench/e2e/run.py turns that into metrics and checks.
//       Phase lengths follow from --seconds (--smoke: toy sizes).
//   qsched_e2e --role=serve --stack=direct|routed|mixed ...
//       the server child each live phase spawns (server.h).
//
// Live workloads drive a fresh server child per phase over loopback TCP
// from this process, at most two driver threads with one pipelined
// connection each; whatif_des runs in-process with no sockets.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/flags.h"
#include "driver.h"
#include "server.h"
#include "whatif.h"

extern "C" char** environ;

namespace qsched_e2e {
namespace {

constexpr int kConnections = 2;
constexpr int kSpanSampling = 16;

// Wire workloads: the knee search starts here, doubles until a probe
// fails, then bisects log-scale; `nominal` and `busy` are fixed rates.
constexpr double kKneeStartQps = 4000.0;
constexpr int kBisectSteps = 4;
constexpr double kNominalQps = 8000.0;
/// `busy` is ~60% of each workload's seed-42 knee, rounded to 1000 QPS
/// (README.md, Calibration); later changes must not move it.
constexpr double kBusyQpsDirect = 23000.0;
constexpr double kBusyQpsRouted = 19000.0;

/// Setup-only server spawns of an untraced live run, on top of one per
/// phase, so setup_s is a median over many spawns.
constexpr int kSetupSpawns = 30;
constexpr double kDrainTimeoutS = 60.0;

// ---------------------------------------------------------------------------
// Server child process
// ---------------------------------------------------------------------------

struct ChildExit {
  std::string result_json = "{}";
  std::vector<Span> spans;
  bool clean = false;
};

class ServerChild {
 public:
  ~ServerChild() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
  }

  /// Starts this binary with `args`, its stdin and stdout on pipes.
  /// posix_spawn does not copy the driver's page tables as fork() would,
  /// so the spawn cost (part of setup_s) does not grow with the arrival
  /// schedules the driver holds.
  bool Spawn(const std::vector<std::string>& args) {
    int in_pipe[2], out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0) return false;
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
      close(in_pipe[0]);
      close(in_pipe[1]);
      return false;
    }
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    std::vector<char*> argv;
    std::string self = "/proc/self/exe";
    argv.push_back(self.data());
    std::vector<std::string> copy = args;
    for (std::string& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    spawn_ns_ = MonoNs();
    const int rc = posix_spawn(&pid_, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  /// Next stdout line of the child; false at EOF or past `deadline_ns`.
  bool ReadLine(std::string* line, int64_t deadline_ns) {
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      const int64_t left = deadline_ns - MonoNs();
      if (left <= 0) return false;
      pollfd pfd{from_child_, POLLIN, 0};
      const int rc = poll(&pfd, 1, static_cast<int>(left / 1000000) + 1);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
      char chunk[65536];
      const ssize_t n = read(from_child_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Send(const char* command) {
    const std::string line = std::string(command) + "\n";
    if (write(to_child_, line.data(), line.size()) < 0) {
      std::perror("write to server child");
    }
  }

  /// STOP, collect RESULT and SPAN lines, reap.
  ChildExit Stop() {
    ChildExit exit;
    Send("STOP");
    close(to_child_);
    to_child_ = -1;
    const int64_t deadline = MonoNs() + 90LL * 1000000000LL;
    std::string line;
    while (ReadLine(&line, deadline)) {
      if (line.rfind("RESULT ", 0) == 0) {
        exit.result_json = line.substr(7);
      } else if (line.rfind("SPAN ", 0) == 0) {
        Span span;
        if (ParseSpanLine(line, &span)) {
          span.pid = pid_;
          exit.spans.push_back(span);
        }
      }
    }
    if (MonoNs() >= deadline) kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                 exit.result_json != "{}";
    return exit;
  }

  int64_t spawn_ns() const { return spawn_ns_; }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  int64_t spawn_ns_ = 0;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// /metrics scraper (wire_routed): the external client a Prometheus agent is
// ---------------------------------------------------------------------------

size_t HttpGet(uint16_t port, const char* path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return 0;
  }
  char request[128];
  const int len = std::snprintf(request, sizeof(request),
                                "GET %s HTTP/1.0\r\n\r\n", path);
  size_t total = 0;
  if (write(fd, request, static_cast<size_t>(len)) == len) {
    char buf[16384];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0) {
      total += static_cast<size_t>(n);
    }
  }
  close(fd);
  return total;
}

class Scraper {
 public:
  explicit Scraper(uint16_t port) : port_(port) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& ms() const { return ms_; }
  const std::vector<double>& kb() const { return kb_; }

 private:
  void Loop() {
    int64_t next = MonoNs() + 500000000LL;
    while (!stop_.load()) {
      if (MonoNs() >= next) {
        const int64_t t0 = MonoNs();
        const size_t bytes = HttpGet(port_, "/metrics");
        if (bytes > 0) {
          ms_.push_back(static_cast<double>(MonoNs() - t0) / 1e6);
          kb_.push_back(static_cast<double>(bytes) / 1024.0);
        }
        next += 1000000000LL;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<double> ms_;
  std::vector<double> kb_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// One live run's stack and phases, derived from the workload,
/// --seconds and --smoke (MakeSettings).
struct Settings {
  Stack stack = Stack::kDirect;
  bool wire = false;
  uint64_t seed = 42;
  bool trace = false;
  std::string out_dir = ".";
  double knee_start_qps = kKneeStartQps;
  int bisect_steps = kBisectSteps;
  double probe_warm_s = 0.0;
  double probe_measure_s = 0.0;
  double nominal_qps = kNominalQps;
  double busy_qps = 0.0;
  double warm_s = 0.0;
  double measure_s = 0.0;
  /// Slice length of the fixed-rate phases (see SlicedMedian).
  double slice_s = 0.5;
  int setup_spawns = kSetupSpawns;
  bool scrape = false;
};

/// False for a workload that is not live.
bool MakeSettings(const std::string& workload, double seconds, bool smoke,
                  Settings* s) {
  if (workload == "wire_direct" || workload == "wire_routed") {
    const bool routed = workload == "wire_routed";
    s->stack = routed ? Stack::kRouted : Stack::kDirect;
    s->wire = true;
    s->scrape = routed;
    s->busy_qps = routed ? kBusyQpsRouted : kBusyQpsDirect;
    // About 40% of the measured time goes to the knee probes, 30% each
    // to the nominal and busy phases.
    s->probe_warm_s = smoke ? 0.1 : 0.25;
    s->probe_measure_s = smoke ? 0.3 : std::max(0.3, 0.05 * seconds);
    s->warm_s = smoke ? 0.25 : 0.5;
    s->measure_s = smoke ? 1.5 : std::max(1.0, 0.3 * seconds);
    if (smoke) {
      s->knee_start_qps = 8000.0;
      s->bisect_steps = 0;
    }
  } else if (workload == "mixed_slo") {
    s->stack = Stack::kMixed;
    s->nominal_qps = kMixedQps;
    s->warm_s = 1.0;
    s->measure_s = smoke ? 2.0 : seconds;
    // 2 s slices hold ~1100 OLTP completions each at 800 QPS.
    s->slice_s = 2.0;
  } else {
    return false;
  }
  if (smoke) s->setup_spawns = 1;
  return true;
}

struct PhaseSpec {
  std::string name;
  double qps = 0.0;
  double warm_s = 0.0;
  double measure_s = 0.0;
  bool trace = false;
  uint64_t seed = 0;
  /// Equal time slices of the measured window (see SlicedMedian).
  int slices = 1;
};

struct Phase {
  PhaseSpec spec;
  std::string error;
  double setup_s = 0.0;
  int64_t window_begin_ns = 0;
  int64_t window_end_ns = 0;
  std::vector<ConnectionResult> connections;
  ChildExit server;
  std::vector<double> scrape_ms;
  std::vector<double> scrape_kb;
};

Phase RunPhase(const Settings& s, const QueryPool& pool,
               const PhaseSpec& spec) {
  Phase phase;
  phase.spec = spec;
  const double length = spec.warm_s + spec.measure_s;
  const auto schedules =
      spec.qps > 0.0 ? MakeArrivals(pool, spec.qps, length, spec.seed,
                                    kConnections)
                     : std::vector<std::vector<Arrival>>{};
  const char* stack = s.stack == Stack::kRouted  ? "routed"
                      : s.stack == Stack::kMixed ? "mixed"
                                                 : "direct";
  ServerChild child;
  if (!child.Spawn({"--role=serve", std::string("--stack=") + stack,
                    "--seed=" + std::to_string(spec.seed),
                    std::string("--trace=") + (spec.trace ? "1" : "0"),
                    "--horizon=" + std::to_string(length + 10.0),
                    "--out=" + s.out_dir})) {
    phase.error = "spawn failed";
    return phase;
  }
  std::string ready;
  unsigned port = 0, http_port = 0;
  if (!child.ReadLine(&ready, MonoNs() + 30LL * 1000000000LL) ||
      std::sscanf(ready.c_str(), "READY %u %u", &port, &http_port) != 2) {
    phase.error = "server child never became ready";
    phase.server = child.Stop();
    return phase;
  }
  if (!PingOnce("127.0.0.1", static_cast<uint16_t>(port), 10.0)) {
    phase.error = "no PONG from server child";
    phase.server = child.Stop();
    return phase;
  }
  phase.setup_s = static_cast<double>(MonoNs() - child.spawn_ns()) / 1e9;

  if (!schedules.empty()) {
    std::unique_ptr<Scraper> scraper;
    if (s.scrape && http_port != 0) {
      scraper = std::make_unique<Scraper>(static_cast<uint16_t>(http_port));
    }
    const int64_t start = MonoNs() + 20000000LL;
    phase.window_begin_ns = start + static_cast<int64_t>(spec.warm_s * 1e9);
    phase.window_end_ns = start + static_cast<int64_t>(length * 1e9);
    std::thread driver([&] {
      phase.connections =
          RunOpenLoop("127.0.0.1", static_cast<uint16_t>(port), pool,
                      schedules, start, kDrainTimeoutS);
    });
    // A CPU-usage mark at every slice boundary.
    for (int i = 0; i <= spec.slices; ++i) {
      SleepUntilNs(phase.window_begin_ns +
                   (phase.window_end_ns - phase.window_begin_ns) * i /
                       spec.slices);
      child.Send("MARK");
    }
    driver.join();
    if (scraper != nullptr) {
      scraper->Stop();
      phase.scrape_ms = scraper->ms();
      phase.scrape_kb = scraper->kb();
    }
  }
  phase.server = child.Stop();
  if (!phase.server.clean && phase.error.empty()) {
    phase.error = "server child did not exit cleanly";
  }
  for (const ConnectionResult& c : phase.connections) {
    if (!c.error.empty() && phase.error.empty()) phase.error = c.error;
  }
  return phase;
}

/// A latency sample keyed by the time its request was due.
using TimedSample = std::pair<int64_t, double>;

std::vector<double> Values(const std::vector<TimedSample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const TimedSample& s : samples) values.push_back(s.second);
  return values;
}

/// Driver-side measurements of one phase. Counts cover the whole phase;
/// latencies only requests due inside the measured window, which is cut
/// into `slices` equal time slices.
struct PhaseStats {
  uint64_t offered = 0, accepted = 0, rejected = 0, completed = 0;
  uint64_t lost = 0, unmatched = 0;
  bool drained = true;
  uint64_t window_completed = 0;
  int64_t begin_ns = 0, end_ns = 0;
  int slices = 1;
  /// Completions per slice (by due time), for per-slice server CPU.
  std::vector<double> slice_completed;
  std::vector<TimedSample> oltp_rtt_us, verdict_us, late_us;
  std::vector<double> wire_us;
  std::vector<double> oltp_queue_us, oltp_dispatch_us, olap_dispatch_ms;
  std::vector<double> velocity[4];
  std::vector<double> oltp_response_ms;
  double driver_cpu_us = 0.0;

  int SliceOf(int64_t due_ns) const {
    const double width = static_cast<double>(end_ns - begin_ns) / slices;
    return std::clamp(
        static_cast<int>(static_cast<double>(due_ns - begin_ns) / width), 0,
        slices - 1);
  }
};

/// The median over the slices of `stat` of each slice's samples. A
/// co-tenant stall (every thread descheduled for a few ms, which a shared
/// host shows every few seconds) then spoils one slice instead of
/// deciding the whole phase.
template <typename Stat>
double SlicedMedian(const PhaseStats& st, const std::vector<TimedSample>& v,
                    Stat stat) {
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(st.slices));
  for (const TimedSample& s : v) {
    by_slice[static_cast<size_t>(st.SliceOf(s.first))].push_back(s.second);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : by_slice) {
    if (!slice.empty()) per_slice.push_back(stat(slice));
  }
  return Quantile(per_slice, 0.5);
}

double SlicedP99(const PhaseStats& st, const std::vector<TimedSample>& v) {
  return SlicedMedian(st, v, [](const std::vector<double>& s) {
    return Quantile(s, 0.99);
  });
}

double SlicedP50(const PhaseStats& st, const std::vector<TimedSample>& v) {
  return SlicedMedian(st, v, [](const std::vector<double>& s) {
    return Quantile(s, 0.5);
  });
}

double SlicedMean(const PhaseStats& st, const std::vector<TimedSample>& v) {
  return SlicedMedian(st, v, Mean);
}

PhaseStats Collect(const Phase& phase) {
  PhaseStats st;
  st.begin_ns = phase.window_begin_ns;
  st.end_ns = phase.window_end_ns;
  st.slices = std::max(1, phase.spec.slices);
  st.slice_completed.assign(static_cast<size_t>(st.slices), 0.0);
  for (const ConnectionResult& c : phase.connections) {
    st.unmatched += c.unmatched;
    st.drained = st.drained && c.drained;
    st.driver_cpu_us += c.cpu_us;
    for (const RequestRecord& r : c.records) {
      if (r.due_ns == 0) continue;  // never sent (connection failed)
      ++st.offered;
      st.accepted += r.accepted;
      st.rejected += r.rejected;
      st.completed += r.completed;
      st.lost += r.accepted && !r.completed;
      if (r.due_ns < st.begin_ns || r.due_ns >= st.end_ns) continue;
      st.late_us.emplace_back(
          r.due_ns, static_cast<double>(r.send_ns - r.due_ns) / 1e3);
      if (r.verdict_ns != 0) {
        st.verdict_us.emplace_back(
            r.due_ns, static_cast<double>(r.verdict_ns - r.due_ns) / 1e3);
      }
      if (!r.completed) continue;
      ++st.window_completed;
      ++st.slice_completed[static_cast<size_t>(st.SliceOf(r.due_ns))];
      const double rtt_us =
          static_cast<double>(r.complete_ns - r.due_ns) / 1e3;
      if (r.class_id == 3) {
        st.oltp_rtt_us.emplace_back(r.due_ns, rtt_us);
        st.oltp_response_ms.push_back(r.response_s * 1e3);
        if (r.has_trace) {
          const double stages =
              r.stage_queue_s + r.stage_dispatch_s + r.stage_execute_s;
          const double wire_us =
              static_cast<double>(r.complete_ns - r.send_ns) / 1e3;
          st.wire_us.push_back(wire_us - stages * 1e6);
          st.oltp_queue_us.push_back(r.stage_queue_s * 1e6);
          st.oltp_dispatch_us.push_back(r.stage_dispatch_s * 1e6);
        }
      } else if (r.has_trace) {
        st.olap_dispatch_ms.push_back(r.stage_dispatch_s * 1e3);
      }
      if (r.class_id >= 1 && r.class_id <= 2 && r.response_s > 0.0) {
        st.velocity[r.class_id].push_back(r.exec_s / r.response_s);
      }
    }
  }
  return st;
}

bool Conserved(const PhaseStats& st) {
  return st.offered == st.accepted + st.rejected &&
         st.completed == st.accepted && st.lost == 0 && st.unmatched == 0 &&
         st.drained;
}

JsonObject StatsJson(const PhaseStats& st) {
  JsonObject j;
  j.Num("offered", static_cast<double>(st.offered))
      .Num("accepted", static_cast<double>(st.accepted))
      .Num("rejected", static_cast<double>(st.rejected))
      .Num("completed", static_cast<double>(st.completed))
      .Num("lost", static_cast<double>(st.lost))
      .Num("unmatched", static_cast<double>(st.unmatched))
      .Bool("drained", st.drained)
      .Bool("conserved", Conserved(st))
      .Num("window_completed", static_cast<double>(st.window_completed))
      .Num("oltp_samples", static_cast<double>(st.oltp_rtt_us.size()))
      .Num("slices", st.slices)
      .Arr("slice_completed", st.slice_completed)
      .Num("oltp_rtt_p50_us", SlicedP50(st, st.oltp_rtt_us))
      .Num("oltp_rtt_p50_all_us", Quantile(Values(st.oltp_rtt_us), 0.5))
      .Num("oltp_rtt_mean_us", SlicedMean(st, st.oltp_rtt_us))
      .Num("oltp_rtt_p99_us", SlicedP99(st, st.oltp_rtt_us))
      .Num("oltp_rtt_p99_all_us", Quantile(Values(st.oltp_rtt_us), 0.99))
      .Num("verdict_p99_us", SlicedP99(st, st.verdict_us))
      .Num("verdict_p99_all_us", Quantile(Values(st.verdict_us), 0.99))
      .Num("late_p99_us", SlicedP99(st, st.late_us))
      .Num("late_p99_all_us", Quantile(Values(st.late_us), 0.99))
      .Num("wire_p50_us", Quantile(st.wire_us, 0.5))
      .Num("wire_p99_us", Quantile(st.wire_us, 0.99))
      .Num("oltp_queue_p99_us", Quantile(st.oltp_queue_us, 0.99))
      .Num("oltp_dispatch_p99_us", Quantile(st.oltp_dispatch_us, 0.99))
      .Num("olap_dispatch_p99_ms", Quantile(st.olap_dispatch_ms, 0.99))
      .Num("c1_velocity", Mean(st.velocity[1]))
      .Num("c2_velocity", Mean(st.velocity[2]))
      .Num("c3_resp_ms", Mean(st.oltp_response_ms))
      .Num("driver_cpu_us", st.driver_cpu_us);
  return j;
}

/// The knee budget: OLTP RTT p99 from due time <= 2 ms, verdict p99 <=
/// 1 ms, and the driver itself on schedule (late p99 < 1 ms; failing
/// only that flags the knee driver_bound) — plus nothing rejected or
/// lost and exact conservation.
constexpr double kRttBudgetUs = 2000.0;
constexpr double kVerdictBudgetUs = 1000.0;
constexpr double kLateBudgetUs = 1000.0;

/// Why a knee probe failed ("" = passed).
std::string ProbeFailure(const Phase& phase, const PhaseStats& st) {
  std::string why;
  if (!phase.error.empty()) why += "error ";
  if (SlicedP99(st, st.oltp_rtt_us) > kRttBudgetUs) why += "rtt ";
  if (SlicedP99(st, st.verdict_us) > kVerdictBudgetUs) why += "verdict ";
  if (st.rejected > 0 || st.lost > 0) why += "rejected ";
  if (!Conserved(st)) why += "conservation ";
  if (SlicedP99(st, st.late_us) >= kLateBudgetUs) why += "late ";
  if (!why.empty()) why.pop_back();
  return why;
}

/// How far a probe is from its latency budget: the largest of p99 /
/// budget over RTT, verdict and lateness (<= 1 passes); infinite when a
/// request was rejected or lost.
double BudgetUse(const Phase& phase, const PhaseStats& st) {
  if (!phase.error.empty() || st.rejected > 0 || st.lost > 0 ||
      !Conserved(st)) {
    return INFINITY;
  }
  return std::max({SlicedP99(st, st.oltp_rtt_us) / kRttBudgetUs,
                   SlicedP99(st, st.verdict_us) / kVerdictBudgetUs,
                   SlicedP99(st, st.late_us) / kLateBudgetUs});
}

class Run {
 public:
  Run(const Settings& settings, const QueryPool& pool)
      : s_(settings), pool_(pool) {}

  Phase Execute(const PhaseSpec& spec) {
    Phase phase = RunPhase(s_, pool_, spec);
    setup_s_.push_back(phase.setup_s);
    return phase;
  }

  /// Runs `spec` and records it in the output.
  Phase Record(const PhaseSpec& spec) {
    Phase phase = Execute(spec);
    Add(phase, nullptr);
    return phase;
  }

  /// Appends the phase to the output; knee probes also say why they
  /// failed ("" when they passed).
  void Add(const Phase& phase, const std::string* probe_failure) {
    const PhaseStats st = Collect(phase);
    JsonObject j;
    j.Str("name", phase.spec.name)
        .Num("qps", phase.spec.qps)
        .Num("measure_s", phase.spec.measure_s)
        .Bool("traced", phase.spec.trace)
        .Str("error", phase.error)
        .Num("setup_s", phase.setup_s)
        .Obj("driver", StatsJson(st))
        .Raw("server", phase.server.result_json)
        .Arr("scrape_ms", phase.scrape_ms)
        .Arr("scrape_kb", phase.scrape_kb);
    if (probe_failure != nullptr) j.Str("failure", *probe_failure);
    phases_.push_back(j.ToString());
  }

  /// Knee search: double from knee_start until a probe fails (halve
  /// while the first fails), then bisect log-scale. Every probe runs
  /// against a fresh server child, and one that misses only its latency
  /// budget is run once more: it passes when either attempt does, so the
  /// knee follows the host's undisturbed capacity, not its worst moment.
  /// The knee is log-interpolated between the highest passing and the
  /// lowest failing probe on their budget use (p99 / budget), so it is
  /// not quantized to the probe grid; a failing probe that rejected or
  /// lost requests pins it to the passing one.
  JsonObject Knee() {
    int index = 0;
    struct Outcome {
      double qps = 0.0;
      double use = 0.0;
      std::string why;
    };
    auto attempt = [&](double qps) {
      PhaseSpec spec{"probe", qps, s_.probe_warm_s, s_.probe_measure_s, false,
                     s_.seed * 1000 + static_cast<uint64_t>(++index), 3};
      const Phase phase = Execute(spec);
      const PhaseStats st = Collect(phase);
      Outcome out{qps, BudgetUse(phase, st), ProbeFailure(phase, st)};
      Add(phase, &out.why);
      return out;
    };
    auto probe = [&](double qps) {
      Outcome out = attempt(qps);
      if (!out.why.empty() && std::isfinite(out.use)) {
        Outcome again = attempt(qps);
        if (again.use < out.use) out = again;
      }
      return out;
    };
    Outcome lo, hi;
    const double cap = 512000.0, floor = 250.0;
    Outcome first = probe(s_.knee_start_qps);
    if (first.why.empty()) {
      lo = first;
      while (lo.qps < cap) {
        Outcome next = probe(lo.qps * 2.0);
        if (!next.why.empty()) {
          hi = next;
          break;
        }
        lo = next;
      }
    } else {
      hi = first;
      while (hi.qps > floor) {
        Outcome next = probe(hi.qps / 2.0);
        if (next.why.empty()) {
          lo = next;
          break;
        }
        hi = next;
      }
    }
    for (int i = 0; i < s_.bisect_steps && lo.qps > 0.0 && hi.qps > 0.0;
         ++i) {
      Outcome mid = probe(std::sqrt(lo.qps * hi.qps));
      (mid.why.empty() ? lo : hi) = mid;
    }
    double knee = lo.qps;
    if (lo.qps > 0.0 && hi.qps > 0.0 && std::isfinite(hi.use) &&
        hi.use > 1.0 && lo.use > 0.0 && lo.use <= 1.0) {
      const double f =
          -std::log(lo.use) / (std::log(hi.use) - std::log(lo.use));
      knee = lo.qps * std::pow(hi.qps / lo.qps, f);
    }
    JsonObject out;
    out.Num("qps", knee)
        .Num("passing_qps", lo.qps)
        .Num("failing_qps", hi.qps)
        .Str("failing_reason", hi.why)
        .Bool("driver_bound", hi.why == "late")
        .Num("probes", index);
    return out;
  }

  std::string PhasesJson() const {
    std::string out = "[";
    for (size_t i = 0; i < phases_.size(); ++i) {
      if (i > 0) out += ",";
      out += phases_[i];
    }
    return out + "]";
  }

  const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  const Settings& s_;
  const QueryPool& pool_;
  std::vector<std::string> phases_;
  std::vector<double> setup_s_;
};

/// Joins driver-side and server-side spans of the sampled requests of a
/// traced phase. On wire_routed two backends hand out the same trace ids,
/// so a server span group is matched to the request whose send time it
/// follows most closely.
std::vector<Span> MergeSpans(const Phase& phase) {
  // The server emits each request's spans together, service.submit first
  // and rt.execute last.
  std::multimap<uint64_t, std::vector<Span>> groups;
  std::vector<Span> group;
  for (const Span& span : phase.server.spans) {
    group.push_back(span);
    if (span.name == "rt.execute") {
      groups.emplace(span.request, std::move(group));
      group.clear();
    }
  }
  std::vector<Span> spans;
  const int driver_pid = getpid();
  uint64_t next_id = 1;
  for (size_t c = 0; c < phase.connections.size(); ++c) {
    for (const RequestRecord& r : phase.connections[c].records) {
      if (!r.completed || !r.has_trace || r.trace_id % kSpanSampling != 0) {
        continue;
      }
      auto range = groups.equal_range(r.trace_id);
      auto best = groups.end();
      int64_t best_gap = INT64_MAX;
      for (auto it = range.first; it != range.second; ++it) {
        const Span& submit = it->second.front();
        if (submit.start_ns < r.send_ns - 1000000 ||
            submit.start_ns > r.complete_ns) {
          continue;
        }
        const int64_t gap = std::llabs(submit.start_ns - r.send_ns);
        if (gap < best_gap) {
          best_gap = gap;
          best = it;
        }
      }
      if (best == groups.end()) continue;
      const uint64_t id = next_id++;
      const int tid = static_cast<int>(c) + 1;
      int64_t server_done = r.complete_ns;
      for (Span span : best->second) {
        if (span.name == "rt.execute") server_done = span.end_ns;
        span.request = id;
        spans.push_back(span);
      }
      groups.erase(best);
      spans.push_back({"request", "", id, r.due_ns, r.complete_ns, driver_pid,
                       tid});
      spans.push_back({"driver.submit", "request", id, r.due_ns, r.send_ns,
                       driver_pid, tid});
      spans.push_back({"driver.complete", "request", id, server_done,
                       r.complete_ns, driver_pid, tid});
    }
  }
  return spans;
}

int RunWorkload(const qsched::FlagParser& flags) {
  const std::string workload = flags.GetString("workload", "");
  const double seconds = flags.GetDouble("seconds", 15.0);
  const bool smoke = flags.GetBool("smoke", false);
  Settings s;
  s.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  s.trace = flags.GetBool("trace", false);
  s.out_dir = flags.GetString("out", ".");

  JsonObject out;
  out.Str("workload", workload)
      .Num("seed", static_cast<double>(s.seed))
      .Bool("trace", s.trace);
  std::vector<Span> spans;

  if (workload == "whatif_des") {
    WhatifOptions w;
    w.seed = s.seed;
    if (smoke) {
      w.arrival_seconds = 3.0;
      w.repetitions = 2;
      w.setup_repetitions = 2;
      w.fig6_period_seconds = 30.0;
    }
    w.trace = s.trace;
    w.out_dir = s.out_dir;
    out.Obj("whatif", RunWhatif(w, &spans));
  } else if (MakeSettings(workload, seconds, smoke, &s)) {
    const QueryPool pool =
        s.wire ? WireQueryPool(s.seed) : MixedQueryPool(s.seed);
    Run run(s, pool);
    const char* main_name = s.wire ? "nominal" : "open_loop";
    const int slices =
        std::max(1, static_cast<int>(std::lround(s.measure_s / s.slice_s)));
    auto fixed = [&](const char* name, double qps, bool traced,
                     uint64_t salt) {
      return PhaseSpec{name, qps, s.warm_s, s.measure_s, traced,
                       s.seed * 1000 + salt, slices};
    };
    if (!s.trace) {
      if (s.wire) out.Obj("knee", run.Knee());
      for (int i = 0; i < s.setup_spawns; ++i) {
        run.Record({"setup", 0.0, 0.0, 0.0, false,
                    s.seed * 1000 + 500 + static_cast<uint64_t>(i), 1});
      }
      run.Record(fixed(main_name, s.nominal_qps, false, 900));
      if (s.wire) run.Record(fixed("busy", s.busy_qps, false, 901));
    } else {
      // The same arrivals untraced, then traced: the untraced phase gives
      // the timing metrics, the pair the tracing overhead.
      run.Record(fixed(main_name, s.nominal_qps, false, 900));
      spans =
          MergeSpans(run.Record(fixed(main_name, s.nominal_qps, true, 900)));
    }
    out.Raw("phases", run.PhasesJson()).Arr("setup_s", run.setup_s());
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.Num("process_rss_kb", static_cast<double>(ru.ru_maxrss));
  if (s.trace) {
    const std::string path = s.out_dir + "/trace_" + workload + ".json";
    out.Str("trace_file", WriteChromeTrace(path, spans) ? path : "")
        .Num("spans", static_cast<double>(spans.size()));
  }
  std::printf("E2E %s\n", out.ToString().c_str());
  return 0;
}

int Serve(const qsched::FlagParser& flags) {
  ServeOptions options;
  if (!StackFromString(flags.GetString("stack", "direct"), &options.stack)) {
    std::fprintf(stderr, "unknown --stack\n");
    return 1;
  }
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.trace = flags.GetInt("trace", 0) != 0;
  options.horizon_wall_seconds = flags.GetDouble("horizon", 60.0);
  options.out_dir = flags.GetString("out", ".");
  return RunServe(options);
}

}  // namespace
}  // namespace qsched_e2e

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  qsched::FlagParser flags;
  const qsched::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.GetString("role", "drive") == "serve") {
    return qsched_e2e::Serve(flags);
  }
  return qsched_e2e::RunWorkload(flags);
}
