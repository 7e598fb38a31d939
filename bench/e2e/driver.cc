#include "driver.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/frame.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched_e2e {

namespace {

namespace net = qsched::net;

/// Offset of the u64 request_id in an encoded frame (after the u32
/// payload length, the version byte and the type byte; net/frame.h).
constexpr size_t kRequestIdOffset = 6;

void PatchRequestId(uint8_t* frame, uint64_t request_id) {
  for (int i = 0; i < 8; ++i) {
    frame[kRequestIdOffset + i] =
        static_cast<uint8_t>((request_id >> (8 * i)) & 0xFF);
  }
}

std::vector<uint8_t> EncodeHeaderOnly(net::FrameType type,
                                      uint64_t request_id) {
  net::Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  std::vector<uint8_t> bytes;
  net::EncodeFrame(frame, &bytes);
  return bytes;
}

/// Nonblocking socket with an output queue and a compacting input buffer.
class Wire {
 public:
  explicit Wire(int fd) : fd_(fd), in_(1 << 20) {
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Wire() { close(fd_); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  int fd() const { return fd_; }
  std::vector<uint8_t>& out() { return out_; }
  bool out_pending() const { return out_sent_ < out_.size(); }
  /// The peer closed its side (after whatever is still buffered).
  bool closed() const { return closed_; }

  /// Sends as much of the output queue as the socket takes.
  bool Flush(std::string* error) {
    while (out_sent_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + out_sent_,
                             out_.size() - out_sent_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        *error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      out_sent_ += static_cast<size_t>(n);
    }
    out_.clear();
    out_sent_ = 0;
    return true;
  }

  /// Reads everything available; false on a socket error. A peer close
  /// is not an error here: it sets closed().
  bool Read(std::string* error) {
    while (true) {
      if (in_.size() - in_end_ < 64 * 1024) {
        std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
        in_end_ -= in_begin_;
        in_begin_ = 0;
        if (in_.size() - in_end_ < 64 * 1024) in_.resize(in_.size() * 2);
      }
      const ssize_t n =
          recv(fd_, in_.data() + in_end_, in_.size() - in_end_, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        *error = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) {
        closed_ = true;
        return true;
      }
      in_end_ += static_cast<size_t>(n);
    }
  }

  /// Decodes the next buffered frame; false when none is complete.
  bool Next(net::Frame* frame, std::string* error) {
    size_t consumed = 0;
    const net::DecodeStatus status = net::DecodeFrame(
        in_.data() + in_begin_, in_end_ - in_begin_, frame, &consumed);
    if (status == net::DecodeStatus::kNeedMore) return false;
    if (status != net::DecodeStatus::kOk) {
      *error = std::string("bad frame from server: ") +
               net::DecodeStatusToString(status);
      return false;
    }
    in_begin_ += consumed;
    return true;
  }

 private:
  int fd_;
  std::vector<uint8_t> out_;
  size_t out_sent_ = 0;
  std::vector<uint8_t> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  bool closed_ = false;
};

ConnectionResult RunConnection(const std::string& host, uint16_t port,
                               const QueryPool& pool,
                               const std::vector<Arrival>& schedule,
                               int64_t start_ns, double drain_timeout_s) {
  ConnectionResult result;
  // The default 50 us timer slack would make every timed wake late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu_start = CpuMicros(RUSAGE_THREAD);
  qsched::Result<int> connected = net::ConnectFd(host, port, 5.0);
  if (!connected.ok()) {
    result.error = connected.status().ToString();
    return result;
  }
  Wire wire(connected.ValueOrDie());

  const size_t n = schedule.size();
  result.records.resize(n);
  size_t next = 0;
  bool drain_sent = false;
  int64_t drain_deadline = 0;
  std::string& error = result.error;

  while (error.empty() && !result.drained) {
    const int64_t now = MonoNs();
    const size_t first = next;
    while (next < n && start_ns + schedule[next].due_ns <= now) {
      const Arrival& arrival = schedule[next];
      const std::vector<uint8_t>& frame = pool.frames[arrival.query];
      std::vector<uint8_t>& out = wire.out();
      const size_t at = out.size();
      out.insert(out.end(), frame.begin(), frame.end());
      PatchRequestId(out.data() + at, next + 1);
      RequestRecord& rec = result.records[next];
      rec.due_ns = start_ns + arrival.due_ns;
      rec.class_id = pool.class_of[arrival.query];
      ++next;
    }
    if (next > first) {
      const int64_t sent_at = MonoNs();
      for (size_t i = first; i < next; ++i) {
        result.records[i].send_ns = sent_at;
      }
    }
    if (next == n && !drain_sent) {
      std::vector<uint8_t> drain =
          EncodeHeaderOnly(net::FrameType::kDrain, n + 1);
      wire.out().insert(wire.out().end(), drain.begin(), drain.end());
      drain_sent = true;
      drain_deadline =
          MonoNs() + static_cast<int64_t>(drain_timeout_s * 1e9);
    }
    if (wire.out_pending() && !wire.Flush(&error)) break;

    int64_t wake = next < n ? start_ns + schedule[next].due_ns
                            : MonoNs() + 50000000;
    if (drain_sent && MonoNs() > drain_deadline) {
      error = "drain timed out";
      break;
    }
    const int64_t wait = std::max<int64_t>(0, wake - MonoNs());
    timespec timeout{static_cast<time_t>(wait / 1000000000LL),
                     static_cast<long>(wait % 1000000000LL)};
    const short events =
        static_cast<short>(POLLIN | (wire.out_pending() ? POLLOUT : 0));
    pollfd pfd{wire.fd(), events, 0};
    const int rc = ppoll(&pfd, 1, &timeout, nullptr);
    if (rc < 0) {
      if (errno == EINTR) continue;
      error = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    if (rc == 0) continue;
    if (pfd.revents & POLLOUT) {
      if (!wire.Flush(&error)) break;
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    if (!wire.Read(&error)) break;
    const int64_t received_at = MonoNs();
    net::Frame frame;
    std::string decode_error;
    while (wire.Next(&frame, &decode_error)) {
      const uint64_t id = frame.request_id;
      const bool known = id >= 1 && id <= next;
      RequestRecord* rec = known ? &result.records[id - 1] : nullptr;
      switch (frame.type) {
        case net::FrameType::kAccepted:
        case net::FrameType::kRejected:
          if (rec == nullptr || rec->verdict_ns != 0) {
            decode_error = "verdict for an unknown request";
            break;
          }
          rec->verdict_ns = received_at;
          rec->accepted = frame.type == net::FrameType::kAccepted;
          rec->rejected = !rec->accepted;
          break;
        case net::FrameType::kCompleted:
          if (rec == nullptr || !rec->accepted || rec->completed) {
            ++result.unmatched;
            break;
          }
          rec->completed = true;
          rec->complete_ns = received_at;
          rec->response_s = frame.response_seconds;
          rec->exec_s = frame.exec_seconds;
          rec->has_trace = frame.has_trace;
          rec->trace_id = frame.trace_id;
          rec->stage_queue_s = frame.stage_gateway_queue_seconds;
          rec->stage_dispatch_s = frame.stage_dispatch_seconds;
          rec->stage_execute_s = frame.stage_execute_seconds;
          break;
        case net::FrameType::kDrained:
          result.drained = true;
          break;
        case net::FrameType::kError:
          decode_error = "server error: " + frame.error_message;
          break;
        default:
          break;
      }
      if (!decode_error.empty()) break;
    }
    if (!decode_error.empty()) error = decode_error;
    if (wire.closed() && !result.drained && error.empty()) {
      error = "connection closed before DRAINED";
    }
  }
  result.cpu_us = CpuMicros(RUSAGE_THREAD) - cpu_start;
  return result;
}

/// Class mix entry: service class id, arrival weight, OLAP or OLTP.
struct MixEntry {
  int class_id = 0;
  double weight = 0.0;
  bool oltp = false;
};

QueryPool MakeQueryPool(const std::vector<MixEntry>& mix,
                        double tpch_scale_factor, uint64_t seed,
                        size_t per_class) {
  QueryPool pool;
  qsched::workload::TpchWorkloadParams tpch;
  tpch.scale_factor = tpch_scale_factor;
  for (size_t m = 0; m < mix.size(); ++m) {
    const MixEntry& entry = mix[m];
    const uint64_t class_seed = seed * 1000003ULL + m;
    qsched::workload::TpchWorkload olap(tpch, class_seed);
    qsched::workload::TpccWorkload oltp(
        qsched::workload::TpccWorkloadParams{}, class_seed);
    const size_t begin = pool.frames.size();
    for (size_t i = 0; i < per_class; ++i) {
      net::Frame frame;
      frame.type = net::FrameType::kSubmit;
      frame.query = entry.oltp ? oltp.Next() : olap.Next();
      frame.query.class_id = entry.class_id;
      frame.query.client_id = static_cast<int>(i % 32);
      frame.want_trace = true;
      std::vector<uint8_t> bytes;
      net::EncodeFrame(frame, &bytes);
      pool.queries.push_back(frame.query);
      pool.frames.push_back(std::move(bytes));
      pool.class_of.push_back(entry.class_id);
    }
    pool.ranges.emplace_back(begin, pool.frames.size());
    pool.weights.push_back(entry.weight);
  }
  return pool;
}

}  // namespace

QueryPool WireQueryPool(uint64_t seed) {
  return MakeQueryPool({{1, 3.0, false}, {2, 3.0, false}, {3, 94.0, true}},
                       0.01, seed, 1024);
}

QueryPool MixedQueryPool(uint64_t seed) {
  return MakeQueryPool({{1, 15.0, false}, {2, 15.0, false}, {3, 70.0, true}},
                       kMixedTpchScale, seed, 1024);
}

std::vector<std::vector<Arrival>> MakeArrivals(const QueryPool& pool,
                                               double qps, double seconds,
                                               uint64_t seed,
                                               int connections) {
  std::vector<std::vector<Arrival>> schedules(
      static_cast<size_t>(connections));
  qsched::Rng rng(seed, 0x6a09e667f3bcc909ULL);
  double t = 0.0;
  size_t i = 0;
  while (true) {
    t += rng.Exponential(1.0 / qps);
    if (t >= seconds) break;
    const size_t entry = rng.Categorical(pool.weights);
    const auto [begin, end] = pool.ranges[entry];
    Arrival arrival;
    arrival.due_ns = static_cast<int64_t>(t * 1e9);
    arrival.query = static_cast<uint32_t>(
        begin + static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(end - begin) - 1)));
    schedules[i % schedules.size()].push_back(arrival);
    ++i;
  }
  return schedules;
}

std::vector<ConnectionResult> RunOpenLoop(
    const std::string& host, uint16_t port, const QueryPool& pool,
    const std::vector<std::vector<Arrival>>& schedules, int64_t start_ns,
    double drain_timeout_s) {
  std::vector<ConnectionResult> results(schedules.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < schedules.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunConnection(host, port, pool, schedules[c], start_ns,
                                 drain_timeout_s);
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

bool PingOnce(const std::string& host, uint16_t port, double timeout_s) {
  const int64_t deadline = MonoNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (MonoNs() < deadline) {
    qsched::Result<int> connected = net::ConnectFd(host, port, 1.0);
    if (!connected.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    Wire wire(connected.ValueOrDie());
    wire.out() = EncodeHeaderOnly(net::FrameType::kPing, 1);
    std::string error;
    if (!wire.Flush(&error)) return false;
    while (MonoNs() < deadline) {
      pollfd pfd{wire.fd(), POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      if (!wire.Read(&error)) return false;
      net::Frame frame;
      while (wire.Next(&frame, &error)) {
        if (frame.type == net::FrameType::kPong) return true;
      }
      if (!error.empty() || wire.closed()) return false;
    }
  }
  return false;
}

}  // namespace qsched_e2e
