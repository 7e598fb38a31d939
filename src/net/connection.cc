#include "net/connection.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>

namespace qsched::net {

namespace {

/// First inbound buffer size. A read that fills the buffer doubles it
/// and reads again, so a connection only holds as much as its largest
/// burst needed.
constexpr size_t kMinReadBuffer = 4 * 1024;
/// Send() opens a new outbound buffer once the tail holds this much, so
/// a long queue is freed piecewise as it drains.
constexpr size_t kCoalesceBytes = 64 * 1024;
/// Buffers gathered into one sendmsg() call.
constexpr int kMaxIov = 64;

}  // namespace

bool SetNonBlocking(int fd, bool non_blocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  flags = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return fcntl(fd, F_SETFL, flags) == 0;
}

Connection::Connection(int fd, size_t max_payload)
    : fd_(fd), max_payload_(max_payload) {
  SetNonBlocking(fd_);
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

void Connection::Receive() {
  // Compact once per read: drop the frames Next() already handed out.
  if (in_begin_ > 0) {
    memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
    in_end_ -= in_begin_;
    in_begin_ = 0;
  }
  while (!closed_) {
    if (in_end_ == in_.size()) {
      in_.resize(std::max(kMinReadBuffer, 2 * in_.size()));
    }
    ssize_t n = recv(fd_, in_.data() + in_end_, in_.size() - in_end_, 0);
    if (n > 0) {
      in_end_ += static_cast<size_t>(n);
      if (in_end_ < in_.size()) return;  // short read: the socket is dry
      continue;
    }
    if (n == 0) {
      closed_ = true;  // EOF; buffered frames still go out via Next()
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    closed_ = true;
    error_ = errno;
  }
}

Connection::RecvStatus Connection::Next(Frame* frame) {
  if (decode_status_ != DecodeStatus::kOk) return RecvStatus::kCorrupt;
  size_t consumed = 0;
  DecodeStatus status = DecodeFrame(in_.data() + in_begin_,
                                    in_end_ - in_begin_, frame, &consumed,
                                    max_payload_);
  if (status == DecodeStatus::kOk) {
    in_begin_ += consumed;
    return RecvStatus::kFrame;
  }
  if (status == DecodeStatus::kNeedMore) {
    return closed_ ? RecvStatus::kClosed : RecvStatus::kIdle;
  }
  decode_status_ = status;
  return RecvStatus::kCorrupt;
}

void Connection::Send(const Frame& frame) {
  // Coalesce into the tail buffer until it is full. Flush() addresses
  // the front by offset, so appending to a partially sent front is safe.
  if (outq_.empty() || outq_.back().size() >= kCoalesceBytes) {
    outq_.emplace_back();
  }
  EncodeFrame(frame, &outq_.back());
}

bool Connection::Flush() {
  while (!outq_.empty()) {
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    for (auto buf = outq_.begin(); buf != outq_.end() && iovcnt < kMaxIov;
         ++buf, ++iovcnt) {
      const size_t skip = iovcnt == 0 ? front_offset_ : 0;
      iov[iovcnt].iov_base = buf->data() + skip;
      iov[iovcnt].iov_len = buf->size() - skip;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // sendmsg is writev with MSG_NOSIGNAL: a dead peer is an error
    // return, not a SIGPIPE.
    ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      // The peer is unreachable; everything queued is undeliverable.
      outq_.clear();
      front_offset_ = 0;
      closed_ = true;
      error_ = errno;
      return false;
    }
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      const size_t remaining = outq_.front().size() - front_offset_;
      if (left < remaining) {
        front_offset_ += left;
        break;
      }
      left -= remaining;
      outq_.pop_front();
      front_offset_ = 0;
    }
  }
  return true;
}

}  // namespace qsched::net
