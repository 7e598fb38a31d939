#ifndef QSCHED_NET_CONNECTION_H_
#define QSCHED_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/frame.h"

namespace qsched::net {

/// Switches `fd` into (or, with false, out of) O_NONBLOCK mode. Returns
/// false when fcntl fails.
bool SetNonBlocking(int fd, bool non_blocking = true);

/// One nonblocking framed connection: the byte handling shared by the
/// server's reactors, the client and the cluster's backend channels.
/// Protocol state (verdict matching, drain, versions) stays with the
/// owner; this class only turns socket bytes into Frames and Frames
/// into socket bytes.
///
/// Inbound: Receive() reads what the socket holds, then Next() hands
/// out the buffered frames one by one. The buffer is compacted once per
/// Receive(), not per frame. EOF rule: frames that arrived before the
/// peer's EOF (or a socket error) are always delivered first; only when
/// none is left does Next() report kClosed. A frame that fails to
/// decode is reported as kCorrupt (decode_status() says why) and
/// nothing behind it is ever delivered — framing is lost.
///
/// Outbound: Send() encodes into a queue of buffers (consecutive frames
/// coalesce into one buffer of up to 64 KiB), Flush() writes the queue
/// with one sendmsg gather of up to 64 buffers per call. Sent buffers
/// are freed at once; a partial write resumes from the front buffer.
///
/// Not thread-safe: exactly one thread owns a connection.
class Connection {
 public:
  enum class RecvStatus {
    kFrame,    // *frame holds the next inbound frame
    kIdle,     // no complete frame is buffered; Receive() again later
    kClosed,   // peer EOF or socket error, every earlier frame delivered
    kCorrupt,  // undecodable frame; see decode_status()
  };

  /// Takes ownership of `fd` and switches it to nonblocking mode.
  /// `max_payload` is the decoder's payload ceiling for inbound frames.
  explicit Connection(int fd, size_t max_payload = kMaxPayloadBytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Reads everything the socket holds right now: until a short read,
  /// EAGAIN, EOF or an error. Never blocks.
  void Receive();

  /// Pops the next buffered frame (see RecvStatus). Never does I/O.
  /// kCorrupt is sticky: every later call reports it again.
  RecvStatus Next(Frame* frame);

  /// The decode error behind kCorrupt (kOk before any).
  DecodeStatus decode_status() const { return decode_status_; }

  /// errno of the socket error that closed the connection; 0 for a
  /// clean EOF.
  int error() const { return error_; }

  /// Encodes `frame` onto the outbound queue; no syscall.
  void Send(const Frame& frame);

  /// Bytes are queued and waiting for the socket.
  bool wants_write() const { return !outq_.empty(); }

  /// Writes as much of the queue as the socket takes. Returns false on
  /// a send error: the queue is dropped (nothing in it can be delivered
  /// any more) and the connection counts as closed.
  bool Flush();

 private:
  int fd_ = -1;
  size_t max_payload_ = kMaxPayloadBytes;

  /// Inbound bytes live in in_[in_begin_, in_end_); the rest of in_ is
  /// free space for the next recv().
  std::vector<uint8_t> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  DecodeStatus decode_status_ = DecodeStatus::kOk;
  bool closed_ = false;
  int error_ = 0;

  /// Only the front buffer can be partially sent; `front_offset_` is
  /// how much of it already went out.
  std::deque<std::vector<uint8_t>> outq_;
  size_t front_offset_ = 0;
};

}  // namespace qsched::net

#endif  // QSCHED_NET_CONNECTION_H_
