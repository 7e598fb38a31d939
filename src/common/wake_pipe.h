#ifndef QSCHED_COMMON_WAKE_PIPE_H_
#define QSCHED_COMMON_WAKE_PIPE_H_

#include "common/status.h"

namespace qsched {

/// Self-pipe that lets any thread wake a poll() loop: the loop polls fd()
/// for POLLIN and calls Drain() when it fires; other threads call
/// Notify(). Both ends are nonblocking and close-on-exec, and close on
/// destruction. Notify() and Drain() are safe to call concurrently.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Creates the pipe; on failure the pipe stays unopened.
  Status Open();

  /// The read end to poll; -1 until Open() succeeds.
  int fd() const { return read_fd_; }

  /// Makes fd() readable. One byte is enough; a full pipe already
  /// guarantees a pending wakeup, so EAGAIN is fine. No-op if unopened.
  void Notify() const;

  /// Consumes every pending wakeup byte.
  void Drain() const;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace qsched

#endif  // QSCHED_COMMON_WAKE_PIPE_H_
