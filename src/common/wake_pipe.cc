#include "common/wake_pipe.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace qsched {

WakePipe::~WakePipe() {
  if (read_fd_ >= 0) close(read_fd_);
  if (write_fd_ >= 0) close(write_fd_);
}

Status WakePipe::Open() {
  int fds[2];
  if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::Internal(StrPrintf("pipe: %s", std::strerror(errno)));
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  return Status::OK();
}

void WakePipe::Notify() const {
  if (write_fd_ < 0) return;
  const char byte = 1;
  ssize_t ignored = write(write_fd_, &byte, 1);
  (void)ignored;
}

void WakePipe::Drain() const {
  char buf[256];
  while (read(read_fd_, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace qsched
